"""Start-up import budget: each process pays only for what it runs.

The fleet front and the client proxy bytes, so they must start without the
engine's numeric stack; a replica imports the engine but loads scipy only
at its first LP solve.  Every check runs in a fresh interpreter, because
this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.service

HEAVY = ("numpy", "scipy", "networkx")
SRC = str(Path(repro.__file__).resolve().parents[1])


def _loaded_after(code: str) -> set[str]:
    """Top-level heavy packages in ``sys.modules`` after running ``code``."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps(sorted(set({HEAVY!r}) & set(sys.modules))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return set(json.loads(completed.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize(
    "module", ["repro", "repro.service.fleet", "repro.service.client"]
)
def test_light_modules_load_no_numeric_stack(module):
    assert _loaded_after(f"import {module}") == set()


def test_parsing_fleet_and_submit_loads_no_numeric_stack():
    code = (
        "from repro.cli import build_parser\n"
        "parser = build_parser()\n"
        "parser.parse_args(['fleet', '--replicas', '2', '--port', '0'])\n"
        "parser.parse_args(['fleet', 'restart', '--url', 'http://127.0.0.1:1'])\n"
        "parser.parse_args(['submit', 'problem.json', '--gamma', '2'])\n"
    )
    assert _loaded_after(code) == set()


def test_service_loads_scipy_at_its_first_lp_solve():
    pytest.importorskip("scipy")
    code = (
        "import sys\n"
        "from repro.service import SolveService\n"
        "from repro.workloads import figure1_workflow, workflow_to_dict\n"
        "service = SolveService(workers=1)\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded at construction'\n"
        "record = service.solve_payload({\n"
        "    'workflow': workflow_to_dict(figure1_workflow()),\n"
        "    'gamma': 2, 'kind': 'set', 'solver': 'set_lp'})\n"
        "assert record['resolved_solver'] == 'set_lp', record\n"
        "service.drain()\n"
    )
    assert "scipy" in _loaded_after(code)


@pytest.mark.parametrize("package", [repro, repro.service])
def test_every_lazy_export_resolves_and_is_listed(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")
