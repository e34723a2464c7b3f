"""provenance-views: secure provenance views for module privacy.

A production-quality reproduction of *"Provenance Views for Module Privacy"*
(Davidson, Khanna, Milo, Panigrahi, Roy — PODS 2011).  The library models
scientific workflows as DAGs of modules over finite-domain attributes,
materializes their provenance relations, and solves the **Secure-View**
problem: choose a minimum-cost set of attributes to hide (and, in workflows
with public modules, public modules to privatize) so that the functionality
of every private module remains Γ-private.

Solving an instance
-------------------
The :mod:`repro.engine` package is the canonical entry point.  A
:class:`~repro.engine.Planner` derives requirement lists once, memoizes
every expensive derivation in a shared cache, and dispatches any algorithm
registered in the solver registry::

    from repro import Planner
    from repro.workloads import figure1_workflow

    planner = Planner(figure1_workflow(), gamma=2, kind="set")
    result = planner.solve()                         # auto-selected solver
    result = planner.solve(solver="exact", verify=True)
    result = planner.solve(solver="lp_rounding", seed=7)

``repro engine list-solvers`` (CLI) prints the registry.  The historical
free functions (``repro.optim.solve_secure_view`` and the per-algorithm
``solve_*`` functions) still work.

Layout
------
``repro.engine``
    The unified solve surface: solver registry with decorator registration,
    ``SolveRequest``/``SolveResult`` dataclasses, the ``Planner`` facade and
    the shared ``DerivationCache``.
``repro.core``
    The formal model: attributes, relations, modules, workflows, provenance
    views, possible worlds, Γ-privacy, standalone analysis, requirement
    lists, composition theorems and the Secure-View problem definition.
``repro.kernel``
    The bit-compiled privacy kernel: relations packed into integer bitmask
    tables so OUT-set counting, Γ-privacy checks and safe-subset search run
    as word-parallel bit operations.  Default backend of the core privacy
    analysis; ``backend="reference"`` keeps the brute-force oracle.
``repro.optim``
    The optimization algorithms: exact branch and bound, the Figure-3 LP
    with Algorithm-1 randomized rounding (cardinality constraints), the
    ℓ_max LP rounding (set constraints), the (γ+1) greedy for bounded data
    sharing, and the general-workflow LP with privatization.
``repro.reductions``
    The hardness constructions as executable generators (set cover, vertex
    cover, label cover, UNSAT, set disjointness, the Theorem-3 adversary).
``repro.workloads``
    Module function libraries, the paper's example workflows, random and
    "scientific-workflow-shaped" generators.
``repro.analysis``
    Experiment harness: metrics, sweeps, and text reporting.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.10.0"

#: Public name → defining subpackage.  Exports load on first access
#: (PEP 562): ``import repro`` itself imports nothing heavy, so processes
#: that never solve — the fleet front, the client, ``repro --help`` — start
#: without numpy, scipy or networkx.
_EXPORTS = {
    "Attribute": ".core",
    "BOOLEAN": ".core",
    "Domain": ".core",
    "Schema": ".core",
    "Relation": ".core",
    "Module": ".core",
    "Workflow": ".core",
    "ProvenanceView": ".core",
    "SecureViewSolution": ".core",
    "SecureViewProblem": ".core",
    "SetRequirement": ".core",
    "SetRequirementList": ".core",
    "CardinalityRequirement": ".core",
    "CardinalityRequirementList": ".core",
    "is_standalone_private": ".core",
    "standalone_privacy_level": ".core",
    "is_workflow_private": ".core",
    "workflow_privacy_level": ".core",
    "is_gamma_private_workflow": ".core",
    "minimum_cost_safe_subset": ".core",
    "assemble_all_private_solution": ".core",
    "assemble_general_solution": ".core",
    # privacy kernel (bit-compiled analysis backend)
    "CompiledModule": ".kernel",
    "CompiledWorkflow": ".kernel",
    "compile_module": ".kernel",
    "compile_workflow": ".kernel",
    "get_default_backend": ".kernel",
    "set_default_backend": ".kernel",
    # engine (the canonical solve surface)
    "DerivationCache": ".engine",
    "Planner": ".engine",
    "PrivacyCertificate": ".engine",
    "SolveRequest": ".engine",
    "SolveResult": ".engine",
    "SolverRegistry": ".engine",
    "default_registry": ".engine",
    "register_solver": ".engine",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        message = f"module {__name__!r} has no attribute {name!r}"
        raise AttributeError(message) from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
