"""What a long-lived service keeps per cold request, counted exactly.

A solve service sees a stream of never-seen workflows.  Everything it keeps
for them must be bounded by the cache's one bound (``MEMORY_LIMIT``), and
payload-built modules must stay table-backed: fingerprinting, store
metadata and kernel compilation read the wire table and never leave a
materialized relation behind.  These tests count objects, not RSS, so
they are exact on any machine.
"""

from __future__ import annotations

import pytest

from repro.core import Workflow, tabulate_function
from repro.engine.cache import MEMORY_LIMIT
from repro.exceptions import SchemaError
from repro.service import SolveService
from repro.workloads import (
    module_fingerprint,
    random_total_module,
    workflow_fingerprint,
)
from repro.workloads.serialization import workflow_from_dict, workflow_to_dict


def _cold_workflow(index: int) -> Workflow:
    """A never-seen two-module workflow (schema-disjoint total modules)."""
    return Workflow(
        [
            random_total_module(7000 + 2 * index, 2, 2, "m0", "a_"),
            random_total_module(7001 + 2 * index, 2, 1, "m1", "b_"),
        ],
        name=f"cold-{index}",
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A store-backed service after ``MEMORY_LIMIT + 8`` distinct cold solves."""
    service = SolveService(
        store=str(tmp_path_factory.mktemp("store")),
        workers=1,
        maintenance_interval=None,
    )
    for index in range(MEMORY_LIMIT + 8):
        record = service.solve_payload(
            {
                "workflow": workflow_to_dict(_cold_workflow(index)),
                "gamma": 2,
                "kind": "set",
                "solver": "greedy",
            }
        )
        assert record["cost"] >= 0
    yield service
    assert service.drain(timeout=30)


class TestColdRetention:
    def test_pins_stay_within_the_one_bound(self, served):
        cache = served.cache
        assert len(cache._workflows) <= MEMORY_LIMIT
        assert len(cache._fingerprints) <= MEMORY_LIMIT
        assert len(cache._compiled_modules) <= MEMORY_LIMIT
        assert not hasattr(cache, "_modules")

    def test_payload_built_modules_never_materialize_a_relation(self, served):
        cache = served.cache
        modules = [m for w in cache._workflows.values() for m in w.modules]
        modules += [compiled.module for compiled in cache._compiled_modules.values()]
        assert modules
        for module in modules:
            assert module.table is not None
            assert module._relation_cache is None
            assert module._fingerprint is not None


class TestTableBackedModules:
    def test_wire_fingerprints_equal_the_generator_originals(self):
        original = _cold_workflow(3)
        rebuilt = workflow_from_dict(workflow_to_dict(original))
        assert workflow_fingerprint(rebuilt) == workflow_fingerprint(original)
        for module in original.modules:
            clone = rebuilt.module(module.name)
            assert module_fingerprint(clone) == module_fingerprint(module)
            assert clone._relation_cache is None
            # The table is what tabulating the generator's function gives.
            assert module.table is None
            assert list(clone.table.items()) == list(
                tabulate_function(module).items()
            )

    def test_with_function_does_not_inherit_the_table(self):
        rebuilt = workflow_from_dict(workflow_to_dict(_cold_workflow(4)))
        module = rebuilt.module("m0")
        fingerprint = module_fingerprint(module)
        flipped = module.with_function(
            lambda values: {name: 1 for name in module.output_names}
        )
        assert flipped.table is None
        assert flipped._fingerprint is None
        assert flipped._relation_cache is None
        assert module_fingerprint(flipped) != fingerprint

    def test_content_preserving_clones_share_table_and_fingerprint(self):
        rebuilt = workflow_from_dict(workflow_to_dict(_cold_workflow(5)))
        module = rebuilt.module("m1")
        fingerprint = module_fingerprint(module)
        for clone in (
            module.as_private(),
            module.with_attribute_costs({"b_i0": 9.0}),
        ):
            assert clone.table is module.table
            assert clone._fingerprint == fingerprint
            assert clone._relation_cache is None

    def test_malformed_tables_are_rejected(self):
        payload = workflow_to_dict(_cold_workflow(6))
        missing = dict(payload["modules"][0])
        missing["table"] = missing["table"][1:]
        with pytest.raises(SchemaError, match="no tabulated output"):
            workflow_from_dict({"name": "bad", "modules": [missing]})
        out_of_domain = dict(payload["modules"][0])
        out_of_domain["table"] = [
            [key, [7] * len(value)] for key, value in out_of_domain["table"]
        ]
        with pytest.raises(SchemaError):
            workflow_from_dict({"name": "bad", "modules": [out_of_domain]})
