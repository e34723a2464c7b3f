"""Incremental re-solve: edit one module, pay for one module.

PR 4 makes derivation module-granular: requirement lists, packed module
relations and privacy-level memos are keyed by *module* content fingerprint
and shared across every workflow containing the module.  This benchmark
measures the headline consequence on an edit-chain (a *workflow family*:
each variant re-rolls one module of the previous one, everything else
shared) and records it in ``BENCH_incremental.json``:

* **cold** — every variant solved with a fresh :class:`DerivationCache`:
  each solve derives *all* its modules from scratch.  This is the pre-PR-4
  execution model, where any edit invalidated the whole workflow entry.
* **incremental** — the same variants solved through ``Planner.evolve``
  over one shared cache: each re-solve derives exactly the one edited
  module and reuses the rest (asserted via
  ``CacheStats.rederived_modules`` / ``reused_modules``).

The acceptance criterion is :data:`SPEEDUP_FLOOR`: the mean edit-one-module
re-solve must beat the mean cold variant solve at least 2x (with one edited
module out of :data:`N_MODULES`, the ideal factor is ~``N_MODULES``x).

A second phase sweeps the whole family through ``run_sweep`` and asserts
the shared-module chunking pays each *distinct* module derivation exactly
once across the entire grid.

Run standalone (used by the CI smoke step) with::

    python benchmarks/bench_incremental.py --tiny
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import Workflow
from repro.engine import DerivationCache, Planner, SweepInstance, SweepSpec, run_sweep
from repro.kernel import clear_compile_cache
from repro.workloads import random_total_module, workflow_to_dict

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_incremental.json"

#: Acceptance floor: an edit-one-module re-solve must beat a cold solve.
SPEEDUP_FLOOR = 2.0

#: Modules per workflow; an edit touches one, so ~N_MODULES is the ideal win.
N_MODULES = 4



def build_family(tiny: bool, n_edits: int) -> tuple[list[Workflow], list[str]]:
    """``[base, v1, ..., v_n]`` where variant i re-rolls one module of i-1.

    Modules are disjoint high-arity random tables (the derivation-dominated
    regime of bench_kernel/bench_sweep); every edit swaps one module's table
    for a fresh random one, which changes exactly that module's fingerprint.
    Returns the family and the per-edit module names.
    """
    # Tiny still needs derivation to dominate the fixed per-solve work,
    # or the edit-one-module win drowns in overhead (the CI gate measures it).
    shape = (6, 4) if tiny else (6, 5)
    modules = [
        random_total_module(100 + index, *shape, f"m{index}", f"s{index}_")
        for index in range(N_MODULES)
    ]
    family = [Workflow(list(modules), name="family-base")]
    edited: list[str] = []
    for step in range(1, n_edits + 1):
        slot = (step - 1) % N_MODULES
        name = f"m{slot}"
        modules[slot] = random_total_module(
            1000 * step + slot, *shape, name, f"s{slot}_"
        )
        family.append(Workflow(list(modules), name=f"family-edit{step}"))
        edited.append(name)
    return family, edited


def run_benchmark(tiny: bool = False) -> dict:
    n_edits = 2 if tiny else 4
    family, edited = build_family(tiny, n_edits)
    gamma, kind = 2, "cardinality"

    # -- cold: every variant pays full derivation in a fresh cache ----------
    # Each cold solve also gets module objects of its own and an empty kernel
    # compile memo: fingerprints and packed privacy levels are memoized per
    # module object, so sharing objects across variants would let a "cold"
    # solve reuse the previous variant's work.
    cold_seconds: list[float] = []
    cold_costs: list[float] = []
    for index in range(len(family)):
        workflow = build_family(tiny, n_edits)[0][index]
        clear_compile_cache()
        cache = DerivationCache()
        start = time.perf_counter()
        result = Planner(workflow, gamma, kind=kind, cache=cache).solve(solver="auto")
        cold_seconds.append(time.perf_counter() - start)
        cold_costs.append(result.cost)
        assert cache.stats().rederived_modules == N_MODULES

    # -- incremental: evolve through the edit-chain over one shared cache ---
    planner = Planner(family[0], gamma, kind=kind)
    base_result = planner.solve(solver="auto")
    assert base_result.cost == cold_costs[0]
    evolve_seconds: list[float] = []
    for step, workflow in enumerate(family[1:], start=1):
        name = edited[step - 1]
        before = planner.cache.stats()
        start = time.perf_counter()
        planner = planner.evolve(replace={name: workflow.module(name)})
        result = planner.solve(solver="auto")
        evolve_seconds.append(time.perf_counter() - start)
        delta = planner.cache.stats().delta(before)
        # The edit re-derives exactly one module and reuses the rest.
        assert delta.rederived_modules == 1, delta
        assert delta.reused_modules == N_MODULES - 1, delta
        # Module-granular assembly must not change a single answer.
        assert result.cost == cold_costs[step], (result.cost, cold_costs[step])

    cold_mean = sum(cold_seconds[1:]) / len(cold_seconds[1:])
    evolve_mean = sum(evolve_seconds) / len(evolve_seconds)
    speedup = cold_mean / evolve_mean if evolve_mean > 0 else float("inf")

    # -- family sweep: each distinct module derived once across the grid ----
    spec = SweepSpec(
        instances=tuple(
            SweepInstance(workflow.name, "workflow", workflow_to_dict(workflow))
            for workflow in family
        ),
        gammas=(gamma,),
        kinds=(kind,),
        solvers=("auto",),
        seeds=(0,),
    )
    report = run_sweep(spec, n_jobs=1)
    distinct_modules = N_MODULES + n_edits
    assert report.errors == 0
    assert report.stats["rederived_modules"] == distinct_modules, report.stats
    assert report.stats["reused_modules"] == len(family) * N_MODULES - distinct_modules

    record = {
        "benchmark": "bench_incremental",
        "tiny": tiny,
        "speedup_floor": SPEEDUP_FLOOR,
        "modules_per_workflow": N_MODULES,
        "edits": n_edits,
        "cold_seconds_per_variant": cold_mean,
        "evolve_seconds_per_edit": evolve_mean,
        "speedup_incremental": speedup,
        "sweep_distinct_module_derivations": report.stats["rederived_modules"],
        "sweep_reused_module_lookups": report.stats["reused_modules"],
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_record(record)
    return record


def write_record(record: dict, path: Path = RECORD_PATH) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pytest entry points (the benchmark harness)
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation without pytest
    pytest = None

if pytest is not None:

    @pytest.mark.experiment("incremental")
    def test_bench_incremental_resolve_speedup(report_sink):
        """An edit-one-module re-solve beats a cold variant solve >= 2x."""
        from repro.analysis import format_table

        record = run_benchmark(tiny=False)
        report_sink.append(
            (
                "Incremental re-solve: cold variant solves vs Planner.evolve "
                f"(record: {RECORD_PATH.name})",
                format_table(
                    ["path", "seconds/solve", "speedup"],
                    [
                        ["cold (fresh cache per variant)",
                         f"{record['cold_seconds_per_variant']:.3f}", "1.0x"],
                        ["incremental (evolve, shared cache)",
                         f"{record['evolve_seconds_per_edit']:.3f}",
                         f"{record['speedup_incremental']:.1f}x"],
                    ],
                ),
            )
        )
        assert record["speedup_incremental"] >= SPEEDUP_FLOOR, (
            f"incremental re-solve speedup {record['speedup_incremental']:.2f}x "
            f"is below the {SPEEDUP_FLOOR}x floor"
        )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    record = run_benchmark(tiny=tiny)
    print(
        f"cold: {record['cold_seconds_per_variant']:.3f}s per variant "
        f"({record['modules_per_workflow']} modules each)"
    )
    print(
        f"incremental: {record['evolve_seconds_per_edit']:.3f}s per edit "
        f"({record['speedup_incremental']:.1f}x)"
    )
    print(
        f"family sweep: {record['sweep_distinct_module_derivations']} distinct "
        f"module derivations, {record['sweep_reused_module_lookups']} reused lookups"
    )
    print(f"record written to {RECORD_PATH}")
    if not tiny and record["speedup_incremental"] < SPEEDUP_FLOOR:
        print(f"FAIL: incremental re-solve below {SPEEDUP_FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
