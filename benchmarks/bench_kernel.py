"""Kernel: bit-compiled privacy analysis vs the brute-force reference.

The derivation step is the dominant cost of every Secure-View solve (the
paper proves it is inherently exponential in module arity), so PR 2 packs
module relations into integer bitmask tables and runs the subset sweep as
word-parallel bit operations.  This benchmark measures that win on the
requirement-derivation hot path and records it in ``BENCH_kernel.json``:

* **derivation** — ``derive_workflow_requirements`` (set and cardinality
  kinds) with ``backend="kernel"`` vs ``backend="reference"``; the kernel
  must be at least :data:`SPEEDUP_FLOOR` times faster (asserted — this is
  the acceptance criterion of the kernel PR).  Kernel timings include the
  compile step (the memo is cleared per repeat), so the measured ratio is
  the honest end-to-end one.
* **verification** — workflow out-set enumeration on a small chain,
  reported for context (wall-clock only; the packed DFS prunes dead worlds
  early but the instance is tiny, so no floor is asserted).
* **batched** — the PR 8 mask-sweep kernel: the full ``2^k`` visible-mask
  privacy-level sweep (the requirement-derivation primitive) evaluated via
  ``privacy_levels_batch`` vs one scalar relation pass per mask, on a
  relation big enough for the vectorized path (``>= NUMPY_MIN_ROWS`` rows).
  The batched path must be at least :data:`SPEEDUP_FLOOR` times faster and
  must pay O(batches) relation passes instead of O(masks) (both asserted),
  with byte-identical privacy levels.
* **minimal** — the levelwise minimal-safe-subset search (the set-
  requirement primitive) on one ``random_total_module`` vs the
  ``reference`` enumerate-and-filter, on a fresh compile per repeat.  The
  lists must be equal (asserted), and the record keeps how many visible
  masks the kernel evaluated against the ``2^n`` hidden sets the
  reference probes.  The speedup is gated by ``check_regressions.py``.

Run standalone (used by the CI smoke step) with::

    python benchmarks/bench_kernel.py --tiny
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import Workflow, workflow_out_sets
from repro.core.requirements import (
    derive_module_requirement,
    derive_workflow_requirements,
)
from repro.core.standalone import minimal_safe_hidden_subsets
from repro.kernel import CompiledModule, clear_compile_cache, sweep_batching
from repro.workloads import figure1_workflow, random_total_module

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"

#: Acceptance floor: kernel derivation must beat the reference by this factor.
SPEEDUP_FLOOR = 2.0

REPEATS = 3



def derivation_workload(tiny: bool = False) -> Workflow:
    """Disjoint high-arity modules: derivation cost, no shared wiring."""
    if tiny:
        shapes = [(3, 2), (2, 2)]
    else:
        shapes = [(4, 4), (4, 3), (3, 4)]
    modules = [
        random_total_module(11 + index, n_in, n_out, f"m{index}", f"b{index}_")
        for index, (n_in, n_out) in enumerate(shapes)
    ]
    return Workflow(modules, name="kernel-derivation-bench")


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _requirement_signature(lists) -> dict:
    """Backend-independent digest of derived requirement lists."""
    digest = {}
    for name, lst in lists.items():
        digest[name] = sorted(repr(option) for option in lst)
    return digest


def measure_derivation(tiny: bool = False, gamma: int = 2) -> dict:
    """Kernel vs reference timings for requirement derivation."""
    workflow = derivation_workload(tiny=tiny)
    results: dict = {"gamma": gamma, "modules": len(workflow)}
    for kind in ("set", "cardinality"):
        reference_lists = {}
        kernel_lists = {}

        def run_reference():
            reference_lists.update(
                derive_workflow_requirements(
                    workflow, gamma, kind=kind, backend="reference"
                )
            )

        def run_kernel():
            clear_compile_cache()  # charge the kernel for compiling, every repeat
            kernel_lists.update(
                derive_workflow_requirements(
                    workflow, gamma, kind=kind, backend="kernel"
                )
            )

        reference_seconds = _best_of(run_reference)
        kernel_seconds = _best_of(run_kernel)
        assert _requirement_signature(kernel_lists) == _requirement_signature(
            reference_lists
        ), f"backends disagree on {kind} requirement lists"
        results[kind] = {
            "reference_seconds": reference_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": reference_seconds / kernel_seconds,
        }
    return results


def measure_batched_sweep(tiny: bool = False, gamma: int = 2) -> dict:
    """Batched vs scalar mask-sweep on a numpy-eligible relation.

    The measured unit is the full ``2^k`` visible-mask privacy-level sweep —
    exactly the candidate space a requirement derivation probes — plus the
    requirement derivation itself, both on a fresh compile per repeat so the
    shared level memo never hides the relation passes.  Asserts byte-equal
    levels and the O(masks) -> O(batches) relation-pass drop.
    """
    n_inputs, n_outputs = (8, 1) if tiny else (9, 2)
    module = random_total_module(29, n_inputs, n_outputs, "mb", "bb_")
    rows = 2**n_inputs
    n_masks = 2 ** (n_inputs + n_outputs)
    masks = list(range(n_masks))
    levels: dict[str, list[int]] = {}
    stats: dict[str, dict] = {}

    def sweep(batched: bool):
        def go():
            compiled = CompiledModule(module)
            with sweep_batching(batched):
                key = "batched" if batched else "scalar"
                levels[key] = compiled.privacy_levels_batch(masks)
                stats[key] = dict(compiled.sweep_stats)

        return go

    scalar_seconds = _best_of(sweep(False))
    batched_seconds = _best_of(sweep(True))
    assert levels["batched"] == levels["scalar"], (
        "batched and scalar sweeps disagree on privacy levels"
    )
    scalar_passes = stats["scalar"]["scalar_masks"]
    batched_passes = stats["batched"]["batched_passes"]
    assert scalar_passes == n_masks, stats
    assert stats["batched"]["batched_masks"] == n_masks, stats
    assert batched_passes * 8 <= n_masks, (
        f"batched sweep paid {batched_passes} relation passes for "
        f"{n_masks} masks; expected O(batches), not O(masks)"
    )

    def derive(batched: bool):
        def go():
            clear_compile_cache()
            with sweep_batching(batched):
                for kind in ("set", "cardinality"):
                    derive_module_requirement(module, gamma, kind=kind)

        return go

    derivation_scalar = _best_of(derive(False))
    derivation_batched = _best_of(derive(True))
    return {
        "rows": rows,
        "masks": n_masks,
        "gamma": gamma,
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "scalar_passes": scalar_passes,
        "batched_passes": batched_passes,
        "derivation_scalar_seconds": derivation_scalar,
        "derivation_batched_seconds": derivation_batched,
        "derivation_speedup": derivation_scalar / derivation_batched,
    }


def measure_minimal(tiny: bool = False, gamma: int = 2) -> dict:
    """Levelwise kernel vs reference minimal safe hidden subsets.

    The kernel compiles afresh every repeat, so no privacy-level memo
    carries over; ``masks_evaluated`` counts the visible masks its sweep
    actually resolved (scalar plus batched), against the ``2^n`` hidden
    sets the reference enumerates before filtering.
    """
    n_inputs, n_outputs = (4, 3) if tiny else (7, 5)
    module = random_total_module(31, n_inputs, n_outputs, "mm", "mm_")
    lists: dict[str, list] = {}
    stats: dict[str, int] = {}

    def run_reference():
        lists["reference"] = minimal_safe_hidden_subsets(
            module, gamma, backend="reference"
        )

    def run_kernel():
        compiled = CompiledModule(module)
        lists["kernel"] = compiled.minimal_safe_hidden_subsets(gamma)
        stats.update(compiled.sweep_stats)

    reference_seconds = _best_of(run_reference)
    kernel_seconds = _best_of(run_kernel)
    assert lists["kernel"] == lists["reference"], (
        "levelwise and reference minimal safe subsets disagree"
    )
    return {
        "shape": [n_inputs, n_outputs],
        "gamma": gamma,
        "minimal_sets": len(lists["kernel"]),
        "hidden_sets": 2 ** (n_inputs + n_outputs),
        "masks_evaluated": stats["scalar_masks"] + stats["batched_masks"],
        "reference_seconds": reference_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": reference_seconds / kernel_seconds,
    }


def measure_verification() -> dict:
    """Kernel vs reference out-set enumeration on the Figure-1 workflow."""
    workflow = figure1_workflow()
    visible = {"a1", "a3", "a5"}

    def run(backend):
        def go():
            if backend == "kernel":
                clear_compile_cache()
            for module in workflow.module_names:
                workflow_out_sets(workflow, module, visible, backend=backend)

        return go

    reference_seconds = _best_of(run("reference"))
    kernel_seconds = _best_of(run("kernel"))
    kernel_sets = {
        m: workflow_out_sets(workflow, m, visible, backend="kernel")
        for m in workflow.module_names
    }
    reference_sets = {
        m: workflow_out_sets(workflow, m, visible, backend="reference")
        for m in workflow.module_names
    }
    assert kernel_sets == reference_sets, "backends disagree on out-sets"
    return {
        "reference_seconds": reference_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": reference_seconds / kernel_seconds,
    }


def write_record(record: dict, path: Path = RECORD_PATH) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def run_benchmark(tiny: bool = False) -> dict:
    record = {
        "benchmark": "bench_kernel",
        "tiny": tiny,
        "speedup_floor": SPEEDUP_FLOOR,
        "derivation": measure_derivation(tiny=tiny),
        "verification": measure_verification(),
        "batched": measure_batched_sweep(tiny=tiny),
        "minimal": measure_minimal(tiny=tiny),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_record(record)
    return record


# ---------------------------------------------------------------------------
# pytest entry points (the benchmark harness)
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone invocation without pytest
    pytest = None

if pytest is not None:

    @pytest.mark.experiment("kernel")
    def test_bench_kernel_derivation_speedup(report_sink):
        """The packed kernel derives requirements >= 2x faster than brute force."""
        from repro.analysis import format_table

        record = run_benchmark(tiny=False)
        rows = []
        for kind in ("set", "cardinality"):
            entry = record["derivation"][kind]
            rows.append(
                [
                    kind,
                    f"{entry['reference_seconds'] * 1e3:.1f}",
                    f"{entry['kernel_seconds'] * 1e3:.1f}",
                    f"{entry['speedup']:.1f}x",
                ]
            )
        verification = record["verification"]
        rows.append(
            [
                "out-set verification",
                f"{verification['reference_seconds'] * 1e3:.1f}",
                f"{verification['kernel_seconds'] * 1e3:.1f}",
                f"{verification['speedup']:.1f}x",
            ]
        )
        batched = record["batched"]
        rows.append(
            [
                f"batched sweep ({batched['masks']} masks)",
                f"{batched['scalar_seconds'] * 1e3:.1f}",
                f"{batched['batched_seconds'] * 1e3:.1f}",
                f"{batched['speedup']:.1f}x",
            ]
        )
        minimal = record["minimal"]
        rows.append(
            [
                f"minimal subsets ({minimal['masks_evaluated']}/"
                f"{minimal['hidden_sets']} masks)",
                f"{minimal['reference_seconds'] * 1e3:.1f}",
                f"{minimal['kernel_seconds'] * 1e3:.1f}",
                f"{minimal['speedup']:.1f}x",
            ]
        )
        report_sink.append(
            (
                "Kernel: bit-compiled backend vs brute-force reference "
                f"(record: {RECORD_PATH.name})",
                format_table(
                    ["path", "reference ms", "kernel ms", "speedup"], rows
                ),
            )
        )
        for kind in ("set", "cardinality"):
            assert record["derivation"][kind]["speedup"] >= SPEEDUP_FLOOR, (
                f"kernel {kind} derivation speedup "
                f"{record['derivation'][kind]['speedup']:.2f}x is below the "
                f"{SPEEDUP_FLOOR}x floor"
            )
        assert batched["speedup"] >= SPEEDUP_FLOOR, (
            f"batched mask-sweep speedup {batched['speedup']:.2f}x is below "
            f"the {SPEEDUP_FLOOR}x floor"
        )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in argv
    record = run_benchmark(tiny=tiny)
    for kind in ("set", "cardinality"):
        entry = record["derivation"][kind]
        print(
            f"derivation[{kind}]: reference {entry['reference_seconds']:.4f}s, "
            f"kernel {entry['kernel_seconds']:.4f}s "
            f"({entry['speedup']:.1f}x)"
        )
    verification = record["verification"]
    print(
        f"verification: reference {verification['reference_seconds']:.4f}s, "
        f"kernel {verification['kernel_seconds']:.4f}s "
        f"({verification['speedup']:.1f}x)"
    )
    batched = record["batched"]
    print(
        f"batched sweep: scalar {batched['scalar_seconds']:.4f}s, "
        f"batched {batched['batched_seconds']:.4f}s "
        f"({batched['speedup']:.1f}x; {batched['scalar_passes']} -> "
        f"{batched['batched_passes']} relation passes; "
        f"derivation {batched['derivation_speedup']:.1f}x)"
    )
    minimal = record["minimal"]
    print(
        f"minimal subsets: reference {minimal['reference_seconds']:.4f}s, "
        f"levelwise {minimal['kernel_seconds']:.4f}s "
        f"({minimal['speedup']:.1f}x; {minimal['masks_evaluated']} of "
        f"{minimal['hidden_sets']} masks evaluated)"
    )
    print(f"record written to {RECORD_PATH}")
    if not tiny:
        for kind in ("set", "cardinality"):
            if record["derivation"][kind]["speedup"] < SPEEDUP_FLOOR:
                print(f"FAIL: {kind} derivation below {SPEEDUP_FLOOR}x floor")
                return 1
        if batched["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: batched mask-sweep below {SPEEDUP_FLOOR}x floor")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
