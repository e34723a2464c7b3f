"""The repository benchmark: fleet-served ``/v1`` traffic, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload cold_distinct --seed 1 --seconds 24 --trace 0

It starts the shipped deployment (``repro fleet --replicas 2 --store <fresh
dir> --port 0``), drives it with two closed-loop clients for ``--seconds``,
checks every answer, and prints a report followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` spends half of ``--seconds``
untraced, then replays the same seeded inputs for the other half on a fresh
fleet with spans, and reports the per-layer metrics (see
``perfbench/README.md``).  It exits non-zero when an answer, a workload
invariant or a consistency check fails.  Scratch files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Fleet set-ups per run.  ``setup_s`` is their minimum: set-up does not
#: depend on the seed, so its spread is host noise, which only ever adds.
SETUPS = 5
#: cold_distinct answers re-solved in process after the timed phase.
RESOLVE_SAMPLE = 4
#: Little's law must hold this closely (throughput x mean latency vs clients).
LITTLE_TOLERANCE = 0.10

def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_distinct", "hot_repeat", "edit_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _context(args: argparse.Namespace, workload: Any) -> dict[str, Any]:
    versions = {"python": platform.python_version()}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the benchmark runs from a plain source tree.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    from deploy import REPLICAS
    from inputs import CLIENTS

    return {
        "workload": args.workload,
        "label": workload.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "clients": CLIENTS,
        "replicas": REPLICAS,
        "load_model": "closed loop",
        "versions": versions,
        "commit": commit,
    }


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        from inputs import WORKLOADS

        self.args = args
        self.workdir = SCRATCH / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.workload = WORKLOADS[args.workload](args.seed, args.seconds)
        self.errors: list[str] = []
        self.fleets = 0

    def fleet(self) -> Any:
        from deploy import Fleet

        self.fleets += 1
        tag = f"fleet{self.fleets}"
        return Fleet(SRC, self.workdir / f"{tag}-store",
                     self.workdir / f"{tag}.log").start()

    # -- one timed phase --------------------------------------------------------
    def warm_up(self, fleet: Any) -> None:
        """Unclocked: hot_repeat's instances answered on every replica;
        edit_sweep's chain bases derived once, through the front."""
        from inputs import answer_of
        from repro.service import ServiceClient

        workload = self.workload
        if workload.name == "edit_sweep":
            client = ServiceClient(fleet.url, timeout=300.0)
            try:
                for body in workload.warmup:
                    reply = client.request("POST", workload.route, body)
                    if reply.get("errors") != 0:
                        self.errors.append(
                            f"warm-up: chain bases answered {reply.get('errors')}"
                            " error cell(s)")
            finally:
                client.close()
            return
        for index, body in enumerate(workload.warmup):
            for url in fleet.replica_urls():
                client = ServiceClient(url, timeout=300.0)
                try:
                    answer = answer_of(client.request("POST", workload.route, body))
                finally:
                    client.close()
                expected = workload.expected.setdefault(index, answer)
                if answer != expected:
                    self.errors.append(
                        f"warm-up: instance {index} differs between replicas")

    def timed_phase(self, fleet: Any, make_sender: Any,
                    seconds: float) -> dict[str, Any]:
        from deploy import counter_delta
        from inputs import CLIENTS
        from loadgen import run_closed_loop

        self.warm_up(fleet)
        before = fleet.metrics()
        load = self.exhaustion(run_closed_loop(
            self.workload, make_sender, seconds, CLIENTS))
        uss = fleet.uss_mib()
        after = fleet.metrics()

        def delta(path: str) -> float:
            return counter_delta(after, before, path)

        attempted = len(load.samples)
        cells = attempted * self.workload.cells_per_request
        reused = delta("totals.cache.reused_modules")
        rederived = delta("totals.cache.rederived_modules")
        hits = delta("totals.result_hits.memory") + delta("totals.result_hits.store")
        counts = {
            "service.result_hit_share": hits / cells if cells else 0.0,
            "service.coalesced": delta("totals.coalesced"),
            "cache.derivation_misses": delta("totals.cache.derivation_misses"),
            "cache.rederived_modules": rederived,
            "cache.module_reuse_share": (
                reused / (reused + rederived) if reused + rederived else 0.0),
            "kernel.batched_passes": delta("totals.cache.batched_passes"),
            "kernel.batched_masks": delta("totals.cache.batched_masks"),
            "kernel.scalar_masks": delta("totals.cache.scalar_masks"),
            "store.hits": delta("totals.store.hits"),
            "store.misses": delta("totals.store.misses"),
            "fleet.failovers": delta("fleet.failovers"),
        }
        from repro.engine.store import DerivationStore

        counts["store.disk_bytes"] = float(
            DerivationStore(fleet.store).disk_stats()["bytes"])
        return {"load": load, "uss_mib": uss, "counts": counts,
                "attempted": attempted}

    # -- checks -----------------------------------------------------------------
    def invariants(self, phase: dict[str, Any]) -> dict[str, bool]:
        counts = phase["counts"]
        requests = phase["attempted"]
        name = self.workload.name
        if name == "cold_distinct":
            checks = {
                "service.coalesced == 0": counts["service.coalesced"] == 0,
                "service.result_hit_share == 0":
                    counts["service.result_hit_share"] == 0,
                "cache.derivation_misses == requests":
                    counts["cache.derivation_misses"] == requests,
                "cache.rederived_modules == requests x modules":
                    counts["cache.rederived_modules"]
                    == requests * self.workload.modules_per_request,
            }
        elif name == "hot_repeat":
            checks = {
                "cache.derivation_misses == 0":
                    counts["cache.derivation_misses"] == 0,
                "service.result_hit_share == 1.0":
                    counts["service.result_hit_share"] == 1.0,
            }
        else:
            checks = {
                "cache.module_reuse_share > 0":
                    counts["cache.module_reuse_share"] > 0,
            }
        for label, held in checks.items():
            if not held:
                self.errors.append(f"invariant failed: {label} ({counts})")
        return checks

    def resolve_sample(self) -> int:
        """cold_distinct: re-solve a seeded sample in process; mismatches."""
        if self.workload.name != "cold_distinct":
            return 0
        from repro import Planner
        from repro.workloads import workflow_from_dict

        answered = self.workload.answers
        rng = random.Random(f"resolve:{self.args.seed}")
        picked = rng.sample(answered, min(RESOLVE_SAMPLE, len(answered)))
        mismatches = 0
        for body, answer in picked:
            planner = Planner(workflow_from_dict(body["workflow"]), body["gamma"],
                              kind=body["kind"])
            result = planner.solve(solver=body["solver"], seed=body["seed"])
            local = {"cost": result.cost,
                     "hidden_attributes": sorted(result.hidden_attributes)}
            remote = {"cost": answer["cost"],
                      "hidden_attributes": answer["hidden_attributes"]}
            if local != remote:
                mismatches += 1
                self.errors.append(
                    f"re-solve mismatch for {body['workflow']['name']}: "
                    f"in process {local}, served {remote}")
        return mismatches

    def exhaustion(self, load: Any) -> Any:
        """A client that ran out of inputs cut its timed phase short."""
        if load.exhausted:
            self.errors.append(
                "inputs exhausted before the deadline: raise CEILING_RATE "
                f"for {self.workload.name} in perfbench/inputs.py")
        return load

    def littles_law(self, load: Any) -> float:
        ratio = load.littles_law_ratio()
        if abs(ratio - 1.0) > LITTLE_TOLERANCE:
            self.errors.append(
                f"Little's law off by more than {LITTLE_TOLERANCE:.0%}: "
                f"throughput x mean latency / clients = {ratio:.3f}")
        return ratio


def _latency_block(load: Any) -> dict[str, Any]:
    from loadgen import beyond, percentile

    latencies = load.latencies_ms
    return {
        "request_p50_ms": percentile(latencies, 0.5),
        "request_p95_ms": percentile(latencies, 0.95),
        "requests_per_s": load.requests_per_s,
        "samples": len(latencies),
        "beyond_p95": beyond(latencies, 0.95),
    }


def _emit(report: dict[str, Any], correct: bool, attempted: int, failed: int,
          metrics: dict[str, tuple[float, str]], result_path: Path,
          load: Any) -> None:
    for key, value in report.items():
        print(f"{key}: {json.dumps(value, sort_keys=True, default=str)}")
    # The result file also keeps every timed request of the untraced phase:
    # [client, seconds since the clock started, latency ms, error or null].
    requests = [
        [sample.client, sample.start - load.started, sample.ms, sample.error]
        for sample in load.samples
    ]
    result_path.write_text(json.dumps(
        {"report": report, "correct": correct, "attempted": attempted,
         "failed": failed, "metrics": metrics, "requests": requests},
        default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def run_untraced(run: Run) -> int:
    from loadgen import untraced_sender

    setups = []
    fleet = None
    for index in range(SETUPS):
        fleet = run.fleet()
        setups.append(fleet.setup_s)
        if index < SETUPS - 1:
            fleet.kill()  # it served nothing, so there is nothing to drain
    assert fleet is not None
    try:
        phase = run.timed_phase(fleet, untraced_sender(fleet.url),
                                run.args.seconds)
    finally:
        fleet.stop()
    load = phase["load"]
    invariants = run.invariants(phase)
    mismatches = run.resolve_sample()
    little = run.littles_law(load)
    latency = _latency_block(load)
    failed = load.failed + mismatches
    attempted = max(1, phase["attempted"])
    metrics = {
        "setup_s": (min(setups), "s"),
        "request_p50_ms": (latency["request_p50_ms"], "ms"),
        "request_p95_ms": (latency["request_p95_ms"], "ms"),
        "requests_per_s": (latency["requests_per_s"], "1/s"),
        "server_uss_mib": (phase["uss_mib"], "MiB"),
    }
    report = {
        "context": _context(run.args, run.workload),
        "samples": {
            "setup_s": len(setups),
            "setup_s_all": setups,
            "request_ms": latency["samples"],
            "beyond_p95": latency["beyond_p95"],
            "p95_flag": ("ok" if latency["beyond_p95"] >= 10
                         else "fewer than 10 samples beyond p95"),
        },
        "failed_share": failed / attempted,
        "littles_law_ratio": little,
        "invariants": invariants,
        "counts": phase["counts"],
        "errors": run.errors[:20],
    }
    correct = not run.errors and failed == 0
    _emit(report, correct, phase["attempted"], failed, metrics,
          SCRATCH / f"result-{run.args.workload}-s{run.args.seed}-trace0.json",
          load)
    return 0 if correct else 1


def run_traced(run: Run) -> int:
    from inputs import CLIENTS
    from layers import BLOCKING, LAYER_METRICS, Tracer, probe_layers
    from loadgen import TracedSender, run_closed_loop, untraced_sender

    # The measured time is split in two: an untraced reference phase
    # (counts, Little's law, untraced p50), then the traced replay.
    seconds = run.args.seconds / 2
    fleet = run.fleet()
    ready = list(fleet.replica_ready_s)
    try:
        phase = run.timed_phase(fleet, untraced_sender(fleet.url), seconds)
    finally:
        fleet.stop()
    load = phase["load"]
    invariants = run.invariants(phase)
    mismatches = run.resolve_sample()
    little = run.littles_law(load)
    untraced = _latency_block(load)

    # Traced replay of the same seeded inputs on a fresh fleet and store.
    tracer = Tracer()
    fleet = run.fleet()
    ready += fleet.replica_ready_s
    try:
        run.workload.answers.clear()
        run.warm_up(fleet)
        traced_load = run.exhaustion(run_closed_loop(
            run.workload, lambda: TracedSender(fleet.url, tracer),
            seconds, CLIENTS))
        probes, notes = probe_layers(
            run.workload, fleet.url, fleet.replica_urls(), tracer, run.workdir,
            run.args.seed, SRC)
    finally:
        fleet.stop()
    traced = _latency_block(traced_load)
    spans_path = SCRATCH / f"spans-{run.args.workload}-s{run.args.seed}.json"
    tracer.write(spans_path)

    values: dict[str, float] = dict(phase["counts"])
    values.update(probes)
    values["fleet.replica_ready_s"] = statistics.median(ready)
    values["client.encode_ms"] = statistics.median(
        tracer.durations("client.encode"))
    values["client.decode_ms"] = statistics.median(
        tracer.durations("client.decode"))
    values["breakdown.littles_law_ratio"] = little
    values["breakdown.traced_p50_ms"] = traced["request_p50_ms"]
    values["breakdown.tracing_overhead_ms"] = (
        traced["request_p50_ms"] - untraced["request_p50_ms"])
    values["breakdown.unexplained_ms"] = traced["request_p50_ms"] - sum(
        values[name] for name in BLOCKING)
    missing = sorted(set(LAYER_METRICS) - set(values))
    if missing:
        run.errors.append(f"per-layer metrics not measured: {missing}")
    failed = load.failed + traced_load.failed + mismatches
    attempted = max(1, phase["attempted"] + len(traced_load.samples))
    metrics = {
        name: (values[name], unit)
        for name, (unit, _better, _target) in LAYER_METRICS.items()
        if name in values
    }
    report = {
        "context": _context(run.args, run.workload),
        "untraced": untraced,
        "traced": traced,
        "blocking_layers_ms": {name: values[name] for name in BLOCKING},
        "should_move": {name: target
                        for name, (_unit, _better, target) in LAYER_METRICS.items()},
        "probe_notes": notes,
        "invariants": invariants,
        "failed_share": failed / attempted,
        "spans": {"file": str(spans_path.relative_to(ROOT)),
                  "count": len(tracer.spans)},
        "errors": run.errors[:20],
    }
    correct = not run.errors and failed == 0
    _emit(report, correct, phase["attempted"] + len(traced_load.samples),
          failed, metrics,
          SCRATCH / f"result-{run.args.workload}-s{run.args.seed}-trace1.json",
          load)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args)
    try:
        if args.trace:
            return run_traced(run)
        return run_untraced(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
