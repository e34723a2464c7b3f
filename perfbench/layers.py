"""Per-layer measurements: spans recorded from outside the program.

The traced run replays the untraced run's seeded inputs.  Spans are taken
around calls into each layer's public functions (and around the wire
exchange), held in memory, and written out when the run ends.  Nothing in
the program itself is instrumented.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro import Planner
from repro.engine import DerivationCache
from repro.engine.store import DerivationStore, ResultKey
from repro.kernel import clear_compile_cache, compile_module, resolve_backend
from repro.service import SolveService
from repro.service.jobs import InstanceCache, parse_solve_payload
from repro.workloads import workflow_from_dict
from repro.workloads.fingerprint import module_fingerprint, workflow_fingerprint

from inputs import Workload, edit_chain
from loadgen import Exchange, beyond, percentile

#: Per-layer metrics: name -> (unit, better, the end-to-end metric it should
#: move, on which workloads).  BENCHMARK.json lists the same names.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "fleet.proxy_ms_p50": ("ms", "lower", "request_p50_ms on hot_repeat"),
    "fleet.proxy_ms_p95": ("ms", "lower", "request_p95_ms on hot_repeat"),
    "fleet.failovers": ("count", "lower", "failed_share on all workloads"),
    "fleet.replica_ready_s": ("s", "lower", "setup_s on all workloads"),
    "client.encode_ms": ("ms", "lower", "request_p50_ms on hot_repeat"),
    "client.decode_ms": ("ms", "lower", "request_p50_ms on hot_repeat"),
    "server.http_overhead_ms": (
        "ms", "lower", "request_p50_ms on hot_repeat, edit_sweep"),
    "jobs.parse_ms_cold": ("ms", "lower", "request_p50_ms on cold_distinct"),
    "jobs.parse_ms_warm": (
        "ms", "lower", "request_p50_ms on hot_repeat; edit_sweep per cell"),
    "serialization.decode_ms": (
        "ms", "lower", "request_p50_ms on cold_distinct"),
    "fingerprint.workflow_ms": (
        "ms", "lower", "request_p50_ms on cold_distinct, edit_sweep"),
    "service.handler_ms": (
        "ms", "lower", "request_p50_ms on every workload"),
    "service.submit_hit_ms": ("ms", "lower", "request_p50_ms on hot_repeat"),
    "service.result_hit_share": (
        "ratio", "higher",
        "request_p50_ms on hot_repeat (1.0); cold_distinct (0)"),
    "service.coalesced": ("count", "higher", "cold_distinct (0)"),
    "service.sweep_ms": ("ms", "lower", "request_p50_ms on edit_sweep"),
    "cache.requirements_ms_p50": (
        "ms", "lower", "request_p50_ms, requests_per_s on cold_distinct"),
    "cache.derivation_misses": (
        "count", "lower", "requests_per_s on cold_distinct; hot_repeat (0)"),
    "cache.rederived_modules": (
        "count", "lower", "requests_per_s on cold_distinct"),
    "cache.module_reuse_share": (
        "ratio", "higher", "request_p50_ms on edit_sweep (> 0)"),
    "kernel.compile_ms": ("ms", "lower", "requests_per_s on cold_distinct"),
    "kernel.sweep_ms": ("ms", "lower", "requests_per_s on cold_distinct"),
    "kernel.batched_passes": ("count", "lower", "requests_per_s on cold_distinct"),
    "kernel.batched_masks": ("count", "higher", "requests_per_s on cold_distinct"),
    "kernel.scalar_masks": ("count", "lower", "requests_per_s on cold_distinct"),
    "optim.solve_ms": (
        "ms", "lower", "request_p50_ms on cold_distinct, edit_sweep"),
    "planner.verify_ms": ("ms", "lower", "request_p50_ms on edit_sweep"),
    "store.save_result_ms": (
        "ms", "lower", "request_p50_ms on edit_sweep, cold_distinct"),
    "store.load_result_ms": (
        "ms", "lower", "request_p50_ms on edit_sweep, cold_distinct"),
    "store.load_module_requirement_ms": (
        "ms", "lower", "request_p50_ms on edit_sweep, cold_distinct"),
    "store.hits": ("count", "higher", "request_p50_ms on edit_sweep"),
    "store.misses": ("count", "lower", "request_p50_ms on edit_sweep"),
    "store.disk_bytes": ("bytes", "lower", "setup_s only if warm-up is added"),
    "cli.import_s": ("s", "lower", "setup_s on all workloads"),
    "breakdown.littles_law_ratio": (
        "ratio", "higher", "consistency: 1.0 +- 0.10 on every workload"),
    "breakdown.traced_p50_ms": ("ms", "lower", "request_p50_ms, traced"),
    "breakdown.tracing_overhead_ms": (
        "ms", "lower", "traced minus untraced request_p50_ms"),
    "breakdown.unexplained_ms": (
        "ms", "lower", "traced p50 minus summed blocking-layer p50s"),
}

#: Layers whose self times add up to one request's latency, in order.
BLOCKING = ("client.encode_ms", "fleet.proxy_ms_p50", "server.http_overhead_ms",
            "service.handler_ms", "client.decode_ms")

#: Samples each in-process probe takes per workload.  Too few for a p95,
#: so those probes report their p50 only.
PROBE_SAMPLES = {"cold_distinct": 6, "hot_repeat": 16, "edit_sweep": 12}
#: Paired front/direct exchanges per run, spread over the sampled bodies:
#: enough that ``fleet.proxy_ms_p95`` has at least 10 samples beyond it.
WIRE_PAIRS = 220
IMPORT_REPEATS = 3


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    id: int
    name: str
    request: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Spans kept in memory; thread-safe; written once at the end."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self.spans: list[Span] = []

    def start(self, name: str, parent: Span | None = None) -> Span:
        with self._lock:
            span_id = next(self._ids)
            request = (
                parent.request if parent is not None
                else f"q{next(self._requests)}"
            )
        span = Span(span_id, name, request,
                    parent.id if parent is not None else None,
                    time.perf_counter())
        return span

    def end(self, span: Span) -> Span:
        span.end = time.perf_counter()
        with self._lock:
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: Span | None = None) -> Iterator[Span]:
        opened = self.start(name, parent)
        try:
            yield opened
        finally:
            self.end(opened)

    def durations(self, name: str) -> list[float]:
        return [span.ms for span in self.spans if span.name == name]

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its children cover (ms)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.id] = (span.end - span.start - covered) * 1000.0
        return result

    def write(self, path: Path) -> None:
        own = self.self_times()
        origin = min((span.start for span in self.spans), default=0.0)
        path.write_text(json.dumps(
            [
                {
                    "id": span.id,
                    "name": span.name,
                    "request": span.request,
                    "parent": span.parent,
                    "start_ms": (span.start - origin) * 1000.0,
                    "end_ms": (span.end - origin) * 1000.0,
                    "self_ms": own[span.id],
                }
                for span in sorted(self.spans, key=lambda s: s.start)
            ],
            indent=0,
        ))


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _cells(workload: Workload, body: dict[str, Any]) -> list[dict[str, Any]]:
    """The per-cell ``/solve``-shaped bodies a request fans out to."""
    if workload.route == "/solve":
        return [body]
    return [
        {"workflow": payload, "gamma": gamma, "kind": kind, "solver": solver,
         "seed": seed, "verify": body.get("verify", False)}
        for payload in body["workflows"]
        for gamma in body["gammas"]
        for kind in body["kinds"]
        for solver in body["solvers"]
        for seed in body["seeds"]
    ]


def _sample_bodies(workload: Workload) -> tuple[list[dict[str, Any]],
                                                list[dict[str, Any]]]:
    """``(prefix, sample)``: requests replayed untimed to reach the state the
    timed phase runs in, then the requests the probes time."""
    count = PROBE_SAMPLES[workload.name]
    if workload.name == "hot_repeat":
        return [], list(workload.warmup[:count])
    if workload.name == "edit_sweep":
        # Client 0's chain bases first, so the sampled edits find the
        # chains' other modules already derived, as in the timed phase.
        return [workload.warmup[0]], workload.bodies(0, count)
    return [], workload.bodies(0, count)


def _reference_verify_workflows(seed: int, count: int) -> list[Any]:
    """Edit-chain variants: the inputs verification is measured on when a
    workload's own instances are beyond the world-enumeration limit."""
    return [edit_chain(seed, 0, chain, 1)[1] for chain in range(count)]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def probe_layers(workload: Workload, front_url: str, replica_urls: list[str],
                 tracer: Tracer, scratch: Path, seed: int,
                 src_root: Path) -> tuple[dict[str, float], dict[str, Any]]:
    """In-process and paired-wire probes on the workload's own inputs.

    Returns the timing metrics and notes (sample counts, thin percentiles,
    which input a probe ran on).
    """
    prefix, bodies = _sample_bodies(workload)
    notes: dict[str, Any] = {"samples": {}, "thin": [], "inputs": {}}
    values: dict[str, list[float]] = {name: [] for name in (
        "serialization.decode_ms", "fingerprint.workflow_ms",
        "jobs.parse_ms_cold", "jobs.parse_ms_warm", "cache.requirements_ms",
        "kernel.compile_ms", "kernel.sweep_ms", "optim.solve_ms",
        "planner.verify_ms", "store.save_result_ms", "store.load_result_ms",
        "store.load_module_requirement_ms", "service.handler_ms",
        "service.handler_hit_ms", "service.submit_hit_ms", "service.sweep_ms",
        "fleet.proxy_ms", "server.http_overhead_ms")}

    def timed(name: str, parent: Span, fn: Any, *args: Any, **kw: Any) -> Any:
        with tracer.span(name, parent=parent) as span:
            result = fn(*args, **kw)
        values[name].append(span.ms)
        return result

    probe_store = DerivationStore(scratch / "probe-store")
    backend = resolve_backend(None)
    # -- codec, fingerprint, derivation, kernel, solver and store layers ------
    for body in bodies:
        for cell in _cells(workload, body):
            root = tracer.start("probe.cell")
            payload = cell["workflow"]
            gamma, kind = cell["gamma"], cell.get("kind", "set")
            decoded = timed("serialization.decode_ms", root,
                            workflow_from_dict, payload)
            timed("fingerprint.workflow_ms", root, workflow_fingerprint, decoded)
            instances = InstanceCache()
            timed("jobs.parse_ms_cold", root, parse_solve_payload, cell, instances)
            timed("jobs.parse_ms_warm", root, parse_solve_payload, cell, instances)
            fresh = workflow_from_dict(payload)
            cache = DerivationCache()
            timed("cache.requirements_ms", root, cache.requirements,
                  fresh, gamma, kind)
            for module in decoded.modules:
                clear_compile_cache()  # the compile memo must not answer
                compiled = timed("kernel.compile_ms", root, compile_module, module)
                if kind == "set":
                    timed("kernel.sweep_ms", root,
                          compiled.enumerate_safe_hidden_subsets, gamma)
                else:
                    timed("kernel.sweep_ms", root,
                          compiled.safe_cardinality_pairs, gamma)
            planner = Planner(fresh, gamma, kind=kind, cache=cache)
            result = planner.solve(solver=cell["solver"], seed=cell.get("seed"))
            values["optim.solve_ms"].append(result.seconds * 1000.0)
            # Store layer: a scratch store this process owns.
            stored = DerivationCache(store=probe_store)
            stored.requirements(decoded, gamma, kind)
            fingerprint = workflow_fingerprint(fresh)
            key = ResultKey(backend, gamma, kind, cell["solver"], cell.get("seed"),
                            bool(cell.get("verify")))
            record = {"cost": result.cost,
                      "hidden_attributes": sorted(result.hidden_attributes)}
            timed("store.save_result_ms", root, probe_store.save_result,
                  fingerprint, key, record)
            timed("store.load_result_ms", root, probe_store.load_result,
                  fingerprint, key)
            for module in fresh.modules:
                timed("store.load_module_requirement_ms", root,
                      probe_store.load_module_requirement,
                      module_fingerprint(module), gamma, kind, backend)
            tracer.end(root)

    # -- verification ---------------------------------------------------------
    if workload.name == "edit_sweep":
        verify_on = [workflow_from_dict(cell["workflow"])
                     for body in bodies for cell in _cells(workload, body)[:1]]
        notes["inputs"]["planner.verify_ms"] = "own"
    else:
        verify_on = _reference_verify_workflows(seed, PROBE_SAMPLES["edit_sweep"])
        notes["inputs"]["planner.verify_ms"] = "edit_sweep chain of this seed"
    for workflow in verify_on:
        planner = Planner(workflow, 2, kind="set", cache=DerivationCache())
        solved = planner.solve(solver="set_lp")
        root = tracer.start("probe.verify")
        timed("planner.verify_ms", root, planner.verify, solved.solution)
        tracer.end(root)

    # -- the service core, in process -----------------------------------------
    def fresh_service(store_dir: str | None) -> SolveService:
        return SolveService(store=store_dir, workers=2, maintenance_interval=None)

    handler = "sweep_payload" if workload.route == "/sweep" else "solve_payload"
    service = fresh_service(str(scratch / "inproc-store"))
    try:
        for body in prefix:
            getattr(service, handler)(body)
        if workload.name == "hot_repeat":  # the fleet answered these already
            for body in bodies:
                getattr(service, handler)(body)
        for body in bodies:
            root = tracer.start("probe.service")
            timed("service.handler_ms", root, getattr(service, handler), body)
            tracer.end(root)
        for body in bodies:
            root = tracer.start("probe.service")
            timed("service.handler_hit_ms", root, getattr(service, handler), body)
            for cell in _cells(workload, body):
                job = parse_solve_payload(cell, service.instances)
                timed("service.submit_hit_ms", root, service.submit, job)
            tracer.end(root)
    finally:
        service.drain(timeout=60)
    if workload.route == "/sweep":
        values["service.sweep_ms"] = list(values["service.handler_ms"])
        notes["inputs"]["service.sweep_ms"] = "own"
    else:
        sweeper = fresh_service(None)
        try:
            for body in bodies:
                grid = {"workflows": [body["workflow"]], "gammas": [body["gamma"]],
                        "kinds": [body["kind"]], "solvers": [body["solver"]],
                        "seeds": [body.get("seed", 0)]}
                root = tracer.start("probe.sweep")
                timed("service.sweep_ms", root, sweeper.sweep_payload, grid)
                tracer.end(root)
        finally:
            sweeper.drain(timeout=60)
        notes["inputs"]["service.sweep_ms"] = "own instance as a one-cell grid"

    # -- the wire: proxy hop and HTTP overhead, paired on result hits ---------
    path = "/v1" + workload.route
    direct = [Exchange(url) for url in replica_urls]
    front = Exchange(front_url)

    def post(exchange: Exchange, data: bytes) -> None:
        status, raw = exchange.post(path, data)
        if status != 200:
            raise RuntimeError(f"wire probe answered {status}: {raw[:200]!r}")

    pairs_per_body = -(-WIRE_PAIRS // len(bodies))
    try:
        for body, hit_ms in zip(bodies, values["service.handler_hit_ms"]):
            data = json.dumps(body, default=str).encode("utf-8")
            for exchange in direct:  # every replica answers it from memory
                post(exchange, data)
            for pair in range(pairs_per_body):
                exchange = direct[pair % len(direct)]
                root = tracer.start("probe.wire")
                with tracer.span("front.rtt", parent=root) as front_span:
                    post(front, data)
                with tracer.span("replica.rtt", parent=root) as direct_span:
                    post(exchange, data)
                tracer.end(root)
                values["fleet.proxy_ms"].append(front_span.ms - direct_span.ms)
                values["server.http_overhead_ms"].append(direct_span.ms - hit_ms)
    finally:
        front.close()
        for exchange in direct:
            exchange.close()

    # -- cli import time ------------------------------------------------------
    imports = []
    env = {**os.environ, "PYTHONPATH": str(src_root)}
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True,
                       env=env)
        imports.append(time.perf_counter() - start)

    metrics: dict[str, float] = {}
    for name, samples in values.items():
        notes["samples"][name] = len(samples)
        if name == "service.handler_hit_ms":
            continue  # the base of server.http_overhead_ms, not a metric
        if name == "cache.requirements_ms":
            metrics[f"{name}_p50"] = _p50(samples)
            continue
        if name != "fleet.proxy_ms":
            metrics[name] = _p50(samples)
            continue
        metrics[f"{name}_p50"] = _p50(samples)
        metrics[f"{name}_p95"] = percentile(samples, 0.95)
        if beyond(samples, 0.95) < 10:
            notes["thin"].append(
                f"{name}_p95 ({beyond(samples, 0.95)} of {len(samples)} "
                f"samples beyond it)")
    metrics["cli.import_s"] = statistics.median(imports)
    notes["samples"]["cli.import_s"] = len(imports)
    return metrics, notes
