"""Closed-loop load: each client sends its next request when the last returns.

Two ways to send one request share the loop:

* ``ServiceClient`` (untraced) — the client users run, timed as one call;
* ``TracedSender`` — the same wire exchange (same headers, one keep-alive
  connection per client) split into encode / round trip / decode spans.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable

from repro.service import ServiceClient, ServiceClientError

from inputs import Workload


@dataclass
class Sample:
    client: int
    start: float
    end: float
    error: str | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class LoadResult:
    samples: list[Sample]
    started: float
    ended: float
    clients: int
    exhausted: bool

    @property
    def ok(self) -> list[Sample]:
        return [sample for sample in self.samples if sample.error is None]

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if sample.error is not None)

    @property
    def latencies_ms(self) -> list[float]:
        return sorted(sample.ms for sample in self.ok)

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    @property
    def requests_per_s(self) -> float:
        return len(self.ok) / self.elapsed if self.elapsed > 0 else 0.0

    def littles_law_ratio(self) -> float:
        """Throughput x mean latency over the client count (1.0 is exact)."""
        latencies = [sample.end - sample.start for sample in self.samples]
        if not latencies:
            return 0.0
        throughput = len(latencies) / self.elapsed
        return throughput * statistics.fmean(latencies) / self.clients


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in (0, 1)) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(values: list[float], share: float) -> int:
    """How many samples lie above the ``share`` percentile."""
    cut = percentile(values, share)
    return sum(1 for value in values if value > cut)


class Exchange:
    """POSTs of pre-encoded bodies on one keep-alive connection.

    Same headers as ``ServiceClient``; a parked socket the server closed is
    replayed once on a fresh connection, as ``ServiceClient`` does.
    """

    def __init__(self, url: str, timeout: float = 300.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        self.host = parsed.hostname
        self.port = parsed.port
        self.timeout = timeout
        self.conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def post(self, path: str, data: bytes) -> tuple[int, bytes]:
        """``(status, raw reply)``."""
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            fresh = self.conn.sock is None
            try:
                self.conn.request(
                    "POST", path, body=data,
                    headers={"Accept": "application/json",
                             "Content-Type": "application/json"},
                )
                response = self.conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError):
                self.close()
                if fresh or attempt:
                    raise
                continue
            if response.will_close:
                self.close()
            return response.status, raw
        raise AssertionError("unreachable: the second attempt returns or raises")


class TracedSender:
    """One client's request, recorded as encode / round trip / decode spans."""

    def __init__(self, url: str, tracer: Any) -> None:
        self.exchange = Exchange(url)
        self.tracer = tracer
        self.close = self.exchange.close

    def __call__(self, route: str, body: dict[str, Any]) -> dict[str, Any]:
        tracer = self.tracer
        root = tracer.start("request")
        try:
            with tracer.span("client.encode", parent=root):
                data = json.dumps(body, default=str).encode("utf-8")
            with tracer.span("front.rtt", parent=root):
                status, raw = self.exchange.post("/v1" + route, data)
            with tracer.span("client.decode", parent=root):
                reply = json.loads(raw.decode("utf-8")) if raw else {}
        finally:
            tracer.end(root)
        if status >= 400:
            raise ServiceClientError(status, f"HTTP {status}", reply)
        return reply


def run_closed_loop(
    workload: Workload,
    make_sender: Callable[[], Callable[[str, dict[str, Any]], dict[str, Any]]],
    seconds: float,
    clients: int,
) -> LoadResult:
    """Drive ``clients`` closed loops for ``seconds``; every reply is checked.

    Each run walks the workload's streams from their start, so a traced
    run replays exactly the untraced run's inputs in the same order.  A
    request started before the deadline always completes and counts.  A
    client whose stream runs out stops early and sets ``exhausted``.
    """
    lock = threading.Lock()
    samples: list[Sample] = []
    sent = [0] * clients
    cursor = [0]
    exhausted = [False]
    ready = threading.Barrier(clients + 1)
    go = threading.Event()
    window: dict[str, float] = {}

    def next_body(client: int) -> str | None:
        if workload.shared_stream:
            with lock:
                stream = workload.streams[0]
                if cursor[0] >= len(stream):
                    exhausted[0] = True
                    return None
                cursor[0] += 1
                return stream[cursor[0] - 1]
        stream = workload.streams[client]
        index = sent[client]
        if index >= len(stream):
            exhausted[0] = True
            return None
        return stream[index]

    def loop(client: int) -> None:
        send = make_sender()
        ready.wait()
        go.wait()
        deadline = window["deadline"]
        mine: list[Sample] = []
        while time.perf_counter() < deadline:
            text = next_body(client)
            if text is None:
                break
            sent[client] += 1
            body = json.loads(text)
            error = None
            start = time.perf_counter()
            try:
                reply = send(workload.route, body)
            except (ServiceClientError, OSError, http.client.HTTPException,
                    ValueError) as exc:
                end = time.perf_counter()
                error = f"{type(exc).__name__}: {exc}"
            else:
                end = time.perf_counter()
                error = workload.check(body, reply) if workload.check else None
            mine.append(Sample(client, start, end, error))
        closer = getattr(send, "close", None)
        if closer is not None:
            closer()
        with lock:
            samples.extend(mine)

    threads = [
        threading.Thread(target=loop, args=(client,), name=f"load-{client}")
        for client in range(clients)
    ]
    for thread in threads:
        thread.start()
    ready.wait()  # every client connected and negotiated
    window["started"] = time.perf_counter()
    window["deadline"] = window["started"] + seconds
    go.set()
    for thread in threads:
        thread.join()
    ended = max((sample.end for sample in samples), default=window["started"])
    samples.sort(key=lambda sample: sample.start)
    return LoadResult(
        samples=samples,
        started=window["started"],
        ended=ended,
        clients=clients,
        exhausted=exhausted[0],
    )


def untraced_sender(url: str) -> Callable[[], Any]:
    """A factory of per-thread ``ServiceClient`` senders, negotiated up front."""

    def make() -> Callable[[str, dict[str, Any]], dict[str, Any]]:
        client = ServiceClient(url, timeout=300.0)
        client.request("GET", "/version")  # /v1 negotiation before the clock

        def send(route: str, body: dict[str, Any]) -> dict[str, Any]:
            return client.request("POST", route, body)

        send.close = client.close  # type: ignore[attr-defined]
        return send

    return make
