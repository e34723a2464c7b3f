"""Threaded HTTP/JSON front for a :class:`~repro.service.service.SolveService`.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` whose handler
threads parse JSON bodies, call the service, and serialize the answer.
Handler threads never compute — computation happens in the service's worker
pool — so slow solves occupy pool slots, not the accept loop.

Routes (v1 API)
---------------
Every endpoint is mounted under ``/v1/``; any path outside it, the
unprefixed spellings included, answers an enveloped 404.

``GET /v1/healthz``
    Liveness: ``{"status": "ok" | "draining", "draining": bool,
    "replica": ..., ...}``.  Answers **503** once a drain has started
    (body still included), so load balancers — including ``repro fleet``
    — can stop routing before SIGTERM completes.
``GET /v1/metrics``
    Request counts, in-flight gauge, coalescing counters, job and
    maintenance counters, replica identity, and the shared cache's
    hit/miss delta since start (see ``SolveService.metrics``).
``GET /v1/version``
    Package version, API version, replica identity and the attached
    store's on-disk format versions — what a rolling upgrade checks
    before readmitting a replica.
``POST /v1/solve``
    One solve request (see :mod:`repro.service.jobs` for the body schema).
``POST /v1/sweep``
    An inline grid run through the service's cell loop on the handler
    thread (blocks until done; never enters the job table).
``POST /v1/jobs/sweep``
    The same grid, asynchronously: answers 202 with a job id immediately
    (see :mod:`repro.service.background`).
``GET /v1/jobs`` / ``GET /v1/jobs/<id>``
    Job summaries / one job's state, progress counters and partial
    records.
``DELETE /v1/jobs/<id>``
    Cancel: in-flight cells finish, pending cells are dropped.
``POST /v1/shutdown``
    Ack with 202 and gracefully stop the server (drain, then exit the
    serve loop).  The CLI additionally wires SIGTERM/SIGINT to the same
    path, so ``kill -TERM`` on ``repro serve`` drains and exits 0.

Error mapping: malformed JSON or payloads → 400, unknown routes and job
ids → 404, request deadline passed → 504, draining → 503, a full job
table → 429, solver/domain failures → 422, anything unexpected → 500;
every error body is the one envelope
``{"error": {"type": ..., "message": ..., "status": ...}}``.

Connections are keep-alive (HTTP/1.1 persistent): a client — or the fleet
front — reuses one socket across requests instead of paying a TCP
handshake each time.  Draining stays safe: once a stop begins, every
response carries ``Connection: close``, and sockets that are *idle*
between requests are shut down after the drain completes, so
``server_close()`` never waits on a parked keep-alive socket while no
in-flight response is ever cut off.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from ..exceptions import ProvenanceError
from .jobs import ServiceError
from .service import SolveService
from .wire import MAX_BODY_BYTES, encode_json, error_envelope, normalize_path

__all__ = ["ServiceServer"]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: Set by :class:`ServiceServer` on the handler subclass it builds.
    service: SolveService
    quiet: bool = True

    # -- plumbing ---------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def setup(self) -> None:
        super().setup()
        self.server.owner._track(self.connection)  # type: ignore[attr-defined]

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.owner._untrack(self.connection)  # type: ignore[attr-defined]

    def _respond(self, status: int, payload: Any) -> None:
        body = encode_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.server.owner.closing:  # type: ignore[attr-defined]
            # Draining: finish this exchange, then let the socket go so
            # server_close() never waits on a parked keep-alive connection.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def _fail(self, exc: BaseException) -> None:
        if isinstance(exc, ServiceError):
            if exc.status in (411, 413):
                # The body was never consumed and its framing is unknown —
                # leftover bytes would be parsed as the next request line.
                self.close_connection = True
            self._respond(exc.status, exc.as_dict())
        elif isinstance(exc, ProvenanceError):
            # Well-formed request, unsolvable instance (unknown solver,
            # infeasible requirements, work limits): the client's fault
            # semantically, but not a malformed message.
            self._respond(422, error_envelope(type(exc).__name__, str(exc), 422))
        else:
            self._respond(500, error_envelope(type(exc).__name__, str(exc), 500))

    def _not_found(self) -> None:
        self._respond(
            404,
            error_envelope("ServiceError", f"no such path {self.path!r}", 404),
        )

    def _drain_body(self) -> None:
        """Discard a request body this route ignores.

        Keep-alive framing depends on it: unread body bytes would be parsed
        as the next request line on this connection.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except (TypeError, ValueError):
            length = 0
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)
        elif length > MAX_BODY_BYTES:
            self.close_connection = True

    def _read_body(self) -> Any:
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise ServiceError("Content-Length required", status=411)
        if length < 0 or length > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    # -- routes -----------------------------------------------------------------
    def _dispatch(self, route_fn: Callable[[str], bool]) -> None:
        """Answer one request: route it, or an enveloped 404."""
        route = normalize_path(self.path)
        busy = self.server.owner._mark_busy(self.connection)  # type: ignore[attr-defined]
        try:
            if route is None or not route_fn(route):
                self._drain_body()  # unread body bytes would break keep-alive
                self._not_found()
        except Exception as exc:  # noqa: BLE001 - a handler must always answer
            self._fail(exc)
        finally:
            if busy:
                self.server.owner._mark_idle(self.connection)  # type: ignore[attr-defined]

    @staticmethod
    def _job_id(route: str) -> str | None:
        """The ``<id>`` of a ``/jobs/<id>`` route (``None`` otherwise)."""
        if not route.startswith("/jobs/"):
            return None
        job_id = route[len("/jobs/"):]
        return job_id if job_id and "/" not in job_id else None

    def _get(self, route: str) -> bool:
        if route == "/healthz":
            payload = self.service.healthz()
            # 503 while draining: body still answers, but balancers and
            # pollers see "stop routing here" at the status level.
            self._respond(503 if payload["draining"] else 200, payload)
        elif route == "/metrics":
            self._respond(200, self.service.metrics())
        elif route == "/version":
            self._respond(200, self.service.version())
        elif route == "/jobs":
            self._respond(200, {"jobs": self.service.jobs.list_jobs()})
        elif self._job_id(route):
            self._respond(200, self.service.jobs.status(self._job_id(route)))
        else:
            return False
        return True

    def _post(self, route: str) -> bool:
        if route == "/solve":
            self._respond(200, self.service.solve_payload(self._read_body()))
        elif route == "/sweep":
            self._respond(200, self.service.sweep_payload(self._read_body()))
        elif route == "/jobs/sweep":
            # 202: accepted, not done — the body is the job handle.
            self._respond(202, self.service.jobs.submit(self._read_body()))
        elif route == "/shutdown":
            self._drain_body()  # the (ignored) body must leave the socket
            self._respond(202, {"status": "shutting down"})
            self.server.owner.stop_async()  # type: ignore[attr-defined]
        else:
            return False
        return True

    def _delete(self, route: str) -> bool:
        if not self._job_id(route):
            return False
        self._respond(200, self.service.jobs.cancel(self._job_id(route)))
        return True

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._post)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._delete)


class ServiceServer:
    """Bind a :class:`SolveService` to a host/port and run the serve loop.

    The constructor binds the socket (so callers can read the ephemeral
    ``port`` before serving); :meth:`serve_forever` blocks until
    :meth:`stop` is called from another thread (or :meth:`start` runs the
    loop on a daemon thread for in-process use — tests, benchmarks, the
    demo).
    """

    def __init__(
        self,
        service: SolveService,
        host: str = "127.0.0.1",
        port: int = 8080,
        quiet: bool = True,
    ) -> None:
        self.service = service
        # A socket timeout bounds idle connections so joining handler
        # threads on close can never hang on a client that connected but
        # sent nothing.
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"service": service, "quiet": quiet, "timeout": 30},
        )
        self.httpd = ThreadingHTTPServer((host, port), handler)
        # Non-daemon handler threads: server_close() joins them, so a
        # graceful stop only returns after every drained request's
        # response has actually been written — drain must never drop the
        # very response it waited for.
        self.httpd.daemon_threads = False
        self.httpd.owner = self  # type: ignore[attr-defined]
        self._stopped = threading.Event()
        self._closing = threading.Event()
        # Keep-alive sockets and whether each is mid-request.  Guarded by
        # one lock so "mark busy" and "close every idle socket" are atomic
        # with respect to each other: a request that marked busy is never
        # closed under it, a parked socket is closed immediately.
        self._conn_lock = threading.Lock()
        self._connections: dict[socket.socket, bool] = {}
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def closing(self) -> bool:
        return self._closing.is_set()

    # -- connection tracking (keep-alive vs drain) -------------------------------
    def _track(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections[conn] = False

    def _untrack(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.pop(conn, None)

    def _mark_busy(self, conn: socket.socket) -> bool:
        with self._conn_lock:
            if conn in self._connections:
                self._connections[conn] = True
                return True
        return False

    def _mark_idle(self, conn: socket.socket) -> None:
        with self._conn_lock:
            if conn in self._connections:
                self._connections[conn] = False
                # A handler that goes idle after the close-idle sweep already
                # ran (it was busy writing its response) would otherwise park
                # on the next keep-alive read and stall server_close().
                if self.closing:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

    def _close_idle_connections(self) -> int:
        """Shut down sockets parked between keep-alive requests; count them.

        Runs after the drain, so anything still marked busy is writing its
        (already computed) response and is left alone — it closes itself
        via the ``Connection: close`` every response carries by then.
        """
        closed = 0
        with self._conn_lock:
            for conn, busy in list(self._connections.items()):
                if busy:
                    continue
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already dying; its handler will untrack it
                closed += 1
        return closed

    # -- serving ----------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread until :meth:`stop`."""
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.httpd.server_close()

    def start(self) -> "ServiceServer":
        """Run the serve loop on a daemon thread (in-process embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    # -- shutdown ---------------------------------------------------------------
    def stop(self, drain_timeout: float | None = None) -> bool:
        """Drain the service, stop the accept loop, close the socket.

        Safe to call from any thread (including a signal handler's helper
        thread) and idempotent.  Returns whether the drain completed within
        ``drain_timeout``.
        """
        if self._stopped.is_set():
            return True
        self._stopped.set()
        # From here on every response says ``Connection: close``; the
        # drain below waits for in-flight work, then parked keep-alive
        # sockets are shut down so server_close() joins promptly.
        self._closing.set()
        drained = self.service.drain(drain_timeout)
        self._close_idle_connections()
        self.httpd.shutdown()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)
        return drained

    def stop_async(self) -> None:
        """Trigger :meth:`stop` without blocking the calling (handler) thread."""
        threading.Thread(target=self.stop, name="repro-serve-stop", daemon=True).start()
