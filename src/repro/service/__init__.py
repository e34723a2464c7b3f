"""Long-lived solve service over the Secure-View engine.

Every other surface in this repository — the CLI, ``run_sweep``, a script
holding a :class:`~repro.engine.Planner` — is a one-shot process: it pays
interpreter start-up, store attachment and kernel compilation per
invocation, then throws the hot state away.  This package keeps that state
resident and serves it over HTTP/JSON (stdlib only)::

    repro serve --store .repro-store --workers 4 --port 8080
    repro submit problem.json --url http://127.0.0.1:8080

Components
----------
:class:`SolveService`
    The process core: one hot thread-safe
    :class:`~repro.engine.cache.DerivationCache` (optionally store-backed),
    a solve worker pool, an in-memory result cache, and **request
    coalescing** — concurrent identical requests (same workflow
    fingerprint, backend, Γ, kind, solver, seed, verify) attach to one
    computation and all receive its result.
:class:`RequestCoalescer`
    The keyed single-flight table behind the coalescing, with
    leader/follower counters (``coalesced`` in ``/v1/metrics``).
:class:`JobManager` / :class:`MaintenanceScheduler`
    The background subsystem: ``POST /v1/jobs/sweep`` returns a job id
    immediately and the cells run through the same cell loop as
    ``POST /v1/sweep`` (``GET /v1/jobs/<id>`` reports progress and partial
    records, ``DELETE /v1/jobs/<id>`` cancels); a scheduler thread owns
    store GC to a byte budget, cache TTL expiry, popularity flushing and
    restart warm-up.
:class:`ServiceServer`
    The threaded HTTP front for one replica: ``POST /v1/solve``,
    ``POST /v1/sweep``, ``POST /v1/jobs/sweep``, ``GET /v1/jobs[/<id>]``,
    ``DELETE /v1/jobs/<id>``, ``GET /v1/healthz``, ``GET /v1/metrics``,
    ``GET /v1/version``, ``POST /v1/shutdown`` (any path outside ``/v1``
    answers an enveloped 404); keep-alive connections; graceful drain on
    stop.
:class:`FleetSupervisor`
    ``repro fleet``: N supervised ``repro serve`` replica processes on
    one shared store behind a health-aware ``/v1`` proxy front, with
    budgeted respawns and drain-aware rolling restarts.
:class:`ServiceClient`
    Stdlib client used by ``repro submit`` and scripts; keep-alive
    connections to the ``/v1`` API, envelope-aware errors.
:class:`SolveJob` / :func:`parse_solve_payload`
    The request codec; a job's ``key`` is the coalescing identity.
:mod:`repro.service.wire`
    The stdlib-only wire format (routes, body cap, JSON encoding, error
    envelope) that the replica, the fleet front and the client share.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name → defining submodule.  Exports load on first access
#: (PEP 562), so ``import repro.service.fleet`` or ``.client`` — the
#: stdlib-only front and client — never pay for the engine a replica runs.
_EXPORTS = {
    "FleetSupervisor": ".fleet",
    "InFlight": ".coalescer",
    "InstanceCache": ".jobs",
    "JOB_STATES": ".jobs",
    "JobManager": ".background",
    "MaintenanceScheduler": ".background",
    "Replica": ".fleet",
    "RequestCoalescer": ".coalescer",
    "ServiceClient": ".client",
    "ServiceClientError": ".client",
    "ServiceError": ".jobs",
    "ServiceServer": ".server",
    "ServiceTimeout": ".jobs",
    "SolveJob": ".jobs",
    "SolveService": ".service",
    "SweepJob": ".background",
    "TERMINAL_JOB_STATES": ".jobs",
    "parse_solve_payload": ".jobs",
}

__all__ = sorted(_EXPORTS)


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
