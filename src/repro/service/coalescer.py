"""Request coalescing: identical in-flight requests share one computation.

The serving-side observation behind this module: under concurrent load the
same instance is asked for repeatedly (dashboards refreshing, retries, many
clients watching one workflow), and the expensive part of a Secure-View
solve — requirement derivation — is a pure function of the request key.  So
when a request arrives whose key is *already being computed*, the right
move is to attach it to the running computation instead of queueing a
duplicate.

The mechanics are a keyed single-flight table:

* the **first** request for a key becomes the *leader*: it registers an
  :class:`InFlight` entry (atomically, under one lock) and owns starting
  the computation;
* every **later** request for the same key, arriving while the entry is
  unresolved, becomes a *follower*: it increments the entry's waiter count
  and blocks on the entry's event (``coalesced`` counts these);
* whoever completes the computation calls :meth:`RequestCoalescer.resolve`,
  which removes the entry and wakes every waiter with one shared result (or
  one shared exception).

Because registration happens synchronously inside :meth:`join`, a batch of
K identical requests that all call ``join`` before the leader's computation
finishes performs **exactly one** computation and reports ``coalesced ==
K - 1`` — the property the service benchmark asserts.

Waiting is deadline-aware: a follower (or leader) whose timeout expires
stops waiting and gets a :class:`~repro.service.jobs.ServiceTimeout`, but
the entry stays alive until resolved, so the computation is never orphaned
and late followers can still attach.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable

from .jobs import ServiceTimeout

__all__ = ["InFlight", "RequestCoalescer"]


class InFlight:
    """One running computation: its waiters, and eventually its outcome."""

    __slots__ = ("key", "event", "waiters", "result", "error")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.event = threading.Event()
        self.waiters = 1  # the leader
        self.result: Any = None
        self.error: BaseException | None = None


class RequestCoalescer:
    """Keyed single-flight table with leader/follower accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._inflight: dict[Hashable, InFlight] = {}
        self.leaders = 0
        self.coalesced = 0

    # -- attach -----------------------------------------------------------------
    def join(self, key: Hashable) -> tuple[bool, InFlight]:
        """Attach to the computation for ``key``; ``(is_leader, entry)``.

        Atomic: exactly one caller per in-flight window is the leader and
        must eventually :meth:`resolve` the entry (normally via a
        done-callback on the computation, so a leader that stops waiting
        early still resolves its followers).
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = InFlight(key)
                self._inflight[key] = entry
                self.leaders += 1
                self._changed.notify_all()
                return True, entry
            entry.waiters += 1
            self.coalesced += 1
            self._changed.notify_all()
            return False, entry

    # -- complete ---------------------------------------------------------------
    def resolve(
        self,
        entry: InFlight,
        result: Any = None,
        error: BaseException | None = None,
    ) -> None:
        """Publish the outcome and wake every waiter (exactly once)."""
        with self._lock:
            self._inflight.pop(entry.key, None)
            entry.result = result
            entry.error = error
            entry.event.set()
            self._changed.notify_all()

    def wait(self, entry: InFlight, timeout: float | None = None) -> Any:
        """Block until the entry resolves; the shared result or exception."""
        if not entry.event.wait(timeout):
            raise ServiceTimeout(
                f"request did not complete within {timeout:.3f}s "
                "(the computation keeps running; retry to pick up its result)"
            )
        if entry.error is not None:
            raise entry.error
        return entry.result

    def wait_any(self, entries: list[InFlight], timeout: float | None = None) -> bool:
        """Block until at least one of ``entries`` resolves; ``False`` on timeout.

        Lets one caller collect several computations in completion order
        (the service's cell loop) without a thread per entry.
        """
        with self._changed:
            return self._changed.wait_for(
                lambda: any(entry.event.is_set() for entry in entries), timeout
            )

    # -- introspection ----------------------------------------------------------
    def in_flight(self) -> int:
        """Number of distinct computations currently running."""
        with self._lock:
            return len(self._inflight)

    def waiters(self, key: Hashable) -> int:
        """Requests currently attached to ``key`` (0 when not in flight)."""
        with self._lock:
            entry = self._inflight.get(key)
            return entry.waiters if entry is not None else 0

    def await_waiters(
        self, key: Hashable, count: int, timeout: float | None = None
    ) -> bool:
        """Block until ``key`` has at least ``count`` attached waiters.

        Condition-based (no polling); used by deterministic concurrency
        tests and the demo to sequence "all followers attached" without
        sleeps.
        """
        with self._changed:
            return self._changed.wait_for(
                lambda: (
                    self._inflight.get(key) is not None
                    and self._inflight[key].waiters >= count
                ),
                timeout,
            )

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "leaders": self.leaders,
                "coalesced": self.coalesced,
                "in_flight": len(self._inflight),
            }
