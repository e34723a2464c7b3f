"""Deterministic tests for request coalescing (barriers and events, no sleeps)."""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    RequestCoalescer,
    ServiceTimeout,
    SolveService,
    parse_solve_payload,
)


class TestRequestCoalescer:
    def test_first_joiner_leads_later_joiners_attach(self):
        coalescer = RequestCoalescer()
        leader, entry = coalescer.join("k")
        assert leader
        follower, same = coalescer.join("k")
        assert not follower and same is entry
        assert coalescer.stats() == {"leaders": 1, "coalesced": 1, "in_flight": 1}
        coalescer.resolve(entry, result=42)
        assert coalescer.wait(entry, timeout=1) == 42
        # The key is free again: the next joiner starts a fresh computation.
        leader_again, fresh = coalescer.join("k")
        assert leader_again and fresh is not entry
        coalescer.resolve(fresh, result=0)

    def test_errors_are_shared_by_all_waiters(self):
        coalescer = RequestCoalescer()
        _, entry = coalescer.join("k")
        coalescer.join("k")
        boom = ValueError("shared failure")
        coalescer.resolve(entry, error=boom)
        for _ in range(2):
            with pytest.raises(ValueError, match="shared failure"):
                coalescer.wait(entry, timeout=1)

    def test_wait_timeout_raises_service_timeout_and_entry_survives(self):
        coalescer = RequestCoalescer()
        _, entry = coalescer.join("k")
        with pytest.raises(ServiceTimeout):
            coalescer.wait(entry, timeout=0.01)
        # The computation is not orphaned: the entry is still joinable ...
        follower, same = coalescer.join("k")
        assert not follower and same is entry
        # ... and a late resolution still reaches everyone.
        coalescer.resolve(entry, result="late")
        assert coalescer.wait(entry, timeout=1) == "late"

    def test_wait_any_returns_once_one_entry_resolves(self):
        coalescer = RequestCoalescer()
        _, first = coalescer.join("a")
        _, second = coalescer.join("b")
        assert not coalescer.wait_any([first, second], timeout=0.01)
        resolver = threading.Thread(
            target=coalescer.resolve, args=(second,), kwargs={"result": 2}
        )
        resolver.start()
        assert coalescer.wait_any([first, second], timeout=30)
        resolver.join(30)
        assert second.event.is_set() and not first.event.is_set()
        coalescer.resolve(first, result=1)


class TestServiceCoalescing:
    K = 4

    def test_k_identical_inflight_requests_run_one_computation(
        self, blocker, figure1_payload
    ):
        """K concurrent identical requests: 1 derivation, coalesced == K-1."""
        service = SolveService(workers=2, registry=blocker.registry, default_timeout=30)
        body = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set", "solver": "blocker"
        }
        key = parse_solve_payload(dict(body), service.instances).key

        results: list[dict | None] = [None] * self.K
        errors: list[BaseException] = []

        def call(slot: int) -> None:
            try:
                results[slot] = service.solve_payload(dict(body))
            except BaseException as exc:  # noqa: BLE001 - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(self.K)]
        for thread in threads:
            thread.start()
        # All K requests are attached (condition-based wait, no polling);
        # the computation has not produced a result yet — the solver is
        # still blocked — so every one of them must share the single run.
        assert service.coalescer.await_waiters(key, self.K, timeout=30)
        blocker.release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert blocker.calls == 1
        costs = {record["cost"] for record in results}  # type: ignore[index]
        assert len(costs) == 1
        assert sum(record["coalesced"] for record in results) == self.K - 1

        metrics = service.metrics()
        assert metrics["coalesced"] == self.K - 1
        assert metrics["leaders"] == 1
        assert metrics["cache"]["derivation_misses"] == 1
        assert service.drain(timeout=30)

    def test_distinct_keys_do_not_coalesce(self, blocker, figure1_payload):
        service = SolveService(workers=2, registry=blocker.registry, default_timeout=30)
        blocker.release.set()  # no blocking needed; keys differ
        seeded = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set",
            "solver": "blocker", "seed": 1,
        }
        other_seed = dict(seeded, seed=2)
        service.solve_payload(seeded)
        service.solve_payload(other_seed)
        assert service.metrics()["coalesced"] == 0
        assert blocker.calls == 2
        assert service.drain(timeout=30)

    def test_completed_requests_are_served_from_the_result_cache(
        self, blocker, figure1_payload
    ):
        service = SolveService(workers=2, registry=blocker.registry, default_timeout=30)
        blocker.release.set()
        body = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set", "solver": "blocker"
        }
        first = service.solve_payload(dict(body))
        second = service.solve_payload(dict(body))
        assert blocker.calls == 1
        assert second["cost"] == first["cost"]
        assert service.metrics()["result_hits"]["memory"] == 1
        assert service.drain(timeout=30)
