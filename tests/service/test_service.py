"""Tests for the service core: module-tier reuse, timeouts, drain, sweeps."""

from __future__ import annotations

import threading

import pytest

from repro.service import ServiceError, ServiceTimeout, SolveService
from repro.workloads import figure1_workflow
from repro.workloads.serialization import problem_to_dict
from repro.core import SecureViewProblem


class TestModuleTierReuse:
    def test_overlapping_workflows_pay_the_shared_module_once(
        self, overlapping_payloads
    ):
        left, right = overlapping_payloads
        service = SolveService(workers=2, default_timeout=30)
        service.solve_payload({"workflow": left, "gamma": 2, "kind": "set"})
        service.solve_payload({"workflow": right, "gamma": 2, "kind": "set"})
        metrics = service.metrics()
        # Three distinct module contents across the two workflows; the
        # shared one is derived once and *reused* by the second workflow.
        assert metrics["cache"]["rederived_modules"] == 3
        assert metrics["cache"]["reused_modules"] == 1
        assert metrics["coalesced"] == 0  # distinct keys — sharing, not coalescing
        assert service.drain(timeout=30)

    def test_stored_error_records_answer_422_like_a_fresh_solve(
        self, tmp_path, figure1_payload
    ):
        """A sweep-persisted infeasibility record must not become a 200."""
        from repro.engine.store import DerivationStore, ResultKey
        from repro.service import InstanceCache, parse_solve_payload

        body = {"workflow": figure1_payload, "gamma": 2, "kind": "set",
                "solver": "exact"}
        job = parse_solve_payload(dict(body), InstanceCache())
        store = DerivationStore(str(tmp_path / "store"))
        store.save_result(
            job.fingerprint,
            ResultKey("kernel", 2, "set", "exact", None, False),
            {
                "workflow": job.label, "gamma": 2, "kind": "set",
                "solver": "exact", "seed": None, "method": "exact",
                "cost": float("inf"), "error": "empty requirement list",
                "error_type": "RequirementError",
            },
        )
        service = SolveService(store=store, workers=1, default_timeout=30)
        with pytest.raises(ServiceError) as excinfo:
            service.solve_payload(dict(body))
        assert excinfo.value.status == 422
        assert "empty requirement list" in str(excinfo.value)
        # The error was never memorized as a success either.
        with pytest.raises(ServiceError):
            service.solve_payload(dict(body))
        assert service.drain(timeout=30)

    def test_store_backed_service_shares_results_across_restarts(
        self, tmp_path, figure1_payload
    ):
        body = {
            "workflow": figure1_payload, "gamma": 2,
            "kind": "set", "solver": "exact",
        }
        first = SolveService(
            store=str(tmp_path / "store"), workers=1, default_timeout=30
        )
        cold = first.solve_payload(dict(body))
        assert not cold["from_store"]
        assert first.drain(timeout=30)

        second = SolveService(
            store=str(tmp_path / "store"), workers=1, default_timeout=30
        )
        warm = second.solve_payload(dict(body))
        assert warm["from_store"]
        assert warm["cost"] == cold["cost"]
        # Same record schema whichever tier answered.
        assert set(warm) == set(cold)
        assert second.metrics()["result_hits"]["store"] == 1
        assert second.drain(timeout=30)


class TestTimeouts:
    def test_deadline_expiry_raises_504_but_the_result_still_lands(
        self, blocker, figure1_payload
    ):
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        body = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set",
            "solver": "blocker", "timeout": 0.05,
        }
        with pytest.raises(ServiceTimeout) as excinfo:
            service.solve_payload(dict(body))
        assert excinfo.value.status == 504
        assert service.metrics()["timeouts"] == 1
        # The abandoned computation still completes, resolves, and caches —
        # a follow-up of the same request attaches or hits the cache, but
        # never recomputes.
        blocker.release.set()
        retry = service.solve_payload(dict(body, timeout=30))
        assert retry["cost"] > 0
        assert blocker.calls == 1
        assert service.drain(timeout=30)


class TestDrain:
    def test_drain_waits_for_inflight_rejects_new_and_completes(
        self, blocker, figure1_payload
    ):
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        body = {
            "workflow": figure1_payload, "gamma": 2, "kind": "set", "solver": "blocker"
        }
        outcome: dict = {}

        def call() -> None:
            outcome["record"] = service.solve_payload(dict(body))

        solver_thread = threading.Thread(target=call)
        solver_thread.start()
        assert blocker.started.wait(30)

        drained = threading.Event()
        drain_thread = threading.Thread(
            target=lambda: (service.drain(), drained.set())
        )
        drain_thread.start()
        assert service.drain_started.wait(30)

        # While the blocked computation is in flight the drain must not
        # complete, and new work must be refused with 503.
        assert not drained.is_set()
        with pytest.raises(ServiceError) as excinfo:
            service.solve_payload(
                {"workflow": figure1_payload, "gamma": 3, "kind": "set"}
            )
        assert excinfo.value.status == 503

        blocker.release.set()
        solver_thread.join(timeout=30)
        drain_thread.join(timeout=30)
        assert drained.is_set()
        assert outcome["record"]["cost"] > 0  # in-flight work was not dropped
        assert service.in_flight == 0

    def test_sweep_during_drain_is_refused_with_503(
        self, blocker, figure1_payload
    ):
        """A mid-drain /v1/sweep is a 503 the fleet front fails over on,
        never a 200 full of "service is draining" error cells."""
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        solver_thread = threading.Thread(
            target=service.solve_payload,
            args=({"workflow": figure1_payload, "gamma": 2, "solver": "blocker"},),
        )
        solver_thread.start()
        drain_thread = threading.Thread(target=service.drain)
        try:
            assert blocker.started.wait(30)
            drain_thread.start()
            assert service.drain_started.wait(30)

            errors_before = service.metrics()["errors"]
            with pytest.raises(ServiceError) as excinfo:
                service.sweep_payload(
                    {"workflows": [figure1_payload], "solvers": ["exact"]}
                )
            assert excinfo.value.status == 503
            assert service.metrics()["errors"] == errors_before + 1
            assert service.coalescer.leaders == 1  # no sweep cell was started
        finally:
            blocker.release.set()
            solver_thread.join(timeout=30)
            drain_thread.join(timeout=30)
        assert service.in_flight == 0

    def test_drain_waits_for_a_sweep_admitted_before_it(
        self, blocker, figure1_payload
    ):
        """A sweep already running when the drain starts answers complete:
        its later cells are not refused, and the drain waits for them."""
        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        outcome: dict = {}
        sweep_thread = threading.Thread(
            target=lambda: outcome.update(
                report=service.sweep_payload(
                    {
                        "workflows": [figure1_payload],
                        "solvers": ["blocker"],
                        "seeds": [0, 1],
                    }
                )
            )
        )
        sweep_thread.start()
        drained = threading.Event()
        drain_thread = threading.Thread(
            target=lambda: (service.drain(), drained.set())
        )
        try:
            assert blocker.started.wait(30)  # cell 0 is in flight (window = 1)
            drain_thread.start()
            assert service.drain_started.wait(30)
            assert not drained.is_set()
        finally:
            blocker.release.set()
            sweep_thread.join(timeout=30)
            drain_thread.join(timeout=30)
        report = outcome["report"]
        assert report["errors"] == 0, report["records"]
        assert [r["index"] for r in report["records"]] == [0, 1]
        assert all(r["cost"] > 0 for r in report["records"])
        assert blocker.calls == 2
        assert drained.is_set()
        assert service.in_flight == 0

    def test_drain_is_idempotent(self, figure1_payload):
        service = SolveService(workers=1, default_timeout=30)
        service.solve_payload({"workflow": figure1_payload, "gamma": 2, "kind": "set"})
        assert service.drain(timeout=30)
        assert service.drain(timeout=30)


MALFORMED_GRIDS = [
    {},
    {"workflows": "nope"},
    {"workflows": [], "problems": []},
    {"workflows": None, "problems": None},
    {"workflows": [{"modules": []}], "gammas": "2"},
]


class TestSweep:
    def test_sweep_expands_deterministically_and_isolates_failures(
        self, figure1_payload
    ):
        service = SolveService(workers=2, default_timeout=30)
        report = service.sweep_payload(
            {
                "workflows": [figure1_payload],
                "gammas": [2],
                "kinds": ["set"],
                "solvers": ["exact", "greedy", "no-such-solver"],
                "seeds": [0],
            }
        )
        assert report["cells"] == 3
        assert [record["index"] for record in report["records"]] == [0, 1, 2]
        assert report["errors"] == 1
        failed = [r for r in report["records"] if "error" in r]
        assert failed[0]["solver"] == "no-such-solver"
        assert failed[0]["error_type"] == "SolverError"
        ok = [r for r in report["records"] if "error" not in r]
        assert all(r["cost"] > 0 for r in ok)
        # One instance, one (Γ, kind) point: the derivation ran once and
        # the second solver reused it through the shared hot cache.
        assert report["stats"]["derivation_misses"] == 1
        assert service.drain(timeout=30)

    def test_sweep_accepts_problem_payloads(self):
        problem = SecureViewProblem.from_standalone_analysis(
            figure1_workflow(), 2, kind="set"
        )
        service = SolveService(workers=2, default_timeout=30)
        report = service.sweep_payload(
            {"problems": [problem_to_dict(problem)], "solvers": ["exact", "greedy"]}
        )
        assert report["cells"] == 2 and report["errors"] == 0
        assert service.drain(timeout=30)

    @pytest.mark.parametrize(
        "endpoint, body",
        [
            (endpoint, body)
            for endpoint in ("sweep", "jobs")
            for body in MALFORMED_GRIDS
        ],
        # /v1/sweep cases are body<i>, /v1/jobs/sweep cases jobs-body<i>.
        ids=[
            f"{prefix}body{index}"
            for prefix in ("", "jobs-")
            for index in range(len(MALFORMED_GRIDS))
        ],
    )
    def test_malformed_sweeps_are_rejected(self, endpoint, body):
        """Both grid endpoints answer 400 and count it in ``errors``."""
        service = SolveService(workers=1, default_timeout=30)
        submit = (
            service.sweep_payload if endpoint == "sweep" else service.jobs.submit
        )
        with pytest.raises(ServiceError) as excinfo:
            submit(body)
        assert excinfo.value.status == 400
        metrics = service.metrics()
        assert metrics["errors"] == 1
        assert metrics["jobs"]["submitted"] == 0
        assert service.drain(timeout=30)

    def test_null_axes_mean_defaults_not_a_crash(self, figure1_payload):
        """Explicit JSON nulls on grid axes behave like absent keys (400/200,
        never a 500 TypeError)."""
        service = SolveService(workers=1, default_timeout=30)
        report = service.sweep_payload(
            {
                "workflows": [figure1_payload],
                "gammas": None,
                "kinds": None,
                "solvers": ["exact"],
                "seeds": None,
            }
        )
        assert report["cells"] == 1 and report["errors"] == 0
        assert report["records"][0]["gamma"] == 2  # the default axis
        assert service.drain(timeout=30)

    def test_repeated_sweeps_hit_the_result_cache(self, figure1_payload):
        """A storeless service must not re-run solvers for a repeated grid."""
        service = SolveService(workers=2, default_timeout=30)
        grid = {"workflows": [figure1_payload], "solvers": ["exact", "greedy"]}
        first = service.sweep_payload(dict(grid))
        second = service.sweep_payload(dict(grid))
        assert first["errors"] == second["errors"] == 0
        assert service.metrics()["result_hits"]["memory"] == 2
        assert [r["cost"] for r in second["records"]] == [
            r["cost"] for r in first["records"]
        ]
        assert service.drain(timeout=30)

    def test_sync_sweep_and_async_job_report_identical_records(
        self, figure1_payload
    ):
        """/v1/sweep and /v1/jobs/sweep run one cell loop: same records,
        in index order, failures included."""
        grid = {
            "workflows": [figure1_payload],
            "gammas": [2, 3],
            "solvers": ["exact", "no-such-solver", "greedy"],
        }
        volatile = ("seconds", "coalesced", "cache", "from_store")

        def stable(records: list) -> list:
            return [
                {key: value for key, value in record.items() if key not in volatile}
                for record in records
            ]

        sync_service = SolveService(workers=2, default_timeout=30)
        report = sync_service.sweep_payload(dict(grid))
        async_service = SolveService(workers=2, default_timeout=30)
        handle = async_service.jobs.submit(dict(grid))
        final = async_service.jobs.wait(handle["job"], timeout=30)

        assert [r["index"] for r in report["records"]] == list(range(6))
        assert stable(report["records"]) == stable(final["records"])
        # Γ=2: the unknown solver fails; Γ=3 is infeasible for every solver.
        assert report["errors"] == final["failed"] == 4
        assert final["state"] == "done" and final["completed"] == 2
        # A synchronous sweep never enters the job table.
        assert sync_service.metrics()["jobs"]["submitted"] == 0
        assert sync_service.jobs.list_jobs() == []
        assert sync_service.drain(timeout=30)
        assert async_service.drain(timeout=30)

    def test_a_slow_cell_does_not_hold_up_dispatch(self, blocker, figure1_payload):
        """With cell 0 blocked, the freed slot still takes cell 2; records
        still come back in index order."""
        from repro.engine.registry import default_registry

        exact = default_registry().get("exact").fn
        reached = threading.Event()

        @blocker.registry.register("quick", summary="test solver")
        def quick(problem):
            return exact(problem)

        @blocker.registry.register("marker", summary="test solver")
        def marker(problem):
            reached.set()
            return exact(problem)

        service = SolveService(workers=2, registry=blocker.registry, default_timeout=30)
        outcome: dict = {}
        sweep_thread = threading.Thread(
            target=lambda: outcome.update(
                report=service.sweep_payload(
                    {
                        "workflows": [figure1_payload],
                        "solvers": ["blocker", "quick", "marker"],
                    }
                )
            )
        )
        sweep_thread.start()
        try:
            assert reached.wait(30), "cell 2 waited for the blocked cell 0"
            assert blocker.calls == 1 and not blocker.release.is_set()
        finally:
            blocker.release.set()
            sweep_thread.join(timeout=30)
        report = outcome["report"]
        assert report["errors"] == 0
        assert [r["index"] for r in report["records"]] == [0, 1, 2]
        assert [r["solver"] for r in report["records"]] == [
            "blocker", "quick", "marker",
        ]
        assert service.drain(timeout=30)

    def test_sweep_deadline_is_shared_not_per_cell(self, blocker, figure1_payload):
        """N blocked cells time out within ~one budget, not N budgets."""
        import time

        service = SolveService(workers=1, registry=blocker.registry, default_timeout=30)
        started = time.monotonic()
        report = service.sweep_payload(
            {
                "workflows": [figure1_payload],
                "gammas": [2, 3, 4],
                "solvers": ["blocker"],
                "timeout": 0.2,
            }
        )
        elapsed = time.monotonic() - started
        assert report["errors"] == 3
        assert all(r["error_type"] == "ServiceTimeout" for r in report["records"])
        # Three cells against one shared 0.2s deadline: well under 3 x 0.2s
        # plus scheduling slack.
        assert elapsed < 0.5, elapsed
        blocker.release.set()
        assert service.drain(timeout=30)
