"""The solve service live: coalescing, module reuse, graceful shutdown.

Run with::

    python examples/service_demo.py

The script starts a :class:`~repro.service.ServiceServer` in-process on an
ephemeral port (the same server ``repro serve`` runs standalone) and walks
through the serving effects the service exists for:

1. **coalescing** — K identical requests fired concurrently attach to one
   computation; ``/v1/metrics`` shows ``coalesced == K - 1`` and a single
   requirement derivation;
2. **module-tier reuse** — a *different* workflow sharing modules with the
   first reuses their derivations (``reused_modules``), so the serving win
   extends beyond byte-identical requests;
3. **async jobs** — a grid posted to ``/v1/jobs/sweep`` answers with a job
   handle immediately; the client polls ``GET /v1/jobs/<id>`` for progress
   and partial records while the cells run in the background;
4. **graceful shutdown** — ``POST /v1/shutdown`` (or SIGTERM on ``repro
   serve``) drains in-flight work before the process exits;
5. **a replica fleet on one store** — ``repro fleet --replicas 2 --store
   DIR`` supervises two full ``repro serve`` processes sharing one store
   behind a health-aware ``/v1`` proxy front.  One service timeslices a
   single core behind the GIL; the fleet is how the service uses more.
   Identical requests spread over both replicas derive once fleet-wide
   (every repeat is a store result-tier hit), and a rolling restart
   cycles the replicas one at a time with zero failed requests.
"""

from __future__ import annotations

import threading

from repro.core import Workflow
from repro.service import ServiceClient, ServiceServer, SolveService
from repro.workloads import random_total_module, workflow_to_dict

K = 5  # concurrent identical requests in the coalescing phase


def main() -> None:
    service = SolveService(workers=2, default_timeout=120.0)
    server = ServiceServer(service, port=0).start()
    client = ServiceClient(server.url)
    print(f"service up at {server.url} (healthz: {client.healthz()['status']})")

    modules = [random_total_module(40 + i, 5, 3, f"m{i}", f"s{i}_") for i in range(3)]
    base = Workflow(list(modules), name="demo-base")
    payload = workflow_to_dict(base)

    # -- 1. K identical concurrent requests, one computation -----------------
    records = []

    def submit() -> None:
        records.append(
            client.solve(workflow=payload, gamma=2, kind="cardinality")
        )

    threads = [threading.Thread(target=submit) for _ in range(K)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    metrics = client.metrics()
    print(
        f"\ncoalescing: {K} identical concurrent requests -> "
        f"{metrics['cache']['derivation_misses']} derivation(s), "
        f"{metrics['coalesced']} coalesced, "
        f"all costs {{{records[0]['cost']:.1f}}}"
    )

    # -- 2. an overlapping workflow reuses the module tier -------------------
    modules[0] = random_total_module(99, 5, 3, "m0", "s0_")  # re-roll one table
    edited = Workflow(list(modules), name="demo-edited")
    client.solve(workflow=workflow_to_dict(edited), gamma=2, kind="cardinality")
    metrics = client.metrics()
    print(
        "module reuse: the edited workflow re-derived "
        f"{metrics['cache']['rederived_modules'] - len(modules)} module(s) and "
        f"reused {metrics['cache']['reused_modules']} from the shared tier"
    )

    # -- 3. an async sweep job: handle now, records in the background --------
    handle = client.sweep_async(
        workflows=[payload, workflow_to_dict(edited)],
        gammas=[2],
        kinds=["cardinality"],
        solvers=["auto"],
        seeds=list(range(5)),
    )
    print(
        f"\nasync job {handle['job']}: submitted {handle['cells']} cells, "
        f"state {handle['state']!r} before any ran"
    )

    def show_progress(status: dict) -> None:
        landed = status["completed"] + status["failed"]
        print(f"  poll: {status['state']} {landed}/{status['cells']} cell(s)")

    final = client.wait_job(handle["job"], timeout=120, poll=0.05,
                            on_progress=show_progress)
    print(
        f"job finished {final['state']!r}: {final['completed']} completed / "
        f"{final['failed']} failed in {final['seconds']:.3f}s; "
        f"jobs metrics: {client.metrics()['jobs']}"
    )

    # -- 4. graceful shutdown ------------------------------------------------
    print(f"\nshutdown: {client.shutdown()['status']}")
    server._thread.join(timeout=30)
    print(f"server thread alive: {server._thread.is_alive()} (drained and closed)")

    # -- 5. a two-replica fleet on one store ---------------------------------
    # `repro fleet --replicas 2 --store DIR --port 8080` is the CLI
    # spelling.  Each replica is a full `repro serve` subprocess; the front
    # proxies /v1 with round-robin routing, drops draining/unreachable
    # replicas from rotation, and respawns dead ones.  The replicas run
    # with no in-memory result cache so the cross-replica reuse below is
    # visibly the *shared store's* result tier at work.
    import shutil
    import tempfile

    from repro.service import FleetSupervisor

    store_dir = tempfile.mkdtemp(prefix="demo-fleet-store-")
    supervisor = FleetSupervisor(
        replicas=2, store=store_dir, port=0,
        serve_argv=["--workers", "2", "--result-cache-size", "0"],
    )
    supervisor.start()
    try:
        client = ServiceClient(supervisor.url)
        for _ in range(4):
            record = client.solve(workflow=payload, gamma=2, kind="cardinality")
        metrics = client.metrics()
        per_replica = {
            rid: block["requests"]["solve"]
            for rid, block in metrics["replicas"].items()
        }
        print(
            f"\nfleet: 4 identical requests over {metrics['fleet']['replicas']} "
            f"replicas ({per_replica} solves/replica) -> "
            f"{metrics['totals']['cache']['derivation_misses']} derivation "
            f"fleet-wide, {metrics['totals']['result_hits']['store']} store "
            f"result hit(s); last answer from_store={record['from_store']}"
        )

        summary = supervisor.rolling_restart(drain_timeout=60)
        health = client.healthz()
        print(
            f"rolling restart: cycled {summary['restarted']} one at a time "
            f"(drain -> respawn -> readmit); fleet now {health['status']!r} "
            f"with {health['in_rotation']} replica(s) in rotation"
        )
    finally:
        supervisor.stop(drain_timeout=60)
        shutil.rmtree(store_dir, ignore_errors=True)
    print("fleet drained and stopped")


if __name__ == "__main__":
    main()
