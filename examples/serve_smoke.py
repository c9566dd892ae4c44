"""Job-service smoke: a mixed batch over HTTP, bit-identical to direct runs.

Starts the multi-tenant job server in-process, submits a mixed batch of
jobs over its HTTP API — heat3d, kmeans, moldyn, plus a faulty
checkpointed heat3d run — then checks that every job completes, that each
served makespan is bit-identical (repr-equal) to running the same spec
directly through the engine, and that resubmitting an identical spec is
answered from the content-addressed result cache without re-execution.
While the batch drains it reads ``/stats`` and requires the one-job rule (at
most one in-process job ``running``, one job's worth of threads) and, once
the first job has ended, at most one generated input in the dataset memo
(each spec is its own admission, released when its job ends); afterwards
that the job table's ``by_state`` counters sum to ``jobs``.
Ends by checking that waiting cost one status request per job (the server
holds ``GET /jobs/<id>?wait=`` until the job is done; nothing polls), that
the now idle server holds no generated input and printing what the process
holds, as ``/stats`` reports it.

This is also the CI "service smoke" step.

Usage:  python examples/serve_smoke.py
"""

import sys

from repro.faults import FaultPlan, RankCrash
from repro.serve import JobServer, JobSpec, ServeClient, execute_job

HEAT = {"functional_shape": [12, 12, 12], "simulated_steps": 2}
BATCH = [
    JobSpec(app="heat3d", nodes=2, preset="laptop", mix="cpu", params=HEAT),
    JobSpec(
        app="kmeans",
        nodes=2,
        preset="laptop",
        mix="cpu",
        params={"functional_points": 3000, "k": 8},
    ),
    JobSpec(
        app="moldyn",
        nodes=2,
        preset="laptop",
        mix="cpu",
        params={"functional_nodes": 800, "simulated_steps": 2},
    ),
    # One lossy run that crashes rank 1 and recovers from a checkpoint.
    JobSpec(
        app="heat3d",
        nodes=2,
        preset="laptop",
        mix="cpu",
        params={"functional_shape": [12, 12, 12], "simulated_steps": 4},
        options={"reliable": True, "checkpoint_every": 2},
        fault_plan=FaultPlan.lossy(
            seed=7,
            drop=0.02,
            dup=0.01,
            delay=0.02,
            max_delay=1e-4,
            crashes=[RankCrash(rank=1, at_time=0.05, restart_cost=0.5)],
        ).to_dict(),
    ),
]


def main() -> None:
    print(f"direct runs ({len(BATCH)} specs) ...")
    direct = [execute_job(spec) for spec in BATCH]

    with JobServer(port=0, rank_budget=8) as server:
        client = ServeClient(server.url)
        print(f"server up at {server.url}; submitting the same batch")
        idle = client.stats().get("process", {}).get("threads")  # no /proc, no count
        jobs = [client.submit(spec) for spec in BATCH]
        watched = 1
        while True:  # one job holds the interpreter; the others wait as "queued"
            stats = client.stats()
            watched += 1
            assert stats["by_state"].get("running", 0) <= 1, stats["by_state"]
            # A job thread, its ranks (pooled since the direct runs) and this
            # request's handler: 8 of 12 threads in a process of its own.
            assert idle is None or stats["process"]["threads"] <= idle + 4, (idle, stats["process"])
            # Each spec is its own admission: once one has ended, the memo holds
            # at most the input of the job running now (the direct runs' three
            # stayed until the queue drained when that was the rule).
            if stats["executed"] >= 1:
                assert stats["datasets"]["size"] <= 1, stats["datasets"]
            if stats["queued"] == 0 and stats["ranks_in_use"] == 0:
                break
        for spec, job, expected in zip(BATCH, jobs, direct):
            done = client.wait(job["id"], timeout=600.0)
            assert done["state"] == "done", (spec.app, done)
            served = client.result(job["id"])["result"]
            match = repr(served["makespan"]) == repr(expected["makespan"])
            assert match, (spec.app, served["makespan"], expected["makespan"])
            print(
                f"  {job['id']}  {spec.app:<7} makespan={served['makespan']!r}"
                "  == direct run"
            )
        faulty = client.result(jobs[-1]["id"])["result"]
        assert faulty["fault_stats"]["crashes_consumed"] == 1

        again = client.submit(BATCH[0])
        assert again["cached"] and again["state"] == "done"
        stats = client.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["executed"] == len(BATCH)  # the resubmit ran nothing
        print(
            f"resubmit: cache hit ({stats['cache']['hits']} hit, "
            f"{stats['executed']} jobs executed)"
        )
        assert stats["jobs"] == len(BATCH) + 1 == sum(stats["by_state"].values()), stats
        # No job was polled: each was one submit, one held status request and
        # one result; then the faulty job's result again, the resubmit, this —
        # and the /stats reads that watched the batch drain.
        assert stats["http"]["requests"] == 3 * len(BATCH) + 3 + watched, stats["http"]
        # Every job has been waited for: nothing is admitted, so no input is held.
        datasets = stats["datasets"]
        assert datasets["bytes"] == 0 and datasets["evictions"] > 0, datasets
        if sys.platform == "linux":  # elsewhere there is no /proc to read it from
            assert "process" in stats, sorted(stats)
            print(
                f"server holds: peak RSS {stats['process']['peak_rss_mb']:.1f} MiB, "
                f"{stats['process']['threads']} threads, "
                f"dataset memo {datasets['bytes']} bytes "
                f"({datasets['evictions']} inputs released)"
            )
    print("service smoke OK: all jobs bit-identical to direct runs")


if __name__ == "__main__":
    main()
