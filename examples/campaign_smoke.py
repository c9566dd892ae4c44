"""Campaign smoke: a 2-app x 2-preset x 2-seed sweep through the job service.

Runs one declarative campaign twice against servers sharing a persistent
result store, and once in-process:

1. **Cold**: every point travels in one ``POST /jobs/batch``, executes
   under the scheduler's rank budget, and lands in the store.  The run
   table must carry the full schema and every makespan must be
   bit-identical (repr-equal) to a direct ``execute_job`` of the same
   spec.
2. **Warm**: a *fresh* server (cold in-memory cache) over the same store
   directory answers the identical campaign with **zero** executions —
   every point is a persistent-store hit.
3. **In-process**: the same campaign with no server (a private scheduler,
   no port) gives the cold run's rows, every column but ``job_id`` equal,
   and the same counts: one job API, two transports.

This is also the CI "campaign smoke" step.

Usage:  python examples/campaign_smoke.py
"""

import tempfile

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.runner import RUN_TABLE_COLUMNS
from repro.serve import JobServer, ServeClient, execute_job

CAMPAIGN = CampaignSpec.from_dict(
    {
        "name": "smoke",
        "axes": {
            "app": ["heat3d", "kmeans"],
            "preset": ["laptop", "latency"],
            "mix": "cpu",
            "nodes": [2],
            "seed": [0, 1],
        },
        "app_params": {
            "heat3d": {"functional_shape": [12, 12, 12], "simulated_steps": 2},
            "kmeans": {"functional_points": 3000, "k": 8, "iterations": 2},
        },
        "backend": None,
    }
)


def main() -> None:
    specs = CAMPAIGN.expand()
    print(f"campaign {CAMPAIGN.name!r}: {len(specs)} points "
          f"(2 apps x 2 presets x 2 seeds)")

    with tempfile.TemporaryDirectory() as store:
        with JobServer(port=0, rank_budget=16, store_dir=store) as server:
            print(f"cold run via {server.url} (one POST /jobs/batch) ...")
            cold = CampaignRunner(CAMPAIGN, client=ServeClient(server.url)).run()
        assert cold.ok, cold.failures()
        assert cold.stats["executed"] == len(specs), cold.stats
        for row in cold.rows:
            missing = [c for c in RUN_TABLE_COLUMNS if c not in row]
            assert not missing, f"run-table row missing {missing}"
        for spec, row in zip(specs, cold.rows):
            direct = execute_job(spec)
            assert repr(row["makespan"]) == repr(direct["makespan"]), (
                spec.app, row["makespan"], direct["makespan"],
            )
        print(f"  {len(specs)} executed, all makespans == direct runs, "
              "run-table schema OK")

        with JobServer(port=0, rank_budget=16, store_dir=store) as server:
            print("warm run on a FRESH server over the same store ...")
            warm = CampaignRunner(CAMPAIGN, client=ServeClient(server.url)).run()
        assert warm.ok, warm.failures()
        assert warm.stats["executed"] == 0, warm.stats
        assert warm.stats["store_hits"] == len(specs), warm.stats
        assert all(row["cached"] for row in warm.rows)
        for a, b in zip(cold.rows, warm.rows):
            assert repr(a["makespan"]) == repr(b["makespan"])
        print(f"  0 executed, {warm.stats['store_hits']} store hits — "
              "the store answered the whole sweep")

    print("in-process run (no server) ...")
    local = CampaignRunner(CAMPAIGN, rank_budget=16).run()
    assert local.ok, local.failures()
    for key in ("executed", "cache_hits", "store_hits"):
        assert local.stats[key] == cold.stats[key], (key, local.stats, cold.stats)
    for a, b in zip(cold.rows, local.rows):
        assert {**a, "job_id": None} == {**b, "job_id": None}, (a, b)
    print(f"  {len(specs)} rows == the served cold run's, job_id aside")

    print("campaign smoke OK: batched sweep bit-identical, warm re-run free, "
          "in-process == served")


if __name__ == "__main__":
    main()
