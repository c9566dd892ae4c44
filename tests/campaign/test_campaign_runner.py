"""Campaign execution: throughput plumbing, persistence, and reports.

The acceptance spine: a campaign's makespans are bit-identical to direct
``execute_job`` runs, and an immediately repeated campaign over the same
store completes with **zero** executions.
"""

import threading

import pytest

from repro.campaign import CampaignSpec, CampaignRunner, render_report
from repro.campaign.runner import RUN_TABLE_COLUMNS, throughput_order
from repro.data import clear_memo, memo_stats
from repro.serve import JobServer, JobSpec, ServeClient, execute_job
from repro.util.errors import ValidationError


def _campaign(**over):
    doc = {
        "name": "t",
        "axes": {
            "app": ["heat3d", "kmeans"],
            "preset": "laptop",
            "mix": "cpu",
            "nodes": [1, 2],
            "seed": [0],
        },
        "app_params": {
            "heat3d": {"functional_shape": [8, 8, 8], "simulated_steps": 2},
            "kmeans": {"functional_points": 64, "n_points": 2000, "iterations": 2},
        },
        "backend": None,
    }
    doc.update(over)
    return CampaignSpec.from_dict(doc)


class CountingExecutor:
    """Real execution, counted (and optionally delayed) per call."""

    def __init__(self) -> None:
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def __call__(self, spec: JobSpec) -> dict:
        with self._lock:
            self.calls.append(spec.content_hash())
        return execute_job(spec)


def test_local_run_table_schema_and_exactness(tmp_path):
    campaign = _campaign()
    executor = CountingExecutor()
    result = CampaignRunner(
        campaign, store=tmp_path, executor=executor, rank_budget=8
    ).run()
    assert result.ok and len(result.rows) == 4
    for row in result.rows:
        for col in RUN_TABLE_COLUMNS:
            assert col in row, f"run-table row missing {col!r}"
    # bit-identical to direct execution, point by point
    for spec, row in zip(campaign.expand(), result.rows):
        direct = execute_job(spec)
        assert repr(row["makespan"]) == repr(direct["makespan"])
        assert repr(row["speedup"]) == repr(direct["speedup"])
    stats = result.stats
    assert stats["executed"] == 4 and stats["points"] == 4
    assert stats["mode"] == "local" and stats["wall_s"] > 0


def test_warm_rerun_executes_nothing(tmp_path):
    campaign = _campaign()
    first = CountingExecutor()
    CampaignRunner(campaign, store=tmp_path, executor=first).run()
    assert len(first.calls) == 4
    second = CountingExecutor()
    warm = CampaignRunner(campaign, store=tmp_path, executor=second).run()
    assert warm.ok
    assert second.calls == []  # the whole sweep answered from disk
    assert warm.stats["executed"] == 0
    assert warm.stats["store_hits"] == 4
    assert all(row["cached"] for row in warm.rows)


def test_extended_campaign_executes_only_new_points(tmp_path):
    CampaignRunner(_campaign(), store=tmp_path, executor=CountingExecutor()).run()
    bigger = _campaign()
    bigger = CampaignSpec.from_dict({**bigger.to_dict(), "axes": {
        **{k: list(v) for k, v in bigger.axes.items()}, "nodes": [1, 2, 4]}})
    executor = CountingExecutor()
    result = CampaignRunner(bigger, store=tmp_path, executor=executor).run()
    assert result.ok and len(result.rows) == 6
    assert len(executor.calls) == 2  # only the nodes=4 points are new


def test_duplicate_points_execute_once(tmp_path):
    campaign = _campaign()
    dup = campaign.expand()[0].to_dict()
    campaign = CampaignSpec.from_dict({**campaign.to_dict(), "points": [dup]})
    executor = CountingExecutor()
    result = CampaignRunner(campaign, executor=executor).run()
    assert len(result.rows) == 5 and result.ok
    assert len(executor.calls) == 4  # the duplicate rode the first execution
    assert result.stats["deduplicated"] == 1
    a, b = result.rows[0], result.rows[4]
    assert a["spec_hash"] == b["spec_hash"]
    assert repr(a["makespan"]) == repr(b["makespan"])


def test_throughput_order_widest_first():
    specs = _campaign().expand()
    order = throughput_order(specs)
    ranks = [specs[i].ranks for i in order]
    assert ranks == sorted(ranks, reverse=True)
    # ties keep expansion order (stable)
    ties = [i for i in order if specs[i].ranks == ranks[-1]]
    assert ties == sorted(ties)


def test_points_sharing_a_seed_generate_their_dataset_once():
    base = _campaign()
    campaign = _campaign(
        axes={**base.axes, "app": ["kmeans"]},
        app_params={"kmeans": base.app_params["kmeans"]},
    )
    assert len(campaign.expand()) == 2  # kmeans at 1 and 2 nodes, one seed
    clear_memo()
    try:
        assert CampaignRunner(campaign).run().ok
        stats = memo_stats()
        assert stats["misses"] == 1  # generated once, whichever job got there first
        assert stats["hits"] == 2  # the other two of the 1 + 2 ranks
    finally:
        clear_memo()


def test_failed_points_reported_not_fatal(tmp_path):
    def executor(spec):
        if spec.app == "kmeans":
            raise RuntimeError("boom")
        return execute_job(spec)

    result = CampaignRunner(_campaign(), store=tmp_path, executor=executor).run()
    assert not result.ok
    failed = result.failures()
    assert {r["app"] for r in failed} == {"kmeans"}
    assert all("boom" in r["error"] for r in failed)
    done = [r for r in result.rows if r["state"] == "done"]
    assert {r["app"] for r in done} == {"heat3d"}


def test_empty_campaign_rejected():
    campaign = _campaign()
    with pytest.raises(ValidationError, match="expands to no points"):
        # n_points >= 1 by construction, so fake an empty expansion
        runner = CampaignRunner(campaign)
        runner.campaign = CampaignSpec.from_dict(campaign.to_dict())
        object.__setattr__(runner.campaign, "axes", {"app": ()})
        runner.run()


def test_remote_run_via_batch_endpoint(tmp_path):
    campaign = _campaign()
    executor = CountingExecutor()
    with JobServer(port=0, executor=executor, store_dir=tmp_path) as server:
        result = CampaignRunner(campaign, client=ServeClient(server.url)).run()
    assert result.ok and result.stats["mode"] == "remote"
    assert result.stats["executed"] == 4 == len(executor.calls)
    # a second server over the same store: cold LRU, zero executions
    second = CountingExecutor()
    with JobServer(port=0, executor=second, store_dir=tmp_path) as server:
        warm = CampaignRunner(campaign, client=ServeClient(server.url)).run()
    assert warm.ok and second.calls == []
    assert warm.stats["executed"] == 0 and warm.stats["store_hits"] == 4
    # remote and local agree bit-for-bit
    for spec, row in zip(campaign.expand(), warm.rows):
        assert repr(row["makespan"]) == repr(execute_job(spec)["makespan"])


def test_a_warm_rerun_larger_than_the_job_table_still_reports_every_point(tmp_path, monkeypatch):
    """Four store hits against a table that keeps two finished jobs: two ids
    are retired (410) before anyone asks for their results."""
    import functools

    import repro.campaign.runner as runner_module
    from repro.serve import JobScheduler

    campaign = _campaign()
    cold = CampaignRunner(campaign, store=tmp_path, executor=CountingExecutor()).run()
    with JobServer(port=0, max_queued=2, store_dir=tmp_path) as server:
        remote = CampaignRunner(campaign, client=ServeClient(server.url)).run()
        assert server.scheduler.stats()["jobs"] == 2
    monkeypatch.setattr(
        runner_module, "JobScheduler", functools.partial(JobScheduler, max_queued=2)
    )
    local = CampaignRunner(campaign, store=tmp_path, executor=CountingExecutor()).run()
    for warm in (remote, local):
        assert warm.ok and warm.stats["executed"] == 0
        assert [repr(row["makespan"]) for row in warm.rows] == [
            repr(row["makespan"]) for row in cold.rows
        ]


def test_status_probes_store_without_executing(tmp_path):
    campaign = _campaign()
    runner = CampaignRunner(campaign, store=tmp_path, executor=CountingExecutor())
    before = runner.status()
    assert before["points"] == 4 and before["stored"] == 0
    runner.run()
    after = runner.status()
    assert after["stored"] == 4 and after["missing"] == 0


def test_render_report_shapes(tmp_path):
    campaign = _campaign()
    result = CampaignRunner(campaign, store=tmp_path, executor=CountingExecutor()).run()
    text = render_report(result.to_dict())
    assert "campaign 't'" in text
    assert "mean speedup" in text
    assert "speedup vs nodes" in text  # two node counts -> scaling curves
    assert "| app" in text  # the run table itself
