"""Scheduler policy: one in-process job, budgets, priorities, cache, cancel,
the bounded table — no real sims.

Every test drives :class:`JobScheduler` with a *gated* fake executor
(jobs block on events until the test releases them), so queue/budget
behaviour is observed deterministically and instantly.  Only
``backend="processes"`` jobs run side by side, so the tests of budget
packing and aging submit those (``_worker``); under the fake executor they
start no process.
"""

import threading

import pytest

import repro.serve.scheduler as scheduler_module
from repro.serve.cache import ResultCache
from repro.serve.scheduler import AdmissionError, JobRetired, JobScheduler
from repro.serve.spec import JobSpec
from repro.util.errors import ValidationError
from tests.conftest import GatedExecutor, wait_until


def _spec(seed: int, nodes: int = 2, priority: int = 0, backend: str | None = None) -> JobSpec:
    return JobSpec(
        app="heat3d",
        nodes=nodes,
        preset="laptop",
        priority=priority,
        backend=backend,
        params={"seed": seed},
    )


def _worker(seed: int, nodes: int = 2, priority: int = 0) -> JobSpec:
    return _spec(seed, nodes, priority, backend="processes")


@pytest.fixture
def gated():
    executor = GatedExecutor()
    scheduler = JobScheduler(executor, rank_budget=4, cache=ResultCache(8))
    yield executor, scheduler
    for event in executor.release.values():
        event.set()
    scheduler.shutdown()


def test_jobs_beyond_budget_queue_not_crash(gated):
    executor, scheduler = gated
    executor.expect(1, 2, 3)
    jobs = [scheduler.submit(_worker(seed)) for seed in (1, 2, 3)]
    assert executor.started[1].wait(5.0)
    assert executor.started[2].wait(5.0)
    stats = scheduler.stats()
    assert stats["ranks_in_use"] == 4 == stats["rank_budget"]
    assert jobs[2].state == "queued" and not executor.started[3].is_set()
    for seed in (1, 2, 3):
        executor.release[seed].set()
    for job, seed in zip(jobs, (1, 2, 3)):
        done = scheduler.wait(job.id, timeout=10.0)
        assert done.state == "done" and done.result == {"makespan": float(seed)}
    assert scheduler.stats()["ranks_in_use"] == 0


def test_in_process_jobs_run_one_at_a_time_within_a_budget_that_fits_two(gated):
    executor, scheduler = gated
    executor.expect(1, 2, 3)
    jobs = [scheduler.submit(_spec(seed)) for seed in (1, 2, 3)]
    for i, seed in enumerate((1, 2, 3)):
        assert executor.started[seed].wait(5.0)
        stats = scheduler.stats()
        assert stats["ranks_in_use"] == 2 and stats["by_state"]["running"] == 1
        # A job that waits for the interpreter is queued: no thread, no start time.
        assert [job.state for job in jobs[i + 1 :]] == ["queued"] * (2 - i)
        assert all(job.started_at is None for job in jobs[i + 1 :])
        assert sum(t.name.startswith("serve-j") for t in threading.enumerate()) == 1
        executor.release[seed].set()
        done = scheduler.wait(jobs[i].id, timeout=10.0)
        assert done.state == "done" and done.result == {"makespan": float(seed)}
    assert executor.calls == [1, 2, 3] and executor.peak_in_process == 1
    assert [a.finished_at <= b.started_at for a, b in zip(jobs, jobs[1:])] == [True, True]
    stats = scheduler.stats()
    assert stats["ranks_in_use"] == 0 and stats["fairness"]["pass_overs"] == 0


def test_budget_never_exceeded(gated):
    executor, scheduler = gated
    executor.expect(*range(1, 7))
    kinds = (_worker, _spec, _worker, _spec, _worker, _spec)  # a mixed stream
    jobs = [scheduler.submit(kind(seed)) for seed, kind in zip(range(1, 7), kinds)]
    for seed, job in zip(range(1, 7), jobs):
        # Whatever can start has: the budget is full until the stream runs dry.
        wait_until(lambda: scheduler.stats()["ranks_in_use"] == min(4, 2 * (7 - seed)))
        executor.release[seed].set()
        assert scheduler.wait(job.id, timeout=10.0).state == "done"
    assert executor.peak_ranks == 4 and executor.peak_in_process == 1


def test_priority_dispatch_order(gated):
    executor, scheduler = gated
    executor.expect(0, 1, 2)
    blocker = scheduler.submit(_spec(0, nodes=4))
    executor.started[0].wait(5.0)
    low = scheduler.submit(_spec(1, priority=0))
    high = scheduler.submit(_spec(2, nodes=4, priority=5))  # whole budget
    executor.release[0].set()
    executor.started[2].wait(5.0)  # the high-priority job dispatches first
    assert scheduler.get(low.id).state == "queued"
    assert not executor.started[1].is_set()
    executor.release[2].set()
    scheduler.wait(high.id, timeout=10.0)
    executor.started[1].wait(5.0)
    executor.release[1].set()
    scheduler.wait(low.id, timeout=10.0)
    assert blocker.state == "done"


def test_oversize_job_rejected(gated):
    _, scheduler = gated
    with pytest.raises(AdmissionError, match="never be scheduled") as excinfo:
        scheduler.submit(_spec(1, nodes=5))  # budget is 4
    assert excinfo.value.reason == "over_budget"


def test_queue_full_rejected():
    executor = GatedExecutor()
    scheduler = JobScheduler(executor, rank_budget=2, max_queued=1)
    try:
        executor.expect(1, 2, 3)
        scheduler.submit(_spec(1))
        executor.started[1].wait(5.0)
        scheduler.submit(_spec(2))  # fills the queue
        with pytest.raises(AdmissionError, match="queue is full") as excinfo:
            scheduler.submit(_spec(3))
        assert excinfo.value.reason == "queue_full"
    finally:
        for event in executor.release.values():
            event.set()
        scheduler.shutdown()


def test_cache_hit_completes_without_execution(gated):
    executor, scheduler = gated
    executor.expect(7)
    executor.release[7].set()
    first = scheduler.submit(_spec(7))
    scheduler.wait(first.id, timeout=10.0)
    assert executor.calls == [7]

    again = scheduler.submit(_spec(7))
    assert again.state == "done" and again.cached
    assert again.result == {"makespan": 7.0}
    assert executor.calls == [7]  # no re-execution
    assert scheduler.stats()["cache_hits"] == 1
    assert scheduler.stats()["cache"]["hits"] == 1


def test_cancel_queued_but_not_running(gated):
    executor, scheduler = gated
    executor.expect(1, 2, 3)
    running = scheduler.submit(_spec(1, nodes=4))
    executor.started[1].wait(5.0)
    queued = scheduler.submit(_spec(2))
    assert scheduler.cancel(queued.id)
    assert scheduler.get(queued.id).state == "cancelled"
    assert not scheduler.cancel(running.id)  # running jobs don't cancel
    executor.release[1].set()
    scheduler.wait(running.id, timeout=10.0)
    assert not scheduler.cancel(running.id)  # terminal jobs don't either
    # the cancelled job never dispatches, even once budget frees: a job
    # submitted after it would only start behind it
    scheduler.submit(_spec(3))
    assert executor.started[3].wait(5.0)
    assert not executor.started[2].is_set()


def test_failed_job_reports_error(gated):
    executor, scheduler = gated
    executor.expect(13)
    executor.fail.add(13)
    executor.release[13].set()
    job = scheduler.submit(_spec(13))
    done = scheduler.wait(job.id, timeout=10.0)
    assert done.state == "failed"
    assert "unlucky seed" in done.error
    assert scheduler.cache.stats()["size"] == 0  # failures are not cached


def test_wait_timeout_and_unknown_job(gated):
    executor, scheduler = gated
    executor.expect(1)
    job = scheduler.submit(_spec(1))
    with pytest.raises(TimeoutError):
        scheduler.wait(job.id, timeout=0.05)
    with pytest.raises(KeyError):
        scheduler.get("nope")
    executor.release[1].set()


def test_shutdown_cancels_queue():
    executor = GatedExecutor()
    scheduler = JobScheduler(executor, rank_budget=2)
    executor.expect(1, 2)
    running = scheduler.submit(_spec(1))
    executor.started[1].wait(5.0)
    queued = scheduler.submit(_spec(2))  # can't fit: stays queued
    scheduler.shutdown()
    assert scheduler.get(queued.id).state == "cancelled"
    with pytest.raises(AdmissionError, match="shut down") as excinfo:
        scheduler.submit(_spec(3))
    assert excinfo.value.reason == "shut_down"
    executor.release[1].set()  # let the in-flight job drain
    scheduler.wait(running.id, timeout=10.0)
    wait_until(lambda: not any(t.name.startswith("serve-") for t in threading.enumerate()))


def test_constructor_validation():
    with pytest.raises(ValidationError):
        JobScheduler(lambda spec: {}, rank_budget=0)
    with pytest.raises(ValidationError):
        JobScheduler(lambda spec: {}, max_queued=-1)


# ------------------------------------------------- fairness (anti-starvation)
def test_wide_job_not_starved_by_small_stream(monkeypatch):
    """Aging regression: a wide high-priority job must not starve forever
    behind a stream of small jobs that backfill can always fit.

    With the pre-aging dispatcher this test fails: every time a rank pair
    frees, another small job fits and the 4-rank job waits until the small
    queue is completely dry.
    """
    monkeypatch.setattr(scheduler_module, "STARVATION_LIMIT", 2)
    executor = GatedExecutor()
    scheduler = JobScheduler(executor, rank_budget=4, cache=ResultCache(8))
    try:
        executor.expect(0, 10, 1, 2, 3)
        blocker = scheduler.submit(_worker(0))  # 2 ranks running
        assert executor.started[0].wait(5.0)
        wide = scheduler.submit(_worker(10, nodes=4, priority=5))  # whole budget
        smalls = [scheduler.submit(_worker(seed)) for seed in (1, 2, 3)]
        # 2 ranks free -> wide can't fit -> s1 backfills (pass-over #1)
        assert executor.started[1].wait(5.0)
        executor.release[0].set()
        scheduler.wait(blocker.id, timeout=10.0)
        # blocker done -> 2 free again -> s2 backfills (pass-over #2)
        assert executor.started[2].wait(5.0)
        executor.release[1].set()
        scheduler.wait(smalls[0].id, timeout=10.0)
        # s1 done -> 2 free, but wide has hit the starvation limit: the
        # budget drains for it instead of dispatching s3.
        wait_until(lambda: scheduler.stats()["fairness"]["reservations"] >= 1)
        assert not executor.started[3].is_set(), (
            "small job jumped a starving wide job beyond the aging limit"
        )
        assert scheduler.get(wide.id).state == "queued"
        executor.release[2].set()
        scheduler.wait(smalls[1].id, timeout=10.0)
        # full budget free -> the wide job finally dispatches, ahead of s3
        assert executor.started[10].wait(5.0)
        assert not executor.started[3].is_set()
        assert scheduler.stats()["fairness"]["pass_overs"] >= 2
        executor.release[10].set()
        scheduler.wait(wide.id, timeout=10.0)
        assert executor.started[3].wait(5.0)
        executor.release[3].set()
        scheduler.wait(smalls[2].id, timeout=10.0)
    finally:
        for event in executor.release.values():
            event.set()
        scheduler.shutdown()


def test_in_process_job_waits_unaged_while_worker_jobs_pack_behind_it(monkeypatch):
    """The twin of the test above for the interpreter instead of the budget:
    waiting for it ages nobody and closes no gate, whatever the priorities —
    worker jobs ordered behind the waiting job fill the budget, and it starts,
    ahead of everything queued, the moment the interpreter is free."""
    monkeypatch.setattr(scheduler_module, "STARVATION_LIMIT", 1)
    executor = GatedExecutor()
    scheduler = JobScheduler(executor, rank_budget=6, cache=ResultCache(8))
    try:
        executor.expect(0, 10, 11, 1, 2, 3)
        holder = scheduler.submit(_spec(0))  # holds the interpreter
        assert executor.started[0].wait(5.0)
        urgent = scheduler.submit(_spec(10, priority=5))
        later = scheduler.submit(_spec(11))
        workers = [scheduler.submit(_worker(seed)) for seed in (1, 2, 3)]
        assert executor.started[1].wait(5.0) and executor.started[2].wait(5.0)
        assert scheduler.stats()["ranks_in_use"] == 6  # w3 waits for the budget, as ever
        assert [urgent.state, later.state, workers[2].state] == ["queued"] * 3
        executor.release[1].set()
        scheduler.wait(workers[0].id, timeout=10.0)
        assert executor.started[3].wait(5.0)  # ... and gets it, past two waiting jobs
        fairness = scheduler.stats()["fairness"]
        assert fairness["pass_overs"] == fairness["reservations"] == 0
        assert urgent.passed_over == later.passed_over == 0
        # The interpreter frees: the higher priority waited for exactly one job.
        executor.release[0].set()
        scheduler.wait(holder.id, timeout=10.0)
        assert executor.started[10].wait(5.0) and later.state == "queued"
        executor.release[10].set()
        scheduler.wait(urgent.id, timeout=10.0)
        assert executor.started[11].wait(5.0)
        assert executor.peak_in_process == 1 and executor.peak_ranks == 6
    finally:
        for event in executor.release.values():
            event.set()
        scheduler.shutdown()


# ------------------------------------------------------------- batched submit
def test_submit_many_mixed_outcomes(gated):
    executor, scheduler = gated
    executor.expect(1, 2)
    for seed in (1, 2):
        executor.release[seed].set()
    outcomes = scheduler.submit_many(
        [_spec(1), _spec(2, nodes=5), _spec(2)]  # nodes=5 > rank budget 4
    )
    assert [o["ok"] for o in outcomes] == [True, False, True]
    assert "never be scheduled" in outcomes[1]["error"]
    for outcome in (outcomes[0], outcomes[2]):
        done = scheduler.wait(outcome["job"].id, timeout=10.0)
        assert done.state == "done"
    assert scheduler.stats()["batches"] == 1


def test_submit_many_admits_the_batch_before_the_dispatcher_sees_any_of_it(gated):
    executor, scheduler = gated
    executor.expect(1, 2, 3)
    for seed in (1, 2, 3):
        executor.release[seed].set()
    outcomes = scheduler.submit_many([_spec(1), _spec(2, priority=1), _spec(3, priority=2)])
    for outcome in outcomes:
        scheduler.wait(outcome["job"].id, timeout=10.0)
    assert executor.calls == [3, 2, 1]  # spec by spec, an idle scheduler starts job 1 first


def test_stats_utilization_gauges(gated):
    executor, scheduler = gated
    executor.expect(1)
    job = scheduler.submit(_spec(1))  # 2 of 4 ranks
    assert executor.started[1].wait(5.0)
    wait_until(lambda: scheduler.stats()["utilization"]["busy_rank_seconds"] > 0.0)
    util = scheduler.stats()["utilization"]
    assert util["ranks_in_use"] == 2 and util["rank_budget"] == 4
    assert util["instantaneous"] == pytest.approx(0.5)
    executor.release[1].set()
    scheduler.wait(job.id, timeout=10.0)
    util = scheduler.stats()["utilization"]
    assert util["ranks_in_use"] == 0
    assert util["busy_rank_seconds"] > 0.0
    assert 0.0 < util["average"] <= 1.0


# ------------------------------------------------------ the bounded job table
def test_table_keeps_every_live_job_and_the_last_max_queued_terminal_ones():
    executor = GatedExecutor()
    scheduler = JobScheduler(executor, rank_budget=2, max_queued=3)
    try:
        executor.expect(*range(6))
        jobs = [scheduler.submit(_spec(seed)) for seed in range(3)]  # one running, two queued
        assert executor.started[0].wait(5.0)
        for seed in range(3):
            executor.release[seed].set()
            executor.release[seed + 3].set()
            scheduler.wait(jobs[seed].id, timeout=10.0)
            jobs.append(scheduler.submit(_spec(seed + 3)))
            table = scheduler.jobs()
            assert [job.seq for job in table] == sorted(job.seq for job in table)
            assert all(job in table for job in jobs if job.state in ("queued", "running"))
        for job in jobs[3:]:
            scheduler.wait(job.id, timeout=10.0)
        assert scheduler.jobs() == jobs[3:]
        hit = scheduler.submit(_spec(0))  # a cache hit is a terminal job like any other
        assert hit.cached and scheduler.jobs() == [jobs[4], jobs[5], hit]
        stats = scheduler.stats()
        assert stats["jobs"] == 3 and stats["by_state"] == {"done": 3}
        first = jobs
        # A retired job is complete for whoever still holds it, and says where it went.
        assert first[0].state == "done" and first[0].result == {"makespan": 0.0}
        with pytest.raises(JobRetired, match="resubmitting the spec"):
            scheduler.get(first[0].id)
        with pytest.raises(JobRetired):
            scheduler.wait(first[0].id, timeout=0.1)
        with pytest.raises(JobRetired):
            scheduler.cancel(first[0].id)
        for never_issued in ("nope", "j", "j00001", f"j99999-{first[0].id[7:]}", "j00001-000000",
                             first[0].id + "0", first[0].id.replace("j0", "j+"), ""):
            with pytest.raises(KeyError) as excinfo:
                scheduler.get(never_issued)
            assert excinfo.type is KeyError
    finally:
        for event in executor.release.values():
            event.set()
        scheduler.shutdown()


def test_a_refused_job_is_issued_no_id():
    executor = GatedExecutor()
    scheduler = JobScheduler(executor, rank_budget=2, max_queued=1)
    try:
        executor.expect(1, 2)
        running = scheduler.submit(_spec(1))
        assert executor.started[1].wait(5.0)
        queued = scheduler.submit(_spec(2))
        with pytest.raises(AdmissionError):
            scheduler.submit(_spec(3))
        assert [running.seq, queued.seq] == [1, 2]
        with pytest.raises(KeyError) as excinfo:
            scheduler.get(queued.id.replace("j00002", "j00003"))
        assert excinfo.type is KeyError  # not "retired"
    finally:
        for event in executor.release.values():
            event.set()
        scheduler.shutdown()


def test_a_store_that_cannot_write_does_not_wedge_the_scheduler(tmp_path):
    """A failed store write still ends the job ``done``, served from memory."""
    from repro.serve.store import ResultStore

    not_a_dir = tmp_path / "store"
    not_a_dir.write_text("a file where the store's root should be")
    store = ResultStore(not_a_dir)
    scheduler = JobScheduler(
        lambda spec: {"makespan": float(spec.params["seed"])},
        cache=ResultCache(8, store=store),
    )
    try:
        jobs = [scheduler.submit(_spec(seed)) for seed in (1, 2)]
        for job in jobs:
            assert scheduler.wait(job.id, timeout=5.0).state == "done"
        assert store.stats()["write_errors"] == 2 and store.stats()["writes"] == 0
        again = scheduler.submit(_spec(1))
        assert again.cached and again.cache_tier == "memory"
        assert scheduler.stats()["ranks_in_use"] == 0
    finally:
        scheduler.shutdown()


def test_a_slow_store_read_leaves_the_scheduler_answering(tmp_path):
    """The store lookup of a submission happens outside the scheduler's lock."""
    from repro.serve.store import ResultStore

    parked, release = threading.Event(), threading.Event()

    class SlowStore(ResultStore):
        def get(self, key):
            parked.set()
            assert release.wait(10.0)
            return super().get(key)

    executor = GatedExecutor()
    executor.expect(1)
    scheduler = JobScheduler(executor, cache=ResultCache(8, store=SlowStore(tmp_path)))
    submitter = threading.Thread(target=scheduler.submit, args=(_spec(1),))
    try:
        submitter.start()
        assert parked.wait(5.0)
        answered = threading.Event()
        probe = threading.Thread(target=lambda: (scheduler.stats(), answered.set()))
        probe.start()
        assert answered.wait(1.0), "stats() waited for a store read"
    finally:
        release.set()
        submitter.join(5.0)
        executor.release[1].set()
        scheduler.shutdown()
