"""Scheduler policy: budgets, priorities, cache, cancel — no real sims.

Every test drives :class:`JobScheduler` with a *gated* fake executor
(jobs block on events until the test releases them), so queue/budget
behaviour is observed deterministically and instantly.
"""

import threading
import time

import pytest

from repro.serve.cache import ResultCache
from repro.serve.scheduler import AdmissionError, JobScheduler
from repro.serve.spec import JobSpec
from repro.util.errors import ValidationError


def _spec(seed: int, nodes: int = 2, priority: int = 0) -> JobSpec:
    return JobSpec(
        app="heat3d",
        nodes=nodes,
        preset="laptop",
        priority=priority,
        params={"seed": seed},
    )


class GatedExecutor:
    """Fake executor: each job signals 'started' and waits to be released."""

    def __init__(self) -> None:
        self.calls: list[int] = []
        self.started: dict[int, threading.Event] = {}
        self.release: dict[int, threading.Event] = {}
        self._lock = threading.Lock()

    def expect(self, *seeds: int) -> None:
        for seed in seeds:
            self.started[seed] = threading.Event()
            self.release[seed] = threading.Event()

    def __call__(self, spec: JobSpec) -> dict:
        seed = spec.params.get("seed", 0)
        with self._lock:
            self.calls.append(seed)
        self.started[seed].set()
        assert self.release[seed].wait(10.0), f"job seed={seed} never released"
        if seed == 13:
            raise RuntimeError("unlucky seed")
        return {"makespan": float(seed)}


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


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
    jobs = [scheduler.submit(_spec(seed)) for seed in (1, 2, 3)]
    executor.started[1].wait(5.0)
    executor.started[2].wait(5.0)
    stats = scheduler.stats()
    assert stats["ranks_in_use"] == 4 == stats["rank_budget"]
    assert jobs[2].state == "queued" and not executor.started[3].is_set()
    for seed in (1, 2, 3):
        executor.release[seed].set()
    for job, seed in zip(jobs, (1, 2, 3)):
        done = scheduler.wait(job.id, timeout=10.0)
        assert done.state == "done" and done.result == {"makespan": float(seed)}
    assert scheduler.stats()["ranks_in_use"] == 0


def test_budget_never_exceeded(gated):
    executor, scheduler = gated
    executor.expect(*range(1, 7))
    jobs = [scheduler.submit(_spec(seed)) for seed in range(1, 7)]
    peak = 0
    for _ in range(50):
        peak = max(peak, scheduler.stats()["ranks_in_use"])
        time.sleep(0.002)
    for seed in range(1, 7):
        executor.release[seed].set()
    for job in jobs:
        scheduler.wait(job.id, timeout=10.0)
        peak = max(peak, scheduler.stats()["ranks_in_use"])
    assert peak <= 4


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
    # the cancelled job never dispatches, even once budget frees
    time.sleep(0.05)
    assert not executor.started[2].is_set()


def test_failed_job_reports_error(gated):
    executor, scheduler = gated
    executor.expect(13)
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


def test_constructor_validation():
    with pytest.raises(ValidationError):
        JobScheduler(lambda spec: {}, rank_budget=0)
    with pytest.raises(ValidationError):
        JobScheduler(lambda spec: {}, max_queued=-1)


# ------------------------------------------------- fairness (anti-starvation)
def test_wide_job_not_starved_by_small_stream():
    """Aging regression: a wide high-priority job must not starve forever
    behind a stream of small jobs that backfill can always fit.

    With the pre-aging dispatcher this test fails: every time a rank pair
    frees, another small job fits and the 4-rank job waits until the small
    queue is completely dry.
    """
    executor = GatedExecutor()
    scheduler = JobScheduler(
        executor, rank_budget=4, cache=ResultCache(8), starvation_limit=2
    )
    try:
        executor.expect(0, 10, 1, 2, 3)
        blocker = scheduler.submit(_spec(0))  # 2 ranks running
        executor.started[0].wait(5.0)
        wide = scheduler.submit(_spec(10, nodes=4, priority=5))  # whole budget
        smalls = [scheduler.submit(_spec(seed)) for seed in (1, 2, 3)]
        # 2 ranks free -> wide can't fit -> s1 backfills (pass-over #1)
        executor.started[1].wait(5.0)
        executor.release[0].set()
        scheduler.wait(blocker.id, timeout=10.0)
        # blocker done -> 2 free again -> s2 backfills (pass-over #2)
        executor.started[2].wait(5.0)
        executor.release[1].set()
        scheduler.wait(smalls[0].id, timeout=10.0)
        # s1 done -> 2 free, but wide has hit the starvation limit: the
        # budget drains for it instead of dispatching s3.
        time.sleep(0.05)
        assert not executor.started[3].is_set(), (
            "small job jumped a starving wide job beyond the aging limit"
        )
        assert scheduler.get(wide.id).state == "queued"
        executor.release[2].set()
        scheduler.wait(smalls[1].id, timeout=10.0)
        # full budget free -> the wide job finally dispatches, ahead of s3
        executor.started[10].wait(5.0)
        assert not executor.started[3].is_set()
        stats = scheduler.stats()["fairness"]
        assert stats["pass_overs"] >= 2 and stats["reservations"] >= 1
        executor.release[10].set()
        scheduler.wait(wide.id, timeout=10.0)
        executor.started[3].wait(5.0)
        executor.release[3].set()
        scheduler.wait(smalls[2].id, timeout=10.0)
    finally:
        for event in executor.release.values():
            event.set()
        scheduler.shutdown()


def test_starvation_limit_validation():
    with pytest.raises(ValidationError):
        JobScheduler(lambda spec: {}, starvation_limit=0)


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


def test_stats_utilization_gauges(gated):
    executor, scheduler = gated
    executor.expect(1)
    job = scheduler.submit(_spec(1))  # 2 of 4 ranks
    executor.started[1].wait(5.0)
    time.sleep(0.03)  # accrue some busy rank-seconds
    util = scheduler.stats()["utilization"]
    assert util["ranks_in_use"] == 2 and util["rank_budget"] == 4
    assert util["instantaneous"] == pytest.approx(0.5)
    executor.release[1].set()
    scheduler.wait(job.id, timeout=10.0)
    util = scheduler.stats()["utilization"]
    assert util["ranks_in_use"] == 0
    assert util["busy_rank_seconds"] > 0.0
    assert 0.0 < util["average"] <= 1.0
