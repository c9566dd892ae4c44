"""Generative check of the scheduler's promises (ROADMAP 4(b), first slice).

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`JobScheduler` with a gated stub executor through arbitrary
interleavings of submissions (in-process and worker specs, single and
batched, fresh and cache hits), cancellations, completions, failures and a
shutdown, and checks after every step what the scheduler promises whatever
the traffic: one in-process job at a time, the rank budget, dispatch order,
the bounded table with its two kinds of missing id, and counters that equal
a recount.

The real dispatcher thread runs, so every step ends by waiting until it has
nothing left to do.  ``_dispatchable`` says when, and is itself the
work-conservation check: a job that could start is never left queued.
"""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import repro.data as data
import repro.serve.scheduler as scheduler_module
from repro.data import clear_memo, memoized
from repro.serve.cache import ResultCache
from repro.serve.scheduler import TERMINAL_STATES, AdmissionError, JobRetired, JobScheduler
from repro.serve.spec import JobSpec
from tests.conftest import GatedExecutor, wait_until

RANK_BUDGET = 6
MAX_QUEUED = 4
STARVATION_LIMIT = 2

#: (runs in a worker?, nodes — 7 is over the budget forever, priority)
shapes = st.tuples(st.booleans(), st.integers(1, RANK_BUDGET + 1), st.integers(0, 2))


@pytest.fixture(autouse=True)
def _starvation_limit(monkeypatch):
    monkeypatch.setattr(scheduler_module, "STARVATION_LIMIT", STARVATION_LIMIT)


def _order(job):
    return (-job.spec.priority, job.seq)


@memoized
def job_input(seed: int) -> np.ndarray:
    """Stands in for a dataset generator: one memo entry per job, keyed by its seed."""
    return np.zeros(1)


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        clear_memo()
        self.executor = GatedExecutor()

        def generate_then_run(spec: JobSpec) -> dict:
            if spec.backend != "processes":  # a worker job generates in its own process
                job_input(spec.params["seed"])
            return self.executor(spec)

        self.scheduler = JobScheduler(
            generate_then_run,
            rank_budget=RANK_BUDGET,
            cache=ResultCache(4096),
            max_queued=MAX_QUEUED,
        )
        assert self.scheduler.stats()["fairness"]["starvation_limit"] == STARVATION_LIMIT
        self.jobs: list = []  # every admitted job, in submission order
        self.started: set[str] = set()  # ids whose dispatch has been checked
        self.seeds = itertools.count(1)
        self.down = False

    def teardown(self) -> None:
        for event in self.executor.release.values():
            event.set()
        self.scheduler.shutdown(wait_running=30.0)
        # Every admitted job reaches a terminal state, and no thread outlives its job.
        assert all(job.state in TERMINAL_STATES for job in self.jobs)
        wait_until(lambda: not any(t.name.startswith("serve-j") for t in threading.enumerate()))
        assert not self.scheduler._dispatcher.is_alive()
        assert data.memo_stats()["size"] == 0  # nothing is admitted any more
        clear_memo()

    # -- helpers ------------------------------------------------------------
    def _spec(self, shape) -> JobSpec:
        worker, nodes, priority = shape
        seed = next(self.seeds)
        self.executor.expect(seed)
        return JobSpec(
            app="heat3d",
            nodes=nodes,
            preset="laptop",
            priority=priority,
            backend="processes" if worker else None,
            params={"seed": seed},
        )

    def _in_state(self, state: str) -> list:
        return [job for job in self.jobs if job.state == state]

    def _refusal(self, spec: JobSpec) -> str | None:
        """Why the scheduler must refuse a fresh ``spec`` now, if it must."""
        if spec.ranks > RANK_BUDGET:
            return "over_budget"
        if self.down:
            return "shut_down"
        return "queue_full" if len(self._in_state("queued")) >= MAX_QUEUED else None

    def _dispatchable(self) -> bool:
        """Whether some queued job could start right now (the dispatch rule,
        read off the scheduler's state without its counters)."""
        scheduler = self.scheduler
        with scheduler._cond:
            available = RANK_BUDGET - scheduler._ranks_in_use
            for job in sorted(scheduler._queue, key=_order):
                if job.in_process and scheduler._in_process is not None:
                    continue
                if job.ranks <= available:
                    return True
                if job.passed_over >= STARVATION_LIMIT:
                    return False
        return False

    def _settle(self) -> None:
        wait_until(lambda: not self._dispatchable())
        # The in-process job that got the interpreter was the best-ordered one
        # that fit: nothing still queued that is no wider is ordered ahead of it
        # (so equal priorities start in submission order, and a higher priority
        # waits for the one job that was running when it arrived, not two).
        for job in self.jobs:
            if job.started_at is None or job.cached or job.id in self.started:
                continue
            self.started.add(job.id)
            for other in self._in_state("queued"):
                if job.in_process and other.in_process and other.ranks <= job.ranks:
                    assert _order(other) > _order(job), (job.describe(), other.describe())

    def _admit(self, spec: JobSpec, expect_hit: bool = False):
        if expect_hit:  # a hit needs no place in the queue
            refusal = "shut_down" if self.down else None
        else:
            refusal = self._refusal(spec)
        try:
            job = self.scheduler.submit(spec)
        except AdmissionError as exc:
            assert exc.reason == refusal
            return None
        assert refusal is None
        assert job.cached == expect_hit and job.seq == len(self.jobs) + 1
        assert job.admission == job.seq  # one submit, one admission
        self.jobs.append(job)
        return job

    # -- rules ----------------------------------------------------------------
    @rule(shape=shapes)
    def submit(self, shape) -> None:
        self._admit(self._spec(shape))
        self._settle()

    @precondition(lambda self: any(not job.cached for job in self._in_state("done")))
    @rule(pick=st.integers(0, 1 << 16))
    def resubmit_a_done_spec(self, pick) -> None:
        done = [job for job in self._in_state("done") if not job.cached]
        original = done[pick % len(done)]
        job = self._admit(original.spec, expect_hit=True)
        if job is not None:
            assert job.state == "done" and job.result == original.result
        self._settle()

    @rule(batch=st.lists(shapes, min_size=1, max_size=6))
    def submit_many(self, batch) -> None:
        specs = [self._spec(shape) for shape in batch]
        queued = len(self._in_state("queued"))
        admission = len(self.jobs) + 1  # the seq of the batch's first job
        outcomes = self.scheduler.submit_many(specs)
        assert len(outcomes) == len(specs)
        for spec, outcome in zip(specs, outcomes):
            # Admitted in one critical section: nothing left the queue meanwhile.
            over, full = spec.ranks > RANK_BUDGET, queued >= MAX_QUEUED
            assert outcome["ok"] == (not over and not self.down and not full), outcome
            if outcome["ok"]:
                queued += 1
                assert outcome["job"].seq == len(self.jobs) + 1
                assert outcome["job"].admission == admission
                self.jobs.append(outcome["job"])
        self._settle()

    @precondition(lambda self: self.jobs)
    @rule(pick=st.integers(0, 1 << 16))
    def cancel(self, pick) -> None:
        job = self.jobs[pick % len(self.jobs)]
        was = job.state
        try:
            cancelled = self.scheduler.cancel(job.id)
        except JobRetired:
            assert was in TERMINAL_STATES
        else:
            assert cancelled == (was == "queued")
            assert job.state == ("cancelled" if cancelled else was)
        self._settle()

    @precondition(lambda self: self._in_state("running"))
    @rule(pick=st.integers(0, 1 << 16), fail=st.booleans())
    def let_a_running_job_end(self, pick, fail) -> None:
        running = self._in_state("running")
        job = running[pick % len(running)]
        seed = job.spec.params["seed"]
        if fail:
            self.executor.fail.add(seed)
        self.executor.release[seed].set()
        wait_until(lambda: job.state in TERMINAL_STATES)
        assert job.state == ("failed" if fail else "done")
        assert job.started_at <= job.finished_at
        self._settle()

    @precondition(lambda self: not self.down)
    @rule()
    def shutdown(self) -> None:
        self.scheduler.shutdown()
        self.down = True
        assert not self._in_state("queued")  # cancelled, every one

    # -- invariants -------------------------------------------------------------
    @invariant()
    def one_in_process_job_and_the_rank_budget(self) -> None:
        running = self._in_state("running")
        assert sum(job.in_process for job in running) <= 1
        ranks = sum(job.ranks for job in running)
        assert ranks <= RANK_BUDGET and ranks == self.scheduler.stats()["ranks_in_use"]
        assert self.executor.peak_in_process <= 1 and self.executor.peak_ranks <= RANK_BUDGET
        # A job that waits is queued: it has no thread and no start time.
        wait_until(  # a thread outlives its job's last state change by a few instructions
            lambda: sum(t.name.startswith("serve-j") for t in threading.enumerate()) <= len(running)
        )
        assert all(job.started_at is None for job in self._in_state("queued"))

    @invariant()
    def the_table_is_bounded_and_says_what_it_dropped(self) -> None:
        table = self.scheduler.jobs()
        held = {job.id for job in table}
        assert [job.seq for job in table] == sorted(job.seq for job in table)
        assert sum(job.state in TERMINAL_STATES for job in table) <= MAX_QUEUED
        assert self.scheduler._seq == len(self.jobs)  # a refused job was issued no id
        for job in self.jobs:
            if job.id in held:
                assert self.scheduler.get(job.id) is job
            else:
                assert job.state in TERMINAL_STATES  # never a live job
                with pytest.raises(JobRetired):
                    self.scheduler.get(job.id)
        for unknown in ("nope", "j00001-zzzzzz", self.scheduler._job_id(len(self.jobs) + 1)):
            with pytest.raises(KeyError) as excinfo:
                self.scheduler.get(unknown)
            assert excinfo.type is KeyError

    @invariant()
    def no_input_outlives_its_admission(self) -> None:
        """Between in-process jobs the memo holds only inputs that a queued or
        running job of the admission that generated them could still read."""
        with self.scheduler._cond:  # no job changes state while we look
            if self.scheduler._in_process is not None:
                return
            held = [key[1] for key in list(data._memo) if key[0] is job_input.__wrapped__]
            live = {job.admission for job in self.jobs if job.state in ("queued", "running")}
        generated_by = {job.spec.params["seed"]: job for job in self.jobs if not job.cached}
        for seed in held:
            assert generated_by[seed].admission in live, generated_by[seed].describe()

    @invariant()
    def stats_equal_a_recount(self) -> None:
        table, stats = self.scheduler.jobs(), self.scheduler.stats()
        recount: dict[str, int] = {}
        for job in table:
            recount[job.state] = recount.get(job.state, 0) + 1
        assert stats["by_state"] == recount and stats["jobs"] == len(table)
        assert stats["queued"] == recount.get("queued", 0)


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
