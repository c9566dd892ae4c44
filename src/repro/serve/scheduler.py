"""Job scheduler: one job per interpreter, priorities, a rank budget, a bounded table.

The scheduler owns the server's concurrency policy:

- **One running job per interpreter.**  A run's ranks take turns under one
  baton (:mod:`repro.comm.fabric`) and two runs in one process only take
  turns on the GIL, so running them side by side buys no time and holds
  both working sets and both sets of rank threads at once.  A job that
  executes in this process (``spec.backend != "processes"``) is therefore
  dispatched only when no other such job is running; while it waits it is
  ``queued`` — no thread exists for it, and ``started_at`` / ``finished_at``
  bracket real execution.  Host parallelism is ``backend="processes"`` jobs:
  each runs in a job worker process (:mod:`repro.serve.jobpool`), which also
  runs one job at a time, so the rule holds in every process repro owns.
- **Admission control.**  Every job costs ``spec.ranks`` ranks (one per
  simulated node).  A job that could *never* fit — more ranks than the
  whole budget — is rejected at submission (:class:`AdmissionError`); a job
  that merely doesn't fit *right now* is queued.  The running set's
  aggregate rank cost never exceeds ``rank_budget``: the widest job the
  server admits, and the bound on worker jobs in flight (the one
  in-process job counts against it too).
- **Priority queue.**  Higher ``spec.priority`` dispatches first; ties
  break in submission order.  Dispatch is *first-fit in priority order*: if
  the highest-priority job doesn't fit the remaining budget, a smaller,
  lower-priority job may start ahead of it (no head-of-line blocking behind
  wide jobs; wide jobs still win as soon as the budget drains).  An
  in-process job waiting for the interpreter is stepped over without aging,
  so worker jobs behind it still pack against the budget.
- **Anti-starvation aging.**  Pure first-fit backfill can starve a wide
  high-priority job forever: it fits the *total* budget but a steady
  stream of narrow jobs keeps the *instantaneous* remainder too small.
  Every time a queued job is jumped by a later-ordered job that fits, its
  ``passed_over`` count ages; once it reaches ``starvation_limit`` the
  dispatcher reserves the budget for it — nothing ordered behind it starts
  until the running set drains enough for it to fit.
- **Result cache.**  Submission consults the content-addressed
  :class:`~repro.serve.cache.ResultCache` first; a hit completes the job
  instantly (``cached=True``) without touching the queue.  With a
  persistent :class:`~repro.serve.store.ResultStore` layered beneath the
  cache, hits survive server restarts.
- **Batch submission.**  :meth:`JobScheduler.submit_many` admits a whole
  spec list in one critical section, returning a per-spec outcome (job,
  cached result, or admission error) without failing the rest of the batch
  — the round-trip shape campaigns need.  The dispatcher never sees half a
  batch, so the batch's jobs share their inputs (below) however short they
  are.
- **A bounded job table.**  The table holds every job that is queued or
  running (at most ``max_queued`` wait) plus the last ``max_queued`` that
  reached a terminal state; an older record is retired.  Asking for a
  retired id raises :class:`JobRetired` — its result is still in the cache
  or store and comes back by resubmitting the spec — and an id this
  scheduler never issued stays a plain :class:`KeyError`.
- **Inputs.**  A generated input lives as long as the admission that
  brought it: one :meth:`~JobScheduler.submit` or
  :meth:`~JobScheduler.submit_many` call, known by the ``seq`` of its first
  job.  Jobs that are queued or running share the process-wide dataset memo
  (:func:`repro.data.memoized`).  When a job finishes, fails or is cancelled
  and no in-process job is running, the scheduler releases the memo
  (:func:`repro.data.release_memo`) if the job's admission has no queued or
  running job left, or if another admission whose jobs ran here ended while
  the interpreter was busy.  So a batch shares its inputs to its last job,
  two closed-loop clients do not keep each other's finished inputs, and an
  idle server holds none.  A job worker process keeps its own memo: it
  cannot see this queue.

Execution itself is delegated to an ``executor`` callable (by default
:func:`repro.serve.spec.execute_job`) on a daemon thread that lives as long
as the job runs.  A ``backend="processes"`` job's thread only waits for the
job worker process that runs it.  :func:`~repro.sim.engine.spmd_run` stays
re-entrant for library users; the service just never asks it to be.
"""

from __future__ import annotations

import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.serve.cache import ResultCache
from repro.serve.spec import JobSpec, execute_job
from repro.util.errors import ValidationError


class AdmissionError(ValidationError):
    """The scheduler refused a job at submission time.

    ``reason`` says why, for callers that react differently to a spec that
    can never run (``"over_budget"``), a momentarily full queue
    (``"queue_full"``: retry later) and a stopped scheduler
    (``"shut_down"``).
    """

    def __init__(self, message: str, *, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class JobRetired(KeyError):
    """The id was issued here, but its record has left the bounded job table."""


#: Terminal job states (no further transitions).
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One submitted job and everything the API reports about it."""

    id: str
    spec: JobSpec
    spec_hash: str
    seq: int
    admission: int  # seq of the first job of the submit / submit_many call that admitted it
    state: str = "queued"  # queued | running | done | failed | cancelled
    cached: bool = False
    cache_tier: str | None = None  # "memory" or "store": which cache tier answered
    result: dict[str, Any] | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    passed_over: int = 0  # dispatches that jumped this job while queued

    @property
    def ranks(self) -> int:
        return self.spec.ranks

    @property
    def in_process(self) -> bool:
        """Whether the job executes in the scheduler's own interpreter."""
        return self.spec.backend != "processes"

    def describe(self, *, with_spec: bool = True) -> dict[str, Any]:
        """JSON-able status view (results are fetched separately)."""
        out = {
            "id": self.id,
            "app": self.spec.app,
            "state": self.state,
            "priority": self.spec.priority,
            "ranks": self.ranks,
            "cached": self.cached,
            "cache_tier": self.cache_tier,
            "spec_hash": self.spec_hash,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if with_spec:
            out["spec"] = self.spec.to_dict()
        if self.result is not None:
            out["makespan"] = self.result.get("makespan")
        return out


def _process_stats() -> dict[str, Any]:
    """The ``process`` entry of :meth:`JobScheduler.stats`, as the kernel accounts it."""
    try:
        with open("/proc/self/status") as status:
            fields = dict(line.split(":", 1) for line in status)
    except OSError:  # not Linux: the entry is omitted
        return {}
    rss, peak = (int(fields[name].split()[0]) / 1024 for name in ("VmRSS", "VmHWM"))
    return {"process": {"rss_mb": rss, "peak_rss_mb": peak, "threads": int(fields["Threads"])}}


class JobScheduler:
    """Run one in-process job at a time, and worker jobs within a rank budget."""

    def __init__(
        self,
        executor: Callable[[JobSpec], dict[str, Any]] | None = None,
        *,
        rank_budget: int = 64,
        cache: ResultCache | None = None,
        max_queued: int = 1024,
        starvation_limit: int = 4,
    ) -> None:
        if rank_budget < 1:
            raise ValidationError(f"rank_budget must be >= 1, got {rank_budget}")
        if max_queued < 0:
            raise ValidationError(f"max_queued must be >= 0, got {max_queued}")
        if starvation_limit < 1:
            raise ValidationError(
                f"starvation_limit must be >= 1, got {starvation_limit}"
            )
        self.rank_budget = rank_budget
        self.max_queued = max_queued
        self.starvation_limit = starvation_limit
        self.cache = cache if cache is not None else ResultCache()
        self._executor = executor if executor is not None else execute_job
        self._cond = threading.Condition()
        # Every non-terminal job and the last ``max_queued`` terminal ones,
        # in submission order; ``_by_state`` counts exactly these records.
        self._jobs: dict[str, Job] = {}
        self._terminal: deque[Job] = deque()  # of ``_jobs``, oldest first
        self._by_state = dict.fromkeys(("queued", "running", *TERMINAL_STATES), 0)
        self._queue: list[Job] = []  # queued jobs, submission order
        self._live: dict[int, int] = {}  # admission -> its queued or running jobs
        self._generated: set[int] = set()  # admissions run in-process since the last release
        self._in_process: Job | None = None  # the running job that holds this interpreter
        self._ranks_in_use = 0
        self._seq = 0
        self._id_tag = uuid.uuid4().hex[:6]  # tells this scheduler's ids from another's
        self._executed = 0
        self._cache_hits = 0
        self._batches = 0
        self._pass_overs = 0
        self._reservations = 0
        self._http_requests = 0
        # Rank-budget utilization: integral of ranks_in_use over wall time.
        self._util_started = time.monotonic()
        self._util_marked = self._util_started
        self._busy_rank_seconds = 0.0
        self._shutdown = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def _change_ranks_locked(self, delta: int) -> None:
        """Adjust ``_ranks_in_use``, accruing the utilization integral."""
        now = time.monotonic()
        self._busy_rank_seconds += (now - self._util_marked) * self._ranks_in_use
        self._util_marked = now
        self._ranks_in_use += delta

    def _job_id(self, seq: int) -> str:
        return f"j{seq:05d}-{self._id_tag}"

    def _enter_locked(self, job: Job, state: str) -> None:
        """Move ``job`` to ``state``.  A terminal job takes a place among the
        last ``max_queued`` of them, and the oldest beyond that is retired."""
        self._by_state[job.state] -= 1
        self._by_state[state] += 1
        job.state = state
        if state in TERMINAL_STATES:
            self._terminal.append(job)
            if len(self._terminal) > self.max_queued:
                retired = self._terminal.popleft()
                self._by_state[retired.state] -= 1
                del self._jobs[retired.id]

    # -- submission ------------------------------------------------------
    def _admit_locked(self, spec: JobSpec, spec_hash: str, admission: int) -> Job:
        if spec.ranks > self.rank_budget:
            raise AdmissionError(
                f"job needs {spec.ranks} ranks but the server's budget is "
                f"{self.rank_budget}; it can never be scheduled",
                reason="over_budget",
            )
        if self._shutdown:
            raise AdmissionError("scheduler is shut down", reason="shut_down")
        cached, tier = self.cache.lookup(spec_hash)
        if cached is None and len(self._queue) >= self.max_queued:
            raise AdmissionError(
                f"queue is full ({self.max_queued} jobs waiting); retry later",
                reason="queue_full",
            )
        self._seq += 1
        job = Job(
            id=self._job_id(self._seq), spec=spec, spec_hash=spec_hash, seq=self._seq,
            admission=admission,
        )
        self._jobs[job.id] = job
        self._by_state[job.state] += 1
        if cached is not None:
            job.cached, job.cache_tier = True, tier
            job.result = cached
            job.started_at = job.finished_at = time.time()
            self._cache_hits += 1
            self._enter_locked(job, "done")
        else:
            self._queue.append(job)
            self._live[admission] = self._live.get(admission, 0) + 1
        self._cond.notify_all()
        return job

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job: cache hit, queue it, or raise :class:`AdmissionError`."""
        spec_hash = spec.content_hash()
        with self._cond:
            return self._admit_locked(spec, spec_hash, self._seq + 1)

    def submit_many(self, specs: list[JobSpec]) -> list[dict[str, Any]]:
        """Admit a whole batch; per-spec outcomes, no all-or-nothing.

        Returns one entry per spec, in order:

        - ``{"ok": True, "job": Job}`` — admitted (possibly already done
          via the result cache/store; check ``job.cached``), or
        - ``{"ok": False, "error": str}`` — this spec was refused
          (over-budget forever, queue full, scheduler shut down) without
          affecting the rest of the batch.

        The specs are hashed first and admitted in one critical section, as
        one admission: the dispatcher sees the batch whole, and the inputs
        its jobs generate live until the last of them ends.
        """
        hashes = [spec.content_hash() for spec in specs]
        out: list[dict[str, Any]] = []
        with self._cond:
            admission = self._seq + 1
            for spec, spec_hash in zip(specs, hashes):
                try:
                    out.append({"ok": True, "job": self._admit_locked(spec, spec_hash, admission)})
                except AdmissionError as exc:
                    out.append({"ok": False, "error": str(exc)})
            self._batches += 1
        return out

    # -- dispatch ---------------------------------------------------------
    def _pick_locked(self) -> Job | None:
        """Best queued job that fits the remaining budget (first fit in
        priority order), or None.

        An in-process job is no candidate while another holds the
        interpreter: it is stepped over un-aged, so worker jobs behind it
        still pack against the budget.

        First fit is tempered by aging: walking the queue best-first, a
        job that doesn't fit is normally jumped (and its ``passed_over``
        aged — only when the walk really dispatches someone later), but a
        job that has already been jumped ``starvation_limit`` times closes
        the gate: nothing ordered behind it dispatches until the running
        set drains enough for it to fit.  That reserves the freed budget
        for the starved job instead of letting backfill nibble it away.
        """
        available = self.rank_budget - self._ranks_in_use
        skipped: list[Job] = []
        for job in sorted(self._queue, key=lambda j: (-j.spec.priority, j.seq)):
            if job.in_process and self._in_process is not None:
                continue
            if job.ranks <= available:
                if skipped:
                    self._pass_overs += len(skipped)
                    for jumped in skipped:
                        jumped.passed_over += 1
                return job
            if job.passed_over >= self.starvation_limit:
                # Budget reservation: this job has waited long enough.
                self._reservations += 1
                return None
            skipped.append(job)
        return None

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                job = self._pick_locked()
                while job is None and not self._shutdown:
                    self._cond.wait()
                    job = self._pick_locked()
                if job is None:  # shutdown with nothing dispatchable
                    return
                self._queue.remove(job)
                self._enter_locked(job, "running")
                job.started_at = time.time()
                self._change_ranks_locked(job.ranks)
                if job.in_process:
                    self._in_process = job
                    self._generated.add(job.admission)
            threading.Thread(
                target=self._run_job, args=(job,), name=f"serve-{job.id}", daemon=True
            ).start()

    def _run_job(self, job: Job) -> None:
        try:
            result = self._executor(job.spec)
        except BaseException as exc:  # noqa: BLE001 - job failures are data
            with self._cond:
                self._finish_locked(job, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            self.cache.put(job.spec_hash, result)
            with self._cond:
                self._finish_locked(job, "done", result=result)

    def _finish_locked(
        self, job: Job, state: str, *, result: dict[str, Any] | None = None, error: str | None = None
    ) -> None:
        """Move ``job`` to a terminal state; release the inputs if an
        admission has ended and no in-process job is reading any."""
        if job.state == "running":
            self._change_ranks_locked(-job.ranks)
            self._executed += 1
        if job is self._in_process:
            self._in_process = None
        job.result, job.error = result, error
        job.finished_at = time.time()
        self._enter_locked(job, state)
        self._live[job.admission] -= 1
        ended = not self._live[job.admission]
        if ended:
            del self._live[job.admission]
        # Release once no in-process job is reading an input, if this
        # admission just ended or one that generated inputs here ended while
        # another's job held the interpreter.
        if self._in_process is None and (
            ended or any(admission not in self._live for admission in self._generated)
        ):
            self._generated.clear()
            # Via sys.modules: a front-end whose jobs all ran in workers never
            # generated an input, and must not import NumPy to find that out.
            data = sys.modules.get("repro.data")
            if data is not None:
                data.release_memo()
        self._cond.notify_all()

    # -- queries ----------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job's record; :class:`JobRetired` if the table no longer
        holds it, :class:`KeyError` if this scheduler never issued the id."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            seq = job_id[1:].partition("-")[0]
            seq = int(seq) if seq.isdecimal() else 0
            if 1 <= seq <= self._seq and job_id == self._job_id(seq):
                raise JobRetired(
                    f"job {job_id} has been retired (the server keeps the last "
                    f"{self.max_queued} finished jobs); its result is still reachable "
                    "by resubmitting the spec, which is a cache / store hit"
                )
            raise KeyError(f"unknown job id {job_id!r}")

    def jobs(self) -> list[Job]:
        """Every job in the table (see the module docstring), in submission order."""
        with self._cond:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float = 120.0) -> Job:
        """Block until ``job_id`` reaches a terminal state (or time out)."""
        job = self.get(job_id)
        deadline = time.monotonic() + timeout
        with self._cond:
            while job.state not in TERMINAL_STATES:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state} after {timeout}s"
                    )
                self._cond.wait(timeout=left)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job.  Running/terminal jobs return False —
        a running SPMD program has no safe preemption point."""
        job = self.get(job_id)
        with self._cond:
            if job.state != "queued":
                return False
            self._queue.remove(job)
            self._finish_locked(job, "cancelled")
            return True

    def count_request(self) -> None:
        """One request read by the HTTP front end (``stats()["http"]``)."""
        with self._cond:
            self._http_requests += 1

    def stats(self) -> dict[str, Any]:
        from repro.data import memo_stats
        from repro.sim.engine import active_run_stats, rank_pool_stats

        with self._cond:
            now = time.monotonic()
            elapsed = max(now - self._util_started, 1e-9)
            busy = self._busy_rank_seconds + (now - self._util_marked) * self._ranks_in_use
            counters = {
                "jobs": len(self._jobs),
                "by_state": {state: n for state, n in self._by_state.items() if n},
                "queued": len(self._queue),
                "ranks_in_use": self._ranks_in_use,
                "rank_budget": self.rank_budget,
                "executed": self._executed,
                "cache_hits": self._cache_hits,
                "batches": self._batches,
                "http": {"requests": self._http_requests},
                "fairness": {
                    "starvation_limit": self.starvation_limit,
                    "pass_overs": self._pass_overs,
                    "reservations": self._reservations,
                    "max_queued_passed_over": max(
                        (j.passed_over for j in self._queue), default=0
                    ),
                },
                "utilization": {
                    "ranks_in_use": self._ranks_in_use,
                    "rank_budget": self.rank_budget,
                    "instantaneous": self._ranks_in_use / self.rank_budget,
                    "busy_rank_seconds": busy,
                    "elapsed_s": elapsed,
                    "average": busy / (elapsed * self.rank_budget),
                },
            }
        counters["cache"] = self.cache.stats()
        counters["rank_pool"] = rank_pool_stats()
        counters["engine"] = active_run_stats()
        counters["datasets"] = memo_stats()
        counters.update(_process_stats())
        jobpool = sys.modules.get("repro.serve.jobpool")  # only once a job used it
        if jobpool is not None:
            counters["job_pool"] = jobpool.job_pool_stats()
        return counters

    def shutdown(self, *, wait_running: float = 0.0) -> None:
        """Stop dispatching; queued jobs are cancelled.

        ``wait_running`` gives in-flight jobs that many wall-clock seconds
        to finish (they run on daemon threads either way).
        """
        with self._cond:
            self._shutdown = True
            queued, self._queue = self._queue, []
            for job in queued:
                self._finish_locked(job, "cancelled")
            self._cond.notify_all()
        self._dispatcher.join(timeout=5.0)
        if wait_running > 0:
            deadline = time.monotonic() + wait_running
            with self._cond:
                while self._ranks_in_use > 0 and time.monotonic() < deadline:
                    self._cond.wait(timeout=max(0.0, deadline - time.monotonic()))
