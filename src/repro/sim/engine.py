"""SPMD execution engine: one runner, pooled rank threads, one baton.

:func:`spmd_run` launches ``fn(ctx)`` on every rank, where ``ctx`` is a
:class:`RankContext` carrying the rank's virtual clock, communicator,
node spec and trace.

Ranks are simulated processes: they need correct virtual-time ordering,
never host concurrency.  Each rank is a pooled thread used purely as a
continuation — it runs until its next blocking receive — and only the
holder of the run's *baton* executes (see :mod:`repro.comm.fabric` for the
hand-over rules).  A one-rank run takes the same path.  The schedule is a
pure function of the program, so values, virtual times and traces are
identical run to run, and a deadlock ("no rank can run, some are parked")
is raised exactly and at once instead of after a receive timeout.  Host
parallelism lives one level up: a *job* may run in a worker process
(:mod:`repro.serve.jobpool`), which executes this same loop.

Rank threads come from a process-wide reusable pool
(:class:`_RankThreadPool`): figure sweeps run thousands of back-to-back
SPMD runs, and at the paper's baseline scale (32 nodes × 12 ranks/node =
384 rank threads) per-run thread spawn/teardown dominated the wall clock.
A worker is recycled only after its rank function returns, so a worker
wedged past the watchdog is simply abandoned (daemon thread) and the pool
spawns a replacement on demand.

Failure handling: the first rank to raise aborts the fabric, which
releases every sibling waiting at its gate; the original exception is
re-raised to the caller.  ``wall_timeout`` is the single wall-clock guard,
for a rank that loops without communicating: on firing it aborts the run
the same way, so at most the one wedged thread is abandoned.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.sim.clock import VirtualClock
from repro.sim.trace import Trace
from repro.util.errors import CommunicationError, DeadlockError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.communicator import SimComm
    from repro.faults.plan import FaultPlan


@dataclass
class RankContext:
    """Everything one simulated process needs, bundled for ``fn(ctx)``."""

    rank: int
    size: int
    node_index: int
    node: NodeSpec
    cluster: ClusterSpec
    clock: VirtualClock
    comm: "SimComm"
    trace: Trace
    fault_plan: "FaultPlan | None" = None


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    values: list[Any]
    times: list[float]
    traces: list[Trace]

    @property
    def makespan(self) -> float:
        """Virtual completion time of the slowest rank — *the* reported time."""
        return max(self.times) if self.times else 0.0

    @property
    def nranks(self) -> int:
        return len(self.values)


class _PoolWorker(threading.Thread):
    """One reusable rank thread: runs submitted tasks for the process's life."""

    def __init__(self, pool: "_RankThreadPool", index: int) -> None:
        super().__init__(name=f"rank-pool-{index}", daemon=True)
        self._pool = pool
        self._task: Callable[[], None] | None = None
        self._wake = threading.Semaphore(0)

    def submit(self, task: Callable[[], None]) -> None:
        """Hand one task to this idle worker."""
        self._task = task
        self._wake.release()

    def run(self) -> None:  # pragma: no cover - exercised via spmd_run
        while True:
            self._wake.acquire()
            task, self._task = self._task, None
            try:
                task()
            finally:
                # The closure reaches its run's fabric, traces and every
                # rank's return value: an idle worker must not pin them.
                del task
                # Recycle only once the task has fully returned: a worker
                # stuck inside a task never re-enters the idle pool.
                self._pool._recycle(self)


class _RankThreadPool:
    """Process-wide pool of reusable rank threads.

    ``submit`` hands the task to an idle worker (LIFO, for cache warmth)
    or spawns a new daemon worker when none is idle, so the pool grows to
    the peak concurrent rank count and is reused by every subsequent
    :func:`spmd_run` in the process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_PoolWorker] = []
        self.spawned = 0

    def submit(self, task: Callable[[], None]) -> None:
        with self._lock:
            worker = self._idle.pop() if self._idle else None
            if worker is None:
                self.spawned += 1
                worker = _PoolWorker(self, self.spawned)
                worker.start()
        worker.submit(task)

    def _recycle(self, worker: _PoolWorker) -> None:
        with self._lock:
            self._idle.append(worker)

    def stats(self) -> dict[str, int]:
        """Pool occupancy (test/diagnostic hook)."""
        with self._lock:
            return {"spawned": self.spawned, "idle": len(self._idle)}

#: The process-wide rank-thread pool shared by every ``spmd_run``.
_pool = _RankThreadPool()


def rank_pool_stats() -> dict[str, int]:
    """Spawned/idle counts of the shared rank-thread pool."""
    return _pool.stats()


# -- multi-job accounting ------------------------------------------------
# ``spmd_run`` is re-entrant: every run builds its own fabric (and so its
# own baton), clocks, result slots, and failure list, and rank threads of
# concurrent runs only ever synchronize through their *own* run's fabric —
# so virtual makespans are bit-identical whether runs execute back-to-back
# or interleaved.  The shared state (the rank-thread pool above, dataset
# memos) is lock-protected.  The counters below track how many runs/ranks
# are in flight right now; the ``repro.serve`` job scheduler only reports
# them (``/stats`` ``engine``): its admission counts its own ranks in use.
_active_lock = threading.Lock()
_active_runs = 0
_active_ranks = 0


def _run_started(nranks: int) -> None:
    global _active_runs, _active_ranks
    with _active_lock:
        _active_runs += 1
        _active_ranks += nranks


def _run_finished(nranks: int) -> None:
    global _active_runs, _active_ranks
    with _active_lock:
        _active_runs -= 1
        _active_ranks -= nranks


def active_run_stats() -> dict[str, int]:
    """How many SPMD runs (and their ranks) are in flight in this process.

    A run is "active" from entry into :func:`spmd_run` until its results
    (or failure) are returned.
    """
    with _active_lock:
        return {"active_runs": _active_runs, "active_ranks": _active_ranks}


class _RunGroup:
    """Completion tracking for the rank tasks of one SPMD run."""

    def __init__(self, nranks: int) -> None:
        self._cond = threading.Condition()
        self._done = [False] * nranks
        self._remaining = nranks

    def task_done(self, rank: int) -> None:
        with self._cond:
            self._done[rank] = True
            self._remaining -= 1
            if self._remaining == 0:
                self._cond.notify_all()

    def wait(self, timeout: float) -> bool:
        """True when every rank finished within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._remaining > 0:
                left = deadline - time.monotonic()
                if left <= 0 or not self._cond.wait(timeout=left):
                    return self._remaining == 0
            return True

    def pending_ranks(self) -> list[int]:
        with self._cond:
            return [r for r, done in enumerate(self._done) if not done]


def spmd_run(
    fn: Callable[..., Any],
    cluster: ClusterSpec,
    *,
    ranks_per_node: int = 1,
    args: tuple = (),
    kwargs: dict | None = None,
    trace: bool = False,
    wall_timeout: float = 600.0,
    fault_plan: "FaultPlan | None" = None,
) -> SpmdResult:
    """Run ``fn(ctx, *args, **kwargs)`` on every rank of ``cluster``.

    Args:
        fn: The per-rank program.  Its return value is collected per rank.
        cluster: Hardware description; rank count is
            ``cluster.num_nodes * ranks_per_node``.
        ranks_per_node: 1 for the framework's process-per-node model; the
            paper's hand-written MPI baselines use one rank per core.
        args, kwargs: Extra arguments forwarded to every rank.
        trace: Enable per-rank tracing: spans, counters, gauges and the
            busy intervals of every NIC and device timeline (small
            overhead).
        wall_timeout: Wall-clock seconds for the whole run (a monotonic
            budget shared by all ranks, not a per-rank allowance).  It
            exists for a rank that loops without communicating; a deadlock
            needs no timeout.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`
            installed on the fabric before any rank starts; rank programs
            reach it via ``ctx.fault_plan`` (checkpoint/restart loops
            consume its crash events).

    Returns:
        :class:`SpmdResult` with per-rank return values, final virtual
        clocks, and traces.

    Raises:
        The first per-rank exception (sibling ranks are released and
        drained), :class:`DeadlockError` at once when no rank can run, or
        :class:`DeadlockError` when the run exceeds ``wall_timeout``.
    """
    from repro.comm.communicator import SimComm
    from repro.comm.fabric import Fabric

    if kwargs is None:
        kwargs = {}
    nranks = cluster.num_nodes * ranks_per_node
    if nranks <= 0:
        raise ValidationError("cluster must yield at least one rank")
    fabric = Fabric(cluster, ranks_per_node=ranks_per_node)
    if fault_plan is not None:
        fabric.install_faults(fault_plan)
    values: list[Any] = [None] * nranks
    times: list[float] = [0.0] * nranks
    traces = [Trace(r, enabled=trace) for r in range(nranks)]
    for tr in traces:
        tr.bind_fabric(fabric)
    failures: list[tuple[int, BaseException]] = []  # (rank, what it raised)
    failure_lock = threading.Lock()

    def record_failure(rank: int, exc: BaseException) -> None:
        # A CommunicationError raised *because* the fabric was already
        # aborted is only a wake-up echo: it becomes a low-priority "stuck"
        # marker (and only if nothing else was recorded).  Everything else
        # is a real failure and aborts the fabric to release the siblings.
        with failure_lock:
            echo = (
                isinstance(exc, CommunicationError)
                and fabric._abort_exc is not None
                and fabric._abort_exc is not exc
            )
            if not echo:
                failures.append((rank, exc))
            elif not failures:
                failures.append((rank, DeadlockError(f"rank {rank} stuck")))
        if not echo:
            fabric.abort(exc)

    def rank_main(rank: int) -> None:
        try:
            fabric.enter(rank)
            clock = VirtualClock()
            ctx = RankContext(
                rank=rank,
                size=nranks,
                node_index=fabric.node_of(rank),
                node=cluster.node,
                cluster=cluster,
                clock=clock,
                comm=SimComm(fabric, rank, clock, trace=traces[rank]),
                trace=traces[rank],
                fault_plan=fault_plan,
            )
            values[rank] = fn(ctx, *args, **kwargs)
            times[rank] = clock.now
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            record_failure(rank, exc)
        finally:
            fabric.leave(rank)

    group = _RunGroup(nranks)

    def make_task(rank: int) -> Callable[[], None]:
        def task() -> None:
            try:
                rank_main(rank)
            finally:
                group.task_done(rank)

        return task

    _run_started(nranks)
    try:
        fabric.launch()
        for r in range(nranks):
            _pool.submit(make_task(r))
        # One shared wall-clock budget for the whole run, not per rank.
        if not group.wait(wall_timeout):
            fabric.abort(DeadlockError("wall timeout"))
            # Grace period: released ranks raise where they wake and
            # finish; the rank that never reached the fabric is
            # abandoned to its (daemon) pool worker, never recycled.
            group.wait(5.0)
            raise DeadlockError(
                f"SPMD run exceeded wall timeout of {wall_timeout}s; "
                f"still-running ranks: {group.pending_ranks()}"
            )
    finally:
        _run_finished(nranks)

    if failures:
        # Prefer genuine errors over stuck markers, then the lowest rank.
        real = [f for f in failures if not isinstance(f[1], DeadlockError)]
        raise min(real or failures, key=lambda f: f[0])[1]

    if traces[0].enabled:
        stats = _pool.stats()
        traces[0].gauge("rank_pool.spawned", stats["spawned"])
        traces[0].gauge("rank_pool.idle", stats["idle"])
        traces[0].gauge("engine.switches", fabric.switches)
        traces[0].gauge("engine.parks", fabric.parks)

    return SpmdResult(values=values, times=times, traces=traces)
