"""Checkpoint/restart for iterative runtimes (the recovery half of faults).

Long-running iterative applications (stencil time-stepping, generalized
reduction iterations) snapshot their state every ``k`` iterations; when a
:class:`~repro.faults.plan.RankCrash` from the run's
:class:`~repro.faults.plan.FaultPlan` fires, every rank rolls back to the
last checkpoint in a *coordinated* recovery and re-executes from there.

Model: the crash is simulated at the application level — the rank's thread
survives, it is the application *state* that is lost — which corresponds
to checkpoint/restart-in-place on real clusters (the failed process is
respawned and rejoins at the last consistent snapshot).  The recovery
protocol per iteration boundary:

1. **Detection.**  Each rank checks whether its own planned crash is due
   (its virtual clock passed the crash time) and all ranks agree via a
   tiny ``allreduce`` — the simulation's failure detector heartbeat, which
   is also charged to virtual time like any collective.
2. **Rollback.**  On a detected crash, every rank restores the last
   checkpoint, charges the crash's ``restart_cost`` plus the snapshot
   reload time to its clock, records ``fault`` trace events (``crash`` on
   the failed rank, ``recovery`` everywhere), and re-synchronizes with a
   barrier before resuming at the checkpointed iteration.

Writing or re-reading a snapshot is charged at half the node's memory
bandwidth (an in-memory copy reads and writes every byte).  Everything is
a function of virtual time and the plan's seed, so a given plan always
produces the same recovery points and the same final makespan.  The
heartbeat and rollback barriers run over ``ctx.comm``; when the same plan
also drops or duplicates messages, that is the run's
:class:`~repro.comm.reliable.ReliableComm`, so they survive the loss
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.comm.payload import estimate_nbytes
from repro.sim.engine import RankContext
from repro.util.errors import ValidationError

#: Trace category used for checkpoint, crash, and recovery events.
FAULT_CATEGORY = "fault"


@dataclass(frozen=True)
class Checkpoint:
    """One consistent per-rank snapshot: ``state`` as of ``iteration``."""

    iteration: int
    state: Any
    nbytes: int


class CheckpointManager:
    """Drives an iterative loop with periodic checkpoints and crash recovery.

    Args:
        ctx: The rank context (clock, comm, trace, fault plan).
        every: Checkpoint cadence in iterations (snapshot after every
            ``every``-th completed iteration, plus one at iteration 0).
    """

    def __init__(self, ctx: RankContext, *, every: int = 10) -> None:
        if every < 1:
            raise ValidationError(f"checkpoint cadence must be >= 1, got {every}")
        self.ctx = ctx
        self.every = int(every)
        self.plan = ctx.fault_plan
        self.write_bandwidth = ctx.node.cpu.mem_bandwidth / 2.0
        self.checkpoints_taken = 0
        self.recoveries = 0

    # -- internals ------------------------------------------------------
    def _take(self, iteration: int, capture: Callable[[], Any]) -> Checkpoint:
        """Snapshot now; charges the write time and records a trace event."""
        clock = self.ctx.clock
        t0 = clock.now
        state = capture()
        nbytes = estimate_nbytes(state)
        clock.advance(nbytes / self.write_bandwidth)
        ckpt = Checkpoint(iteration=iteration, state=state, nbytes=nbytes)
        self.checkpoints_taken += 1
        if self.ctx.trace.enabled:
            self.ctx.trace.record(
                FAULT_CATEGORY,
                "checkpoint",
                t0,
                clock.now,
                {"iteration": iteration, "nbytes": nbytes},
            )
            self.ctx.trace.count("ckpt.snapshots")
            self.ctx.trace.count("ckpt.bytes", nbytes)
        return ckpt

    def _poll_crash(self) -> tuple[bool, Any, float]:
        """(any rank crashed, local crash or None, agreed restart cost).

        The agreement allreduce doubles as the failure detector: it costs
        what a heartbeat collective costs, every iteration.
        """
        crash = None
        if self.plan is not None:
            crash = self.plan.crash_pending(self.ctx.rank, self.ctx.clock.now)
        local = np.array([1.0 if crash is not None else 0.0,
                          crash.restart_cost if crash is not None else 0.0])
        agreed = self.ctx.comm.allreduce(local, op="max")
        return bool(agreed[0] > 0.0), crash, float(agreed[1])

    def _recover(
        self,
        ckpt: Checkpoint,
        crash: Any,
        restart_cost: float,
        restore: Callable[[Any], None],
    ) -> int:
        """Coordinated rollback to ``ckpt``; returns the resume iteration."""
        ctx = self.ctx
        clock = ctx.clock
        t0 = clock.now
        if crash is not None:
            # This rank is the one that failed: consume the one-shot crash
            # and mark the failure itself in the trace.
            self.plan.consume_crash(crash)
            if ctx.trace.enabled:
                ctx.trace.record(
                    FAULT_CATEGORY, "crash", crash.at_time, t0, {"rank": ctx.rank}
                )
        restore(ckpt.state)
        # Recovery accounting: the coordinated restart stall plus
        # re-reading the snapshot, visible in the virtual makespan.
        clock.advance(restart_cost + ckpt.nbytes / self.write_bandwidth)
        self.recoveries += 1
        if ctx.trace.enabled:
            ctx.trace.record(
                FAULT_CATEGORY,
                "recovery",
                t0,
                clock.now,
                {"resume_iteration": ckpt.iteration, "restart_cost": restart_cost},
            )
            ctx.trace.count("ckpt.recoveries")
        # Re-synchronize before anyone resumes computing.
        ctx.comm.barrier()
        return ckpt.iteration

    # -- the loop -------------------------------------------------------
    def run_iterations(
        self,
        iterations: int,
        step: Callable[[int], None],
        capture: Callable[[], Any],
        restore: Callable[[Any], None],
    ) -> int:
        """Run ``step(i)`` for ``i in range(iterations)`` with recovery.

        The fixed-count case of :meth:`run_convergence`: ``step`` returns
        ``None``, so the loop never stops early.  Returns the number of
        step executions including re-executed iterations (``iterations``
        exactly when no crash fired).
        """
        if iterations < 1:
            raise ValidationError(f"iterations must be >= 1, got {iterations}")
        return self.run_convergence(iterations, step, capture, restore)

    def run_convergence(
        self,
        max_iters: int,
        body: Callable[[int], Any],
        capture: Callable[[], Any],
        restore: Callable[[Any], None],
    ) -> int:
        """Run ``body(i)`` until it returns true or ``max_iters``, with recovery.

        ``body`` performs one iteration and reports whether the loop
        should stop (e.g. the residual dropped below tolerance).
        ``capture()`` must return an *independent* snapshot of the
        application state (the manager stores it as-is) and include
        whatever the convergence test depends on — iteration counters,
        residual histories, kernel parameters — so that a rollback
        replays the loop identically (``body`` decisions are collective,
        so every rank stops on the same iteration); ``restore(state)``
        must reinstate it.  Returns the number of body executions
        including re-executed iterations.
        """
        if max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
        ckpt = self._take(0, capture)
        executions = 0
        it = 0
        while it < max_iters:
            crashed, crash, restart_cost = self._poll_crash()
            if crashed:
                it = self._recover(ckpt, crash, restart_cost, restore)
                continue
            done = body(it)
            executions += 1
            it += 1
            if done:
                break
            if it % self.every == 0 and it < max_iters:
                ckpt = self._take(it, capture)
        return executions
