"""Fused stencil+reduce runtime (cf. the loop-of-stencil-reduce pattern,
arXiv 1609.04567).

Every convergence-driven solver pairs a stencil sweep with a global
scalar — a residual norm, an energy, image statistics — and the naive
composition pays a separate reduction pass after every step: walk the
grid again to produce the local value, then a blocking ``allreduce``
while the network sits idle.  :class:`StencilReduceRuntime` fuses both
halves:

- **Compute fusion.**  The local reduction value is produced *inside*
  the sweep: the kernel's per-element work is topped up by
  ``reduce_flops`` (the few flops of the fused accumulation — it rides
  the sweep's memory traffic, so no second pass over the grid and no
  extra kernel launch is charged), and the functional value is computed
  by ``reduce_fn(old_interior, new_interior)`` right after the kernel
  apply, before the buffer swap.
- **Communication fusion.**  The per-step combine is a recursive-
  doubling collective whose virtual charges *overlap the next step's
  halo exchange*: unless the loop is about to end, the runtime packs and
  sends the next step's axis-0 strips (:meth:`StencilRuntime.
  begin_step_early`) before folding the scalar, so the halo payloads'
  flight time hides under the combine instead of stalling the next step.

The combine itself reuses the communicator's ``allreduce`` (recursive
doubling with non-power-of-two fold-in), so the folded value is
bit-for-bit the value a separate post-step ``allreduce`` would produce:
``run_until`` matches a reference step-then-allreduce loop exactly —
same iteration count, same residual sequence, same final grid — while
arriving at it faster in virtual time.

Checkpoint/restart integrates through
:meth:`~repro.core.checkpoint.CheckpointManager.run_convergence`: the
convergence accumulator (iteration count, value/residual history, the
kernel parameter) snapshots with the grid, and speculation is disabled
so no halo message is ever in flight across a rollback boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.env import RuntimeEnv
from repro.core.stencil import StencilRuntime
from repro.util.errors import ConfigurationError

#: Trace category for fused-reduce spans (classified as compute).
REDUCE_CATEGORY = "stencil_reduce"

#: Default extra flops per element charged for the fused accumulation
#: (one subtract + one multiply-add of the running sum).
FUSED_REDUCE_FLOPS = 2.0


def l2_sq_residual(old: np.ndarray, new: np.ndarray) -> float:
    """Default ``reduce_fn``: squared L2 norm of the step update."""
    diff = (new - old).ravel()
    return float(np.dot(diff, diff))


@dataclass
class ConvergenceResult:
    """Outcome of one :meth:`StencilReduceRuntime.run_until` loop."""

    iterations: int
    residuals: list[float] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)
    converged: bool = False

    @property
    def final_residual(self) -> float:
        if not self.residuals:
            raise ConfigurationError("no iterations ran; no residual to report")
        return self.residuals[-1]


class StencilReduceRuntime(StencilRuntime):
    """Stencil runtime with a fused per-step global reduction.

    Args:
        env: The runtime environment.
        reduce_flops: Per-element flops added to the kernel's work model
            while a fused reduction is armed (see module docstring).
        **options: Forwarded to :class:`StencilRuntime`.
    """

    def __init__(self, env: RuntimeEnv, *, reduce_flops: float = FUSED_REDUCE_FLOPS, **options) -> None:
        super().__init__(env, **options)
        if reduce_flops < 0:
            raise ConfigurationError(f"reduce_flops must be >= 0, got {reduce_flops}")
        self.reduce_flops = float(reduce_flops)
        self._reduce_fn: Callable[[np.ndarray, np.ndarray], Any] | None = None
        self._conv: dict | None = None
        #: Per-sweep local values of the round in flight (reset by
        #: :meth:`_fused_round`).
        self._values: list[Any] = []
        #: Interior snapshots after the round's first ``_rewind_points``
        #: sweeps — every sweep but the last, and only when a tolerance is
        #: set — so a mid-round convergence can rewind the grid to the
        #: converged sweep.
        self._grids: list[np.ndarray] = []
        self._rewind_points = 0

    # -- fused charging and functional hook ------------------------------
    def _effective_work(self, dev) -> Any:
        work = super()._effective_work(dev)
        if self._reduce_fn is None:
            return work
        # The fused accumulation reuses the values the sweep already has
        # in registers: extra flops, no extra bytes, no extra launch.
        return work.replace(flops_per_elem=work.flops_per_elem + self.reduce_flops)

    def _after_apply(self, src: np.ndarray, dst: np.ndarray) -> None:
        if self._reduce_fn is not None:
            # Interiors are always fully valid, even mid-round: every
            # sweep's region contains the interior, so the fused local
            # value is bitwise the one an unblocked sweep produces.
            self._values.append(self._reduce_fn(src[self.interior], dst[self.interior]))
            if len(self._grids) < self._rewind_points:
                self._grids.append(dst[self.interior].copy())

    # -- the fused combine ----------------------------------------------
    def _combine(self, local: Any, reduce_op: str) -> Any:
        """Fold the per-rank values (recursive doubling, traced).

        Delegates to the communicator's ``allreduce`` so the result is
        bitwise the one a standalone post-step collective would produce;
        the *placement* is what fusion changes (the call runs while the
        speculatively begun next-step halo messages are in flight).
        """
        env = self.env
        t0 = env.clock.now
        value = env.comm.allreduce(local, op=reduce_op)
        if env.trace.enabled:
            env.trace.record(
                REDUCE_CATEGORY, "SR:combine", t0, env.clock.now, {"step": self._timestep}
            )
            env.trace.count("stencil_reduce.combines")
        return value

    # -- the loop --------------------------------------------------------
    def run_until(
        self,
        *,
        max_iters: int,
        tol: float | None = None,
        reduce_op: str = "sum",
        reduce_fn: Callable[[np.ndarray, np.ndarray], Any] | None = None,
        residual_fn: Callable[[Any], float] | None = None,
        on_value: Callable[[Any], None] | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> ConvergenceResult:
        """Iterate until the residual drops to ``tol`` or ``max_iters``.

        The loop runs one exchange round at a time (``time_block`` sweeps
        each; 1 by default): every sweep also produces the local
        reduction value (``reduce_fn(old, new)`` over the interior,
        charged at ``reduce_flops`` extra per element), then come the
        next round's speculative halo send, one *vector* combine folding
        all the round's local values at once (``reduce_op`` over the
        ranks; bitwise identical per component to one scalar combine per
        sweep), and the convergence test per sweep.  Checkpoint snapshots
        land on round boundaries.  Residual histories and final grids are
        the same bit for bit for every ``time_block``, including a
        mid-round convergence (the grid rewinds to the converged sweep).
        ``on_value`` is incompatible with ``time_block > 1`` — it feeds
        the combined value back between sweeps, which a blocked round
        cannot honour.

        Args:
            max_iters: Hard iteration cap (>= 1).
            tol: Stop once ``residual_fn(combined) <= tol``; ``None``
                never stops early (pure fixed-step fused loop).
            reduce_op: Elementwise combine op ("sum", "min", "max", ...).
            reduce_fn: Local value from (old, new) interiors; defaults to
                the squared L2 norm of the update.
            residual_fn: Scalar residual from the combined value;
                defaults to ``sqrt`` for the default ``reduce_fn`` and to
                ``float`` otherwise.
            on_value: Called with the combined value each iteration
                (before the convergence test) — e.g. to feed global
                statistics back into the kernel parameter for the *next*
                step, as SRAD does.
            checkpoint: Drive the loop through this
                :class:`~repro.core.checkpoint.CheckpointManager`
                (speculation is disabled: no in-flight halo message may
                straddle a rollback boundary).

        Returns:
            The convergence record; every rank returns identical
            iteration counts and residual sequences (the combine is a
            collective).
        """
        self._check_configured()
        if max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
        if self._time_block > 1 and on_value is not None:
            raise ConfigurationError(
                "on_value feeds the combined value back between sweeps and is "
                "incompatible with time_block > 1 (temporal blocking only "
                "combines once per block); configure time_block=1 for "
                "statistics-coupled loops like SRAD"
            )
        if reduce_fn is None:
            reduce_fn = l2_sq_residual
            if residual_fn is None:
                residual_fn = math.sqrt
        if residual_fn is None:
            residual_fn = float
        self._reduce_fn = reduce_fn
        self._conv = conv = {"iterations": 0, "residuals": [], "values": [], "converged": False}
        k = self._time_block

        def body(_round: int) -> bool:
            left = max_iters - conv["iterations"]
            # Speculate only when another round follows, and never under
            # a checkpoint manager: no halo message may be in flight
            # across a rollback boundary.
            return self._fused_round(
                min(k, left),
                tol,
                reduce_op,
                residual_fn,
                on_value,
                speculate=checkpoint is None and left > k,
            )

        try:
            # One loop iteration per exchange round, so checkpoints land
            # on round boundaries and a crash-restart inside a round
            # replays it whole to the same bit-identical grid and history.
            rounds = -(-max_iters // k)
            if checkpoint is not None:
                checkpoint.run_convergence(
                    rounds, body, self.snapshot_state, self.restore_state
                )
            else:
                for it in range(rounds):
                    if body(it):
                        break
                self.cancel_begun_step()
            return ConvergenceResult(
                iterations=conv["iterations"],
                residuals=conv["residuals"],
                values=conv["values"],
                converged=conv["converged"],
            )
        finally:
            self._reduce_fn = None
            self._conv = None
            self._values, self._grids = [], []

    def _fused_round(
        self,
        sweeps: int,
        tol: float | None,
        reduce_op: str,
        residual_fn: Callable[[Any], float],
        on_value: Callable[[Any], None] | None,
        *,
        speculate: bool,
    ) -> bool:
        """One round of fused sweeps + a single vector combine.

        Every sweep's local value is captured by the :meth:`_after_apply`
        hook; the round then folds all of them in *one* collective —
        recursive doubling applies the combine ufunc elementwise, so each
        component of the folded vector is bitwise the scalar a per-sweep
        ``allreduce`` would have produced (same rank tree, same IEEE op
        order).  Residuals are consumed sweep by sweep against ``tol``:
        on a mid-round hit the grid rewinds to the converged sweep's
        interior (the overshot sweeps' charges stay — the round was
        really computed) and the history ends exactly where the
        ``time_block=1`` loop's would.  Returns True to stop.
        """
        env = self.env
        conv = self._conv
        self._values, self._grids = [], []
        self._rewind_points = sweeps - 1 if tol is not None else 0
        self._advance(sweeps)
        if speculate:
            # Post the next round's exchange before the combine so the
            # strips' flight time hides under the collective.
            self.begin_step_early()
        combined = self._combine(np.stack([np.asarray(v) for v in self._values]), reduce_op)
        for s in range(sweeps):
            value = combined[s]
            conv["iterations"] += 1
            conv["values"].append(value)
            if on_value is not None:
                on_value(value)
            residual = float(residual_fn(value))
            conv["residuals"].append(residual)
            if env.trace.enabled:
                env.trace.count("stencil_reduce.steps")
                env.trace.gauge("stencil_reduce.residual", residual)
            if tol is not None and residual <= tol:
                conv["converged"] = True
                if s < sweeps - 1:
                    # The round overshot: functionally rewind the grid to
                    # the converged sweep (halos are stale but the loop
                    # is over; results read interiors only).
                    self._src[self.interior] = self._grids[s]
                return True
        return False

    # -- checkpoint/restart ----------------------------------------------
    def snapshot_state(self) -> dict:
        """Grid snapshot plus the convergence accumulator.

        The residual/value history, iteration count, and the kernel
        parameter all evolve with the loop (``on_value`` may rewrite the
        parameter from global statistics), so a rollback must restore
        them together with the grid — otherwise a recovered run would
        re-append residuals it already recorded or resume with a
        parameter computed from lost iterations.
        """
        state = super().snapshot_state()
        if self._conv is not None:
            # Histories are append-only and the combined values are fresh
            # objects each step, so shallow list copies are independent.
            state["convergence"] = {
                "iterations": self._conv["iterations"],
                "residuals": list(self._conv["residuals"]),
                "values": list(self._conv["values"]),
                "converged": self._conv["converged"],
            }
            state["parameter"] = self._parameter
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        conv = state.get("convergence")
        if conv is not None and self._conv is not None:
            self._conv["iterations"] = conv["iterations"]
            self._conv["residuals"] = list(conv["residuals"])
            self._conv["values"] = list(conv["values"])
            self._conv["converged"] = conv["converged"]
            self._parameter = state["parameter"]
