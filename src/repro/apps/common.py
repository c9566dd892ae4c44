"""Shared application plumbing: results, sequential-time modeling, helpers."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.specs import CPUSpec, NodeSpec
from repro.device.cpu import CPUDevice
from repro.device.work import WorkModel
from repro.sim.engine import RankContext
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class AppRun:
    """Outcome of one application execution on a simulated cluster."""

    app: str
    mix: str
    nodes: int
    makespan: float
    seq_time: float
    result: Any = None
    #: The underlying SPMD result (per-rank values, final clocks, traces);
    #: kept for observability (``repro profile``), excluded from equality.
    spmd: Any = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def speedup(self) -> float:
        """Speedup over the modeled sequential single-core execution —
        the paper's Figure 5 y-axis."""
        if self.makespan <= 0:
            raise ValidationError("makespan must be > 0 to compute a speedup")
        return self.seq_time / self.makespan


def single_core_spec(cpu: CPUSpec) -> CPUSpec:
    """A one-core view of a CPU for sequential baselines and per-core MPI ranks.

    The lone core keeps its compute rate and its 1/cores share of the node
    memory bandwidth and cache — consistent with how the multi-core model
    accounts per-core resources, so "12 x one-core ranks" and "one 12-core
    process" have identical aggregate capability and differ only in
    software structure (message counts, combine trees, overlap), which is
    exactly the comparison the paper's §IV-C makes.
    """
    return dataclasses.replace(
        cpu,
        cores=1,
        mem_bandwidth=cpu.mem_bandwidth / cpu.cores,
        cache_bytes=cpu.cache_bytes / cpu.cores,
    )


def sequential_elem_time(work: WorkModel, node: NodeSpec, *, framework: bool = False) -> float:
    """Modeled per-element time of a hand-written sequential (1-core) loop."""
    dev = CPUDevice(single_core_spec(node.cpu))
    return dev.core_elem_time(work, localized=True, framework=framework)


def sequential_time(work: WorkModel, n_elems: float, node: NodeSpec, iterations: int = 1) -> float:
    """Modeled sequential single-core time for ``iterations`` passes."""
    if n_elems <= 0 or iterations < 1:
        raise ValidationError("n_elems must be > 0 and iterations >= 1")
    return iterations * n_elems * sequential_elem_time(work, node)


def extrapolate_steps(step_times: list[float], total_iterations: int) -> float:
    """Total time for ``total_iterations`` from a few measured steps.

    Early simulated steps include one-time costs (setup exchange, the even
    split before the adaptive repartition, the repartition's data
    movement); the *last* measured step is steady state.  The estimate is
    the measured prefix plus the steady rate for the remainder::

        sum(measured) + last * (total - len(measured))

    >>> extrapolate_steps([3.0, 2.0, 1.0], 10)
    13.0
    """
    if not step_times:
        raise ValidationError("need at least one measured step")
    if total_iterations < len(step_times):
        raise ValidationError(
            f"total_iterations ({total_iterations}) below measured steps ({len(step_times)})"
        )
    return sum(step_times) + step_times[-1] * (total_iterations - len(step_times))


class StepLoop:
    """The rank programs' one time-step loop driver.

    Create it first thing in a rank program and call :meth:`finish` last
    thing.  ``reliable`` wraps the rank's communicator in
    :class:`~repro.comm.reliable.ReliableComm` — everything built
    afterwards runs over it, so the run completes bit-identically under a
    lossy fault plan — and ``checkpoint_every`` (cadence in loop
    iterations) puts the loop under a
    :class:`~repro.core.checkpoint.CheckpointManager`, so an injected
    rank crash recovers from the last snapshot instead of failing the run.
    """

    def __init__(
        self, ctx: RankContext, *, reliable: bool = False, checkpoint_every: int | None = None
    ) -> None:
        if reliable:
            from repro.comm.reliable import ReliableComm

            ctx.comm = ReliableComm(ctx.comm)
        self.ctx = ctx
        self.reliable = reliable
        #: None when un-checkpointed; loops that drive themselves
        #: (``run_until``) take it directly.
        self.manager = None
        if checkpoint_every is not None:
            from repro.core.checkpoint import CheckpointManager

            self.manager = CheckpointManager(ctx, every=checkpoint_every)

    def run(
        self,
        steps: int,
        advance: Callable[[int], None],
        capture: Callable[[], Any] | None = None,
        restore: Callable[[Any], None] | None = None,
        *,
        block: int = 1,
    ) -> list[float]:
        """Run ``steps`` steps as timed ``advance(min(block, steps left))``
        calls; returns per-step virtual times.

        A block's elapsed time is spread evenly over its steps: the total
        is exact and the last entry is the steady per-step rate, which is
        what :func:`extrapolate_steps` reads.  Blocks are the checkpoint
        unit; ``capture`` / ``restore`` are needed iff the loop is
        checkpointed.  Steps re-executed after a crash are timed again.
        """
        clock = self.ctx.clock
        step_times: list[float] = []

        def one_block(b: int) -> None:
            n = min(block, steps - b * block)
            t0 = clock.now
            advance(n)
            step_times.extend([(clock.now - t0) / n] * n)

        n_blocks = -(-steps // block)
        if self.manager is not None:
            self.manager.run_iterations(n_blocks, one_block, capture, restore)
        else:
            for b in range(n_blocks):
                one_block(b)
        return step_times

    def finish(self) -> int:
        """Drain the reliable layer's acknowledgements; returns the
        number of crash recoveries the loop went through."""
        if self.reliable:
            self.ctx.comm.flush()
        return 0 if self.manager is None else self.manager.recoveries


def check_functional_scale(functional: int, model: int, name: str) -> None:
    """Guard that a config's functional size does not exceed its model size."""
    if functional > model:
        raise ValidationError(
            f"{name}: functional size {functional} exceeds modeled size {model}"
        )


def parse_time_block(value: str | int) -> int | str:
    """Parse a ``--time-block`` value: a positive integer or ``"auto"``.

    The CLI's argparse type, so ``run``, ``profile`` and ``submit`` accept
    the same spellings and report the same error.
    """
    if isinstance(value, int):
        if value < 1:
            raise ValidationError(f"time block must be >= 1, got {value}")
        return value
    text = value.strip().lower()
    if text == "auto":
        return "auto"
    try:
        k = int(text)
    except ValueError:
        raise ValidationError(
            f"time block must be a positive integer or 'auto', got {value!r}"
        ) from None
    if k < 1:
        raise ValidationError(f"time block must be >= 1, got {k}")
    return k
