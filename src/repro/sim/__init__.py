"""Virtual-time simulation substrate.

The whole reproduction runs computations *functionally* (real NumPy math on
real arrays) while accounting time on a **virtual clock** per rank plus
per-device :class:`Timeline` objects, in the style of LogGP trace-driven
simulators.  Communication and device costs advance virtual time; wall-clock
time is irrelevant to every reported number.

Key pieces:

- :class:`VirtualClock` — one per simulated MPI process (rank).
- :class:`Timeline` — one per execution resource (CPU core, GPU compute
  engine, GPU copy engine); supports list-scheduling of work items.
- :class:`Trace` — optional event recording used by tests to verify
  behavioural claims (e.g. that communication genuinely overlaps compute).
- :func:`spmd_run` — executes one Python function per rank, one rank at a
  time under a deterministic baton, wiring up clocks, communicators, and
  devices.
"""

from repro.sim.clock import VirtualClock
from repro.sim.timeline import Timeline
from repro.sim.trace import Trace, TraceEvent, overlap_seconds
from repro.sim.engine import (
    RankContext,
    SpmdResult,
    active_run_stats,
    rank_pool_stats,
    spmd_run,
)

__all__ = [
    "VirtualClock",
    "Timeline",
    "Trace",
    "TraceEvent",
    "overlap_seconds",
    "RankContext",
    "SpmdResult",
    "active_run_stats",
    "rank_pool_stats",
    "spmd_run",
]

