"""The observability recorder: a :class:`~repro.sim.trace.Trace` that also
captures per-:class:`~repro.sim.timeline.Timeline` busy intervals.

Pattern runtimes reset their devices' engine timelines every step (list
scheduling restarts from the step's t0), so post-run inspection of the
timelines themselves only ever sees the *last* step.  The recorder fixes
that by attaching itself as the timelines' interval sink: every scheduled
interval is mirrored into a per-rank history the analysis layer can sweep
over the whole run.

Attachment happens through the two hooks the simulation layers call on
every trace object (no-ops on the plain :class:`Trace`):

- :meth:`Recorder.bind_fabric` — called by ``spmd_run`` once per rank,
  attaches the rank's NIC egress/ingress timelines (wire serialization).
- :meth:`Recorder.bind_device` — called by ``RuntimeEnv`` per device,
  attaches every engine timeline (CPU cores, GPU copy/compute engines).

The sink only appends to a Python list; it never reads scheduling state,
so makespans are bit-identical with a recorder installed or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.trace import Trace


@dataclass(slots=True)
class IntervalRecord:
    """One busy interval on one named resource timeline (immutable)."""

    timeline: str
    start: float
    end: float
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder(Trace):
    """Per-rank observability recorder (spans + counters + timeline history)."""

    __slots__ = ("_intervals", "_timeline_names")

    def __init__(self, rank: int, enabled: bool = True) -> None:
        super().__init__(rank, enabled=enabled)
        self._intervals: list[IntervalRecord] = []
        self._timeline_names: list[str] = []

    # -- binding hooks --------------------------------------------------
    def bind_fabric(self, fabric: Any) -> None:
        """Attach this rank's NIC egress/ingress timelines as sinks.

        The timelines live on the fabric's per-rank shard (egress is
        scheduled under the sender's shard lock, ingress under the
        receiver's), so the sink only ever fires with that shard's lock
        held — appends from different ranks never interleave within one
        recorder.
        """
        if not self.enabled:
            return
        self._attach(fabric.egress_timeline(self.rank))
        self._attach(fabric.ingress_timeline(self.rank))

    def bind_device(self, device: Any) -> None:
        """Attach every engine timeline of one device (a CPU builds its
        per-core ``workers`` lines for this)."""
        if not self.enabled:
            return
        for tl in getattr(device, "workers", None) or device.timelines():
            self._attach(tl)

    def _attach(self, timeline: Any) -> None:
        if timeline.name not in self._timeline_names:
            self._timeline_names.append(timeline.name)
        timeline.observe(self._sink)

    def _sink(self, name: str, start: float, end: float, label: str) -> None:
        self._intervals.append(IntervalRecord(name, start, end, label))

    # -- queries --------------------------------------------------------
    @property
    def intervals(self) -> tuple[IntervalRecord, ...]:
        """Full-run interval history across all attached timelines."""
        return tuple(self._intervals)

    @property
    def timeline_names(self) -> tuple[str, ...]:
        """Names of every timeline attached, in attach order (an attached
        timeline appears even if it never scheduled anything)."""
        return tuple(self._timeline_names)

    def intervals_by_timeline(self) -> dict[str, list[IntervalRecord]]:
        """Interval history grouped by timeline name (attach order)."""
        out: dict[str, list[IntervalRecord]] = {name: [] for name in self._timeline_names}
        for rec in self._intervals:
            out.setdefault(rec.timeline, []).append(rec)
        return out
