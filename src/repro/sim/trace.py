"""Event tracing: the substrate of the observability layer.

Runtimes record *what happened when* (in virtual time) into a
:class:`Trace`: compute spans, communication spans, transfers, combines.
Tests use traces to assert structural properties the paper claims — e.g.
that with overlapped execution the local-edge compute span genuinely
overlaps the node-data exchange span, or that a tree combine has
``ceil(log2 n)`` rounds — rather than only checking final timings.

An enabled trace also keeps the full-run busy intervals of the rank's NIC
and device timelines (``spmd_run`` and ``RuntimeEnv`` bind them), which
devices reset every step; :mod:`repro.obs` turns them into utilization,
phase attribution and critical-path reports.  A disabled trace binds
nothing, so untraced scheduling pays one ``is None`` check per interval.

Recording must never perturb virtual time — makespans are bit-identical
with tracing on or off — and the *disabled* path must be allocation-free:
``record`` takes its metadata as an optional positional dict (never
``**kwargs``, which would allocate a dict per call before the ``enabled``
check runs), and hot call sites check ``trace.enabled`` before building
labels or metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(slots=True)
class TraceEvent:
    """One traced span of virtual time on one rank (treat as immutable).

    Slotted but not frozen: runtimes record events on the simulation hot
    path, and frozen dataclasses pay ``object.__setattr__`` per field.
    """

    rank: int
    category: str
    label: str
    start: float
    end: float
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Shared empty metadata dict for events recorded without any; saves one
#: dict allocation per meta-less event.  Treated as immutable by contract.
_NO_META: dict[str, Any] = {}


@dataclass(slots=True)
class IntervalRecord:
    """One busy interval on one named resource timeline (treat as immutable)."""

    timeline: str
    start: float
    end: float
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def overlap_seconds(a: TraceEvent, b: TraceEvent) -> float:
    """Length of the temporal intersection of two events (0 if disjoint)."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


class Trace:
    """Per-rank events, counters and timeline history, free when disabled."""

    __slots__ = ("rank", "enabled", "_events", "_counters", "_gauges", "_intervals", "_names")

    def __init__(self, rank: int, enabled: bool = True) -> None:
        self.rank = rank
        self.enabled = enabled
        self._events: list[TraceEvent] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._intervals: list[IntervalRecord] = []
        self._names: list[str] = []  # bound timelines, in bind order

    def record(
        self,
        category: str,
        label: str,
        start: float,
        end: float,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Record a span; no-op when the trace is disabled.

        ``meta`` is an optional plain dict, deliberately *not* ``**kwargs``:
        a ``**``-signature would force CPython to allocate a keyword dict on
        every call, even when ``enabled`` is False.  Callers that attach
        metadata should build the dict behind their own ``enabled`` check.
        """
        if not self.enabled:
            return
        self._events.append(
            TraceEvent(
                rank=self.rank,
                category=category,
                label=label,
                start=float(start),
                end=float(end),
                meta=_NO_META if meta is None else meta,
            )
        )

    # ------------------------------------------------------------------
    # Counters / gauges
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto counter ``name`` (no-op if disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value`` (no-op if disabled)."""
        if not self.enabled:
            return
        self._gauges[name] = float(value)

    @property
    def counters(self) -> dict[str, float]:
        """Accumulated counters (name -> total), per rank."""
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        """Latest gauge values (name -> value), per rank."""
        return dict(self._gauges)

    # ------------------------------------------------------------------
    # Timeline history
    # ------------------------------------------------------------------
    def bind_fabric(self, fabric: Any) -> None:
        """Keep the history of this rank's NIC lines (each is scheduled under
        its rank's fabric shard lock, so appends never interleave)."""
        if self.enabled:
            self._attach(fabric.egress_timeline(self.rank))
            self._attach(fabric.ingress_timeline(self.rank))

    def bind_device(self, device: Any) -> None:
        """Keep the history of every engine line of ``device`` (a CPU builds
        its per-core ``workers`` for this)."""
        if self.enabled:
            for tl in getattr(device, "workers", None) or device.timelines():
                self._attach(tl)

    def _attach(self, timeline: Any) -> None:
        if timeline.name not in self._names:
            self._names.append(timeline.name)
        timeline.observe(self._sink)

    def _sink(self, name: str, start: float, end: float, label: str) -> None:
        self._intervals.append(IntervalRecord(name, start, end, label))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    @property
    def intervals(self) -> tuple[IntervalRecord, ...]:
        """Full-run interval history across all bound timelines."""
        return tuple(self._intervals)

    @property
    def timeline_names(self) -> tuple[str, ...]:
        """Every bound timeline, in bind order, idle ones included."""
        return tuple(self._names)

    def intervals_by_timeline(self) -> dict[str, list[IntervalRecord]]:
        """Interval history grouped by timeline name (bind order)."""
        out: dict[str, list[IntervalRecord]] = {name: [] for name in self._names}
        for rec in self._intervals:
            out[rec.timeline].append(rec)
        return out

    def filter(
        self, category: str | None = None, label_prefix: str | None = None
    ) -> list[TraceEvent]:
        """Events matching a category and/or label prefix."""
        out = []
        for ev in self._events:
            if category is not None and ev.category != category:
                continue
            if label_prefix is not None and not ev.label.startswith(label_prefix):
                continue
            out.append(ev)
        return out

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) across all events; (0, 0) if empty."""
        if not self._events:
            return (0.0, 0.0)
        return (
            min(ev.start for ev in self._events),
            max(ev.end for ev in self._events),
        )

    def total(self, category: str) -> float:
        """Sum of durations of all events in ``category``."""
        return sum(ev.duration for ev in self._events if ev.category == category)

    def by_category(self) -> dict[str, float]:
        """Summed durations keyed by category (insertion-ordered)."""
        out: dict[str, float] = {}
        for ev in self._events:
            out[ev.category] = out.get(ev.category, 0.0) + (ev.end - ev.start)
        return out

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)
