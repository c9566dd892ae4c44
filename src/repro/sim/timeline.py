"""Busy-interval timeline for one execution resource.

A :class:`Timeline` models a serially-executing resource: one CPU core, one
GPU compute engine, one GPU copy engine, or one network injection port.
Scheduling an item at ready-time ``t`` places it at ``max(t, available_at)``
— i.e. classic list scheduling — and the resulting start/finish times are
what make load imbalance and pipelining *emerge* rather than being assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ValidationError


@dataclass(slots=True)
class Interval:
    """One scheduled busy interval (treat as immutable).

    A plain slotted dataclass rather than a frozen one: timelines create
    one per scheduled item on the simulation hot path, and frozen
    dataclasses pay ``object.__setattr__`` per field on construction.
    """

    start: float
    end: float
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """List schedule of busy intervals on one resource.

    A timeline keeps only what placing the next item needs — when it is
    free and how long it has been busy — not the intervals it placed.
    Whoever wants the history attaches a *sink* with :meth:`observe`; every
    scheduled interval is then reported to it, which is how :mod:`repro.obs`
    keeps a full-run history even though devices :meth:`reset` their
    timelines every step.  The sink never influences scheduling, so virtual
    time is bit-identical with or without one; when no sink is attached the
    only cost is one ``is None`` check.
    """

    __slots__ = ("name", "_available_at", "_busy", "_sink")

    def __init__(self, name: str, start: float = 0.0) -> None:
        self.name = name
        self._available_at = float(start)
        self._busy = 0.0
        self._sink = None

    def observe(self, sink) -> None:
        """Attach ``sink(name, start, end, label)``, called per interval."""
        self._sink = sink

    @property
    def available_at(self) -> float:
        """Earliest time a new item could start."""
        return self._available_at

    @property
    def busy_time(self) -> float:
        """Total scheduled busy seconds."""
        return self._busy

    def schedule(self, ready: float, duration: float, label: str = "") -> Interval:
        """Schedule an item that becomes ready at ``ready`` for ``duration``.

        Returns the placed interval; the item starts at
        ``max(ready, available_at)`` and the resource is then busy until its
        end.
        """
        # Coerce to python floats: callers sometimes hand in numpy scalars,
        # and letting them propagate through interval endpoints makes every
        # later comparison an order of magnitude slower.  Bit-identical —
        # both are IEEE doubles.
        ready = float(ready)
        duration = float(duration)
        if duration < 0:
            raise ValidationError(f"duration must be >= 0, got {duration}")
        if ready < 0:
            raise ValidationError(f"ready time must be >= 0, got {ready}")
        start = max(ready, self._available_at)
        interval = Interval(start=start, end=start + duration, label=label)
        self._available_at = interval.end
        self._busy += duration
        if self._sink is not None:
            self._sink(self.name, start, interval.end, label)
        return interval

    def reset(self, start: float = 0.0) -> None:
        """Clear all scheduled state, as if freshly constructed at ``start``.

        Devices reset their engine timelines every stencil step; reusing
        the object (instead of constructing a new one) keeps the per-step
        allocation count flat.
        """
        self._available_at = float(start)
        self._busy = 0.0

    def idle_time(self, horizon: float | None = None) -> float:
        """Idle seconds up to ``horizon`` (default: last finish time)."""
        end = self._available_at if horizon is None else horizon
        return max(0.0, end - self._busy)

    def utilization(self, horizon: float | None = None) -> float:
        """Busy fraction in ``[0, horizon]`` (0.0 for an empty timeline)."""
        end = self._available_at if horizon is None else horizon
        if end <= 0:
            return 0.0
        return min(1.0, self._busy / end)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Timeline({self.name!r}, busy={self._busy:.6f}, "
            f"available_at={self._available_at:.6f})"
        )
