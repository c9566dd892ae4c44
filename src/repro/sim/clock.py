"""Per-rank virtual clock.

Each simulated MPI process owns one :class:`VirtualClock`.  Local compute
*advances* it; receiving a message *synchronizes* it forward to the
message's arrival time (Lamport-style max).  Clocks never move backwards,
which is the invariant the property tests pin down.
"""

from __future__ import annotations

from repro.util.errors import ValidationError


class VirtualClock:
    """Monotonic simulated-time accumulator for one rank.

    Not thread-safe by design: exactly one rank thread owns each clock.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Advance by a non-negative duration; returns the new time."""
        if dt < 0:
            raise ValidationError(f"cannot advance clock by negative dt={dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move forward to time ``t`` if it is in the future; returns now.

        Used when synchronizing with an event that happened elsewhere (a
        message arrival, a device finishing): if the rank is already past
        ``t`` the clock is unchanged.
        """
        if t > self._now:
            self._now = float(t)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.9f})"
