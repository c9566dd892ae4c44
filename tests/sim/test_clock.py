"""Virtual clock semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import VirtualClock
from repro.util.errors import ValidationError


def test_starts_at_zero():
    assert VirtualClock().now == 0.0


def test_advance_accumulates():
    clock = VirtualClock()
    assert clock.advance(1.5) == 1.5
    assert clock.advance(0.5) == 2.0
    assert clock.now == 2.0


def test_advance_rejects_negative():
    with pytest.raises(ValidationError):
        VirtualClock().advance(-1e-9)


def test_advance_to_only_moves_forward():
    clock = VirtualClock()
    clock.advance_to(3.0)
    assert clock.now == 3.0
    clock.advance_to(1.0)  # in the past: no-op
    assert clock.now == 3.0


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50))
def test_monotonicity_under_mixed_operations(durations):
    clock = VirtualClock()
    last = 0.0
    for i, d in enumerate(durations):
        if i % 2 == 0:
            clock.advance(d)
        else:
            clock.advance_to(d)
        assert clock.now >= last
        last = clock.now
