"""Busy-interval timeline (list scheduling substrate)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.timeline import Timeline
from repro.util.errors import ValidationError


def test_schedule_at_ready_time_when_free():
    tl = Timeline("t")
    iv = tl.schedule(2.0, 1.0, "a")
    assert (iv.start, iv.end) == (2.0, 3.0)
    assert tl.available_at == 3.0


def test_schedule_queues_when_busy():
    tl = Timeline("t")
    tl.schedule(0.0, 5.0)
    iv = tl.schedule(1.0, 1.0)  # ready at 1 but resource busy until 5
    assert iv.start == 5.0
    assert iv.end == 6.0


def test_busy_and_idle_accounting():
    """Busy time is what the sink sees; the rest up to ``available_at`` is idle."""
    tl = Timeline("t")
    seen = []
    tl.observe(lambda name, start, end, label: seen.append(end - start))
    tl.schedule(0.0, 2.0)
    tl.schedule(5.0, 1.0)  # 3s idle gap
    assert sum(seen) == 3.0
    assert tl.available_at - sum(seen) == 3.0


def test_start_offset():
    tl = Timeline("t", start=10.0)
    iv = tl.schedule(0.0, 1.0)
    assert iv.start == 10.0


def test_validation():
    tl = Timeline("t")
    with pytest.raises(ValidationError):
        tl.schedule(0.0, -1.0)
    with pytest.raises(ValidationError):
        tl.schedule(-1.0, 1.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        max_size=40,
    )
)
def test_intervals_never_overlap(items):
    """The history lives in the sink: every placed interval reaches it, in
    order, and none overlaps the one before."""
    tl = Timeline("t")
    seen = []
    tl.observe(lambda name, start, end, label: seen.append((name, start, end, label)))
    placed = [tl.schedule(ready, dur, str(i)) for i, (ready, dur) in enumerate(items)]
    assert seen == [("t", iv.start, iv.end, iv.label) for iv in placed]
    for a, b in zip(placed, placed[1:]):
        assert b.start >= a.end
    assert tl.available_at == (placed[-1].end if placed else 0.0)
