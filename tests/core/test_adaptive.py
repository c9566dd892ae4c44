"""Adaptive device partitioner (paper SIII-D)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.adaptive import AdaptivePartitioner
from repro.util.errors import SchedulingError, ValidationError


def test_even_split_before_profiling():
    p = AdaptivePartitioner(3)
    assert not p.profiled
    np.testing.assert_array_equal(p.split(9), [3, 3, 3])
    np.testing.assert_array_equal(p.split(10), [4, 3, 3])


def test_proportional_after_observation():
    p = AdaptivePartitioner(2)
    # device 1 processed twice the elements in the same time -> 2x speed.
    p.observe(np.array([100, 200]), np.array([1.0, 1.0]))
    assert p.profiled
    np.testing.assert_array_equal(p.split(30), [10, 20])


def test_paper_formula_n_times_si_over_sum():
    p = AdaptivePartitioner(3)
    p.observe(np.array([10, 20, 30]), np.array([1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(p.split(600), [100, 200, 300])


@given(st.integers(0, 10_000), st.integers(1, 8))
def test_split_always_sums_to_total(total, n):
    p = AdaptivePartitioner(n)
    counts = p.split(total)
    assert counts.sum() == total
    assert (counts >= 0).all()


@given(
    st.integers(1, 10_000),
    st.lists(st.floats(0.1, 100, allow_nan=False), min_size=2, max_size=6),
)
def test_split_proportional_sums_to_total(total, speeds):
    p = AdaptivePartitioner(len(speeds))
    p.observe(np.array(speeds) * 10, np.full(len(speeds), 10.0))
    counts = p.split(total)
    assert counts.sum() == total


def test_idle_device_keeps_previous_speed():
    p = AdaptivePartitioner(2)
    p.observe(np.array([100, 300]), np.array([1.0, 1.0]))
    p.observe(np.array([50, 0]), np.array([1.0, 0.0]))  # device 1 idle this step
    np.testing.assert_array_equal(p.split(700), [100, 600])


def test_idle_device_without_history_gets_mean():
    p = AdaptivePartitioner(2)
    p.observe(np.array([100, 0]), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(p.split(10), [5, 5])


def test_observe_validation():
    p = AdaptivePartitioner(2)
    with pytest.raises(ValidationError):
        p.observe(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        p.observe(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    with pytest.raises(SchedulingError):
        p.observe(np.array([0.0, 0.0]), np.array([0.0, 0.0]))


def test_constructor_validation():
    with pytest.raises(ValidationError):
        AdaptivePartitioner(0)
    p = AdaptivePartitioner(1)
    with pytest.raises(ValidationError):
        p.split(-1)


def test_largest_remainder_ties_are_deterministic():
    """Equal fractional remainders must break ties identically every call.

    With 4 equally fast devices and a total of 4k+2 elements, every
    device has remainder 0.5 and exactly two get the extra element —
    which two is an argsort tie, and the answer must be stable (SPMD
    ranks each compute their own split; divergence would desynchronize
    device charges across reruns and backends).
    """
    p = AdaptivePartitioner(4)
    p.observe(np.array([10, 10, 10, 10]), np.array([1.0, 1.0, 1.0, 1.0]))
    first = p.split(10)
    assert first.sum() == 10
    for _ in range(5):
        p2 = AdaptivePartitioner(4)
        p2.observe(np.array([10, 10, 10, 10]), np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(p2.split(10), first)
    # np.argsort is stable for equal keys: the extra elements go to the
    # lowest-indexed tied devices.
    np.testing.assert_array_equal(first, [3, 3, 2, 2])


def test_split_cache_reused_and_invalidated_on_observe():
    p = AdaptivePartitioner(2)
    p.observe(np.array([100, 300]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(p.split(100), [25, 75])
    assert p._split_cache is not None and p._split_cache[0] == 100
    cached = p._split_cache[1]
    # Same total hits the memo (fresh copy, same counts, same identity
    # of the cached array).
    np.testing.assert_array_equal(p.split(100), [25, 75])
    assert p._split_cache[1] is cached
    # Mutating the returned copy must not poison the cache.
    out = p.split(100)
    out[0] = 999
    np.testing.assert_array_equal(p.split(100), [25, 75])
    # A new observation invalidates the memo and changes the answer.
    p.observe(np.array([100, 100]), np.array([1.0, 1.0]))
    assert p._split_cache is None
    np.testing.assert_array_equal(p.split(100), [50, 50])


def test_state_dict_roundtrip_preserves_profile_and_cache():
    p = AdaptivePartitioner(2)
    p.observe(np.array([100, 300]), np.array([1.0, 1.0]))
    p.split(100)  # warm the memo
    state = p.state_dict()

    q = AdaptivePartitioner(2)
    q.load_state(state)
    assert q.profiled
    np.testing.assert_array_equal(q.split(100), p.split(100))
    np.testing.assert_array_equal(q._speeds, p._speeds)
    # The saved state is independent of both partitioners.
    state["speeds"][0] = -1
    assert p._speeds[0] != -1 and q._speeds[0] != -1


def test_state_dict_roundtrip_unprofiled():
    state = AdaptivePartitioner(3).state_dict()
    assert state["speeds"] is None and state["split_cache"] is None
    q = AdaptivePartitioner(3)
    q.observe(np.array([1, 2, 3]), np.array([1.0, 1.0, 1.0]))
    q.load_state(state)  # restoring a pre-profile snapshot forgets the profile
    assert not q.profiled
    np.testing.assert_array_equal(q.split(9), [3, 3, 3])
