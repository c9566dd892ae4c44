"""Reduction-space partitioning and the Fig. 3 node arrangement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.partition import (
    _sorted_distinct,
    arrange_nodes,
    block_partition,
    classify_edges,
    count_edges_by_node_ranges,
    owner_of,
    partition_counts,
    validate_range_tiling,
)
from repro.util.errors import ValidationError


@given(st.integers(0, 1000), st.integers(1, 40))
def test_block_partition_covers_and_balances(n, parts):
    offsets = block_partition(n, parts)
    assert offsets[0] == 0 and offsets[-1] == n
    sizes = np.diff(offsets)
    assert (sizes >= 0).all()
    assert sizes.max() - sizes.min() <= 1
    assert (sizes == partition_counts(n, parts)).all()


def test_block_partition_exact_example():
    np.testing.assert_array_equal(block_partition(10, 3), [0, 4, 7, 10])


def test_block_partition_validation():
    with pytest.raises(ValidationError):
        block_partition(-1, 2)
    with pytest.raises(ValidationError):
        block_partition(5, 0)


@given(st.integers(1, 500), st.integers(1, 16))
def test_owner_of_consistent_with_offsets(n, parts):
    offsets = block_partition(n, parts)
    ids = np.arange(n)
    owners = owner_of(offsets, ids)
    for p in range(parts):
        lo, hi = offsets[p], offsets[p + 1]
        assert (owners[lo:hi] == p).all()


def test_owner_of_range_check():
    with pytest.raises(ValidationError):
        owner_of(block_partition(10, 2), np.array([10]))


def test_classify_edges_masks():
    edges = np.array([[0, 1], [1, 5], [5, 6], [0, 6], [2, 3]])
    local, cross = classify_edges(edges, 0, 4)
    np.testing.assert_array_equal(local, [True, False, False, False, True])
    np.testing.assert_array_equal(cross, [False, True, False, True, False])
    with pytest.raises(ValidationError):
        classify_edges(np.zeros((3, 3)), 0, 4)


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return np.unique(edges, axis=0)  # drop duplicates: the count test needs a set


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
def test_cross_edges_assigned_to_both_sides(parts):
    """Paper: a cross edge appears in exactly the two partitions it spans."""
    n = 40
    edges = _random_graph(n, 300, seed=1)
    offsets = block_partition(n, parts)
    seen = {}
    for p in range(parts):
        _, local, cross = arrange_nodes(edges, offsets, p)
        for u, v in local:
            seen[(u, v)] = seen.get((u, v), 0) + 1
        for u, v in cross:
            seen[(u, v)] = seen.get((u, v), 0) + 1
    for (u, v), count in seen.items():
        same = owner_of(offsets, np.array([u]))[0] == owner_of(offsets, np.array([v]))[0]
        assert count == (1 if same else 2), f"edge ({u},{v}) seen {count} times"
    # every edge covered
    assert len(seen) == len({(u, v) for u, v in map(tuple, edges)})


def test_arrangement_layout_local_first_remotes_grouped():
    """Fig. 3: local nodes in front, remote nodes grouped by owner."""
    n = 30
    edges = _random_graph(n, 150, seed=2)
    offsets = block_partition(n, 3)
    arr, local, cross = arrange_nodes(edges, offsets, 1)
    assert arr.lo == offsets[1] and arr.hi == offsets[2]
    base = arr.n_local
    for owner in sorted(arr.remote_ids):
        ids = arr.remote_ids[owner]
        assert (np.sort(ids) == ids).all()
        assert arr.remote_offsets[owner] == base
        base += len(ids)
        # every remote id really belongs to that owner
        assert (owner_of(offsets, ids) == owner).all()
    assert arr.n_slots == base


def test_slot_mapping_roundtrip():
    n = 25
    edges = _random_graph(n, 120, seed=3)
    offsets = block_partition(n, 2)
    arr, local, cross = arrange_nodes(edges, offsets, 0)
    # local ids map to [0, n_local)
    slots = arr.slot_of_global(np.arange(arr.lo, arr.hi), n)
    np.testing.assert_array_equal(slots, np.arange(arr.n_local))
    # cross-edge endpoints all resolve
    if len(cross):
        slots = arr.slot_of_global(cross.reshape(-1), n)
        assert (slots >= 0).all() and (slots < arr.n_slots).all()


def test_slot_mapping_unknown_id_raises():
    n = 20
    edges = np.array([[0, 1]])
    offsets = block_partition(n, 2)
    arr, _, _ = arrange_nodes(edges, offsets, 0)
    with pytest.raises(ValidationError):
        arr.slot_of_global(np.array([15]), n)  # never referenced remote


@given(
    st.integers(0, 200).flatmap(
        lambda n: hnp.arrays(
            st.sampled_from([np.int64, np.int32]),
            n,
            # a narrow range repeats values (all-equal when it is one wide)
            elements=st.integers(-3, 3) | st.integers(-(2**31), 2**31 - 1),
        )
    )
)
def test_sorted_distinct_is_np_unique(values):
    got = _sorted_distinct(values)
    np.testing.assert_array_equal(got, np.unique(values))
    assert got.dtype == values.dtype and got.shape == (len(set(values.tolist())),)


def test_sorted_distinct_edge_cases():
    assert _sorted_distinct(np.empty(0, dtype=np.int64)).shape == (0,)
    np.testing.assert_array_equal(_sorted_distinct(np.full(9, 4)), [4])
    np.testing.assert_array_equal(_sorted_distinct(np.array([3, 1, 3, 2, 1])), [1, 2, 3])


def test_arrange_nodes_bad_part():
    with pytest.raises(ValidationError):
        arrange_nodes(np.array([[0, 1]]), block_partition(4, 2), 2)


def test_validate_range_tiling_accepts_exact_tilings():
    validate_range_tiling([(0, 9)], 9)
    validate_range_tiling([(0, 4), (4, 9)], 9)
    validate_range_tiling([(0, 4), (4, 4), (4, 9)], 9)  # empty device is fine
    validate_range_tiling([(0, 0)], 0)


@given(st.integers(0, 200), st.integers(1, 8))
def test_validate_range_tiling_accepts_every_block_partition(n, parts):
    offsets = block_partition(n, parts)
    ranges = [(int(offsets[p]), int(offsets[p + 1])) for p in range(parts)]
    validate_range_tiling(ranges, n)


@pytest.mark.parametrize(
    "ranges, total",
    [
        ([], 0),  # no devices
        ([(0, 3), (4, 9)], 9),  # gap: node 3 unowned
        ([(0, 5), (4, 9)], 9),  # overlap: node 4 double-covered
        ([(0, 3)], 9),  # short: tail of the space dropped
        ([(1, 9)], 9),  # does not start at 0
        ([(0, 5), (5, 3)], 3),  # inverted range
    ],
)
def test_validate_range_tiling_rejects_broken_tilings(ranges, total):
    with pytest.raises(ValidationError):
        validate_range_tiling(ranges, total)


def test_split_edges_by_node_ranges_duplicates_cross_device():
    edges = np.array([[0, 1], [1, 4], [4, 5], [0, 5]])
    ranges = [(0, 3), (3, 6)]
    # edge 0 only device 0; edge 2 only device 1; edges 1 and 3 both.
    assert count_edges_by_node_ranges(edges, ranges) == [3, 3]
    # Slot 6 is outside the tiled span (a remote node): it owns no device.
    assert count_edges_by_node_ranges(np.array([[0, 6], [4, 6]]), ranges) == [1, 1]
