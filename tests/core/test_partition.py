"""Reduction-space partitioning and the Fig. 3 node arrangement."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.partition import (
    _sorted_distinct,
    block_partition,
    count_edges_by_node_ranges,
    decompose,
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


def test_block_partition_exact_example():
    np.testing.assert_array_equal(block_partition(10, 3), [0, 4, 7, 10])


def test_block_partition_validation():
    with pytest.raises(ValidationError):
        block_partition(-1, 2)
    with pytest.raises(ValidationError):
        block_partition(5, 0)


def _brute_decomposition(edges, offsets, rank):
    """The §II-A rule edge by edge: local / cross masks, each owner's remotes."""
    lo, hi = offsets[rank], offsets[rank + 1]
    local, cross, remote = [], [], set()
    for u, v in edges.tolist():
        u_in, v_in = lo <= u < hi, lo <= v < hi
        local.append(u_in and v_in)
        cross.append(u_in != v_in)
        if u_in != v_in:
            remote.add(v if u_in else u)
    by_owner = [
        sorted(i for i in remote if offsets[p] <= i < offsets[p + 1])
        for p in range(len(offsets) - 1)
    ]
    return np.array(local, dtype=bool), np.array(cross, dtype=bool), by_owner


@st.composite
def _graphs(draw):
    """A random multigraph: self-loops, repeats, isolated nodes, maybe no edges."""
    n = draw(st.integers(1, 40))
    parts = draw(st.integers(1, 6))
    m = draw(st.integers(0, 60))
    edges = draw(hnp.arrays(np.int64, (m, 2), elements=st.integers(0, n - 1)))
    return edges, block_partition(n, parts)


@given(_graphs())
@example((np.empty((0, 2), np.int64), block_partition(5, 3)))  # no edges
@example((np.array([[2, 2], [0, 4], [4, 4], [0, 4]]), block_partition(9, 4)))  # loops, repeats
def test_decompose_matches_the_per_edge_definition(graph):
    edges, offsets = graph
    for rank in range(len(offsets) - 1):
        local, cross, local_slots, cross_slots, remote, groups = decompose(edges, offsets, rank)
        want_local, want_cross, by_owner = _brute_decomposition(edges, offsets, rank)
        np.testing.assert_array_equal(local, np.flatnonzero(want_local))
        np.testing.assert_array_equal(cross, np.flatnonzero(want_cross))
        assert groups[0] == 0 and groups[-1] == len(remote)
        for owner, ids in enumerate(by_owner):
            assert remote[groups[owner] : groups[owner + 1]].tolist() == ids
        # Slot -> global id: the local block in front, the remotes behind.
        global_of_slot = np.concatenate([np.arange(offsets[rank], offsets[rank + 1]), remote])
        np.testing.assert_array_equal(global_of_slot[local_slots], edges[local])
        np.testing.assert_array_equal(global_of_slot[cross_slots], edges[cross])


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
    seen = np.zeros(len(edges), dtype=int)
    for p in range(parts):
        local, cross, *_ = decompose(edges, offsets, p)
        np.add.at(seen, np.concatenate([local, cross]), 1)
    owner = np.searchsorted(offsets, edges, side="right") - 1
    np.testing.assert_array_equal(seen, np.where(owner[:, 0] == owner[:, 1], 1, 2))


def test_arrangement_layout_local_first_remotes_grouped():
    """Fig. 3: local nodes in front, remote nodes grouped by owner."""
    n = 30
    edges = _random_graph(n, 150, seed=2)
    offsets = block_partition(n, 3)
    _, _, local_slots, cross_slots, remote, groups = decompose(edges, offsets, 1)
    n_local = offsets[2] - offsets[1]
    assert (local_slots < n_local).all()
    assert (np.diff(remote) > 0).all()  # sorted, each id once
    assert groups[1] == groups[2]  # none of its own
    for owner in range(3):
        ids = remote[groups[owner] : groups[owner + 1]]
        assert ((ids >= offsets[owner]) & (ids < offsets[owner + 1])).all()
    # Each remote slot is read by a cross edge.
    remote_reads = cross_slots[cross_slots >= n_local]
    np.testing.assert_array_equal(np.unique(remote_reads), n_local + np.arange(len(remote)))


def test_slot_mapping_roundtrip():
    n = 25
    edges = _random_graph(n, 120, seed=3)
    offsets = block_partition(n, 2)
    local, cross, local_slots, cross_slots, remote, _ = decompose(edges, offsets, 0)
    # local ids map to [0, n_local), remote ids to the slots behind them
    np.testing.assert_array_equal(local_slots, edges[local])
    global_of_slot = np.concatenate([np.arange(offsets[1]), remote])
    np.testing.assert_array_equal(global_of_slot[cross_slots], edges[cross])


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
