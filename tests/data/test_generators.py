"""Synthetic dataset generators."""

import hashlib
import json
import pathlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.atoms import build_neighbor_edges, fcc_lattice
from repro.data.grids import heat3d_initial, synthetic_image
from repro.data.meshes import geometric_mesh
from repro.data.neighbors import _grid_shape, neighbor_pairs
from repro.data.points import SPREAD, clear_points_cache, clustered_points, points_cache_stats
from repro.util.errors import ValidationError


# ---------------------------------------------------------------- points
def test_clustered_points_shape_and_dtype():
    pts, centers = clustered_points(1000, 40, 3, seed=1)
    assert pts.shape == (1000, 3) and pts.dtype == np.float32
    assert centers.shape == (40, 3)


def test_clustered_points_deterministic():
    a, _ = clustered_points(500, 8, seed=5)
    b, _ = clustered_points(500, 8, seed=5)
    np.testing.assert_array_equal(a, b)
    c, _ = clustered_points(500, 8, seed=6)
    assert not np.array_equal(a, c)


def test_clustered_points_memo_hit_and_readonly():
    clear_points_cache()
    try:
        a, _ = clustered_points(300, 4, seed=1)
        b, _ = clustered_points(300, 4, seed=1)
        assert a is b  # second call is a memo hit, not a regeneration
        assert not a.flags.writeable
        stats = points_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1
    finally:
        clear_points_cache()


def test_clustered_points_memo_bounded_lru():
    clear_points_cache()
    try:
        cap = points_cache_stats()["max_entries"]
        kept, _ = clustered_points(300, 4, seed=0)
        # fill the memo, re-touching seed=0 so it stays most-recently-used
        for seed in range(1, cap):
            clustered_points(300, 4, seed=seed)
        assert clustered_points(300, 4, seed=0)[0] is kept
        # one past the cap: the LRU entry (seed=1) falls out, seed=0 survives
        clustered_points(300, 4, seed=cap)
        stats = points_cache_stats()
        assert stats["size"] == cap and stats["evictions"] == 1
        assert clustered_points(300, 4, seed=0)[0] is kept
        refetched, _ = clustered_points(300, 4, seed=1)
        assert points_cache_stats()["evictions"] == 2  # seed=1 was regenerated
        np.testing.assert_array_equal(refetched, clustered_points(300, 4, seed=1)[0])
    finally:
        clear_points_cache()


def test_clustered_points_cluster_structure():
    pts, centers = clustered_points(4000, 4, 2, seed=0)
    # every point sits near some true center: in 2-D, 95 % of a blob lies
    # within 2.45 standard deviations of it
    d = np.linalg.norm(pts[:, None, :] - centers[None], axis=2).min(axis=1)
    assert np.percentile(d, 95) < 3 * SPREAD


def test_clustered_points_validation():
    with pytest.raises(ValidationError):
        clustered_points(0, 4)
    with pytest.raises(ValidationError):
        clustered_points(3, 4)


# ---------------------------------------------------------------- meshes
def test_geometric_mesh_degree_and_shape():
    pos, edges = geometric_mesh(2000, 10.0, seed=2)
    assert pos.shape == (2000, 3)
    assert edges.shape[1] == 2
    assert (edges[:, 0] < edges[:, 1]).all()
    mean_degree = 2 * len(edges) / 2000
    assert 6 < mean_degree < 15  # within ~40% of the target


def test_geometric_mesh_spatial_sort_improves_locality():
    _, sorted_edges = geometric_mesh(1500, 8.0, seed=3)
    _, raw_edges = geometric_mesh(1500, 8.0, seed=3, shuffle_fraction=1.0)
    span_sorted = np.abs(sorted_edges[:, 1] - sorted_edges[:, 0]).mean()
    span_raw = np.abs(raw_edges[:, 1] - raw_edges[:, 0]).mean()
    assert span_sorted < span_raw / 2


def test_geometric_mesh_shuffle_degrades_locality():
    _, clean = geometric_mesh(1500, 8.0, seed=4, shuffle_fraction=0.0)
    _, noisy = geometric_mesh(1500, 8.0, seed=4, shuffle_fraction=0.3)
    assert np.abs(noisy[:, 1] - noisy[:, 0]).mean() > np.abs(clean[:, 1] - clean[:, 0]).mean()


def test_geometric_mesh_validation():
    with pytest.raises(ValidationError):
        geometric_mesh(1, 4.0)
    with pytest.raises(ValidationError):
        geometric_mesh(100, -1.0)
    with pytest.raises(ValidationError):
        geometric_mesh(100, 8.0, shuffle_fraction=1.5)


# ---------------------------------------------------------------- atoms
def test_fcc_lattice_counts():
    assert fcc_lattice(2, jitter=0).shape == (32, 3)
    assert fcc_lattice(5).shape == (500, 3)
    with pytest.raises(ValidationError):
        fcc_lattice(0)


def test_fcc_lattice_jitter_deterministic():
    np.testing.assert_array_equal(fcc_lattice(3, seed=7), fcc_lattice(3, seed=7))
    assert not np.array_equal(fcc_lattice(3, seed=7), fcc_lattice(3, seed=8))


def test_neighbor_edges_respect_cutoff():
    pos = fcc_lattice(4, jitter=0.0)
    edges = build_neighbor_edges(pos, 1.0)
    d = np.linalg.norm(pos[edges[:, 0]] - pos[edges[:, 1]], axis=1)
    assert (d <= 1.0 + 1e-9).all()
    assert (edges[:, 0] < edges[:, 1]).all()
    with pytest.raises(ValidationError):
        build_neighbor_edges(pos, -1)
    with pytest.raises(ValidationError):
        build_neighbor_edges(pos[:2] * 100, 0.01)  # no neighbors


# ---------------------------------------------------------------- neighbour search
def _canonical(pairs: np.ndarray, n: int) -> bool:
    """int64 rows with u < v, in lexicographic order, none repeated."""
    code = pairs[:, 0] * n + pairs[:, 1]
    return (
        pairs.dtype == np.int64
        and pairs.ndim == 2
        and pairs.shape[1] == 2
        and bool((pairs[:, 0] < pairs[:, 1]).all())
        and bool((np.diff(code) > 0).all())
    )


def _oracle(positions: np.ndarray, cutoff: float) -> np.ndarray:
    """cKDTree's pair set in canonical order (scipy is test-only: the oracle)."""
    spatial = pytest.importorskip("scipy.spatial")
    pairs = spatial.cKDTree(positions).query_pairs(cutoff, output_type="ndarray")
    pairs = np.sort(pairs.astype(np.int64), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def test_neighbor_pairs_rows_are_canonical_and_complete():
    pos = np.random.default_rng(3).random((400, 3))
    pairs = neighbor_pairs(pos, 0.15)
    assert _canonical(pairs, len(pos))
    # every pair the plain O(n^2) loop finds, in np.nonzero's row-major order
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    u, v = np.nonzero(np.triu(d2 <= 0.15 * 0.15, k=1))
    np.testing.assert_array_equal(pairs, np.stack([u, v], axis=1))


def test_neighbor_pairs_degenerate_inputs():
    assert neighbor_pairs(np.zeros((1, 3)), 1.0).shape == (0, 2)
    assert neighbor_pairs(np.zeros((0, 3)), 1.0).shape == (0, 2)
    np.testing.assert_array_equal(neighbor_pairs(np.zeros((3, 3)), 0.5), [[0, 1], [0, 2], [1, 2]])
    for bad in (np.zeros((4, 2)), np.zeros(6), np.zeros((2, 3, 1))):
        with pytest.raises(ValidationError):
            neighbor_pairs(bad, 1.0)
    with pytest.raises(ValidationError):
        neighbor_pairs(np.zeros((4, 3)), 0.0)


def test_neighbor_pairs_cell_grid_is_capped():
    n = 1000
    pos = np.random.default_rng(0).random((n, 3))
    # uncapped, a 1e-6 cutoff over the unit box would ask for 1e18 cells
    assert (_grid_shape(np.ptp(pos, axis=0), 1e-6, n) + 2).prod() < 10 * n  # + the border
    assert neighbor_pairs(pos, 1e-6).shape == (0, 2)
    # a zero-extent axis is one cell
    assert _grid_shape(np.array([1.0, 0.0, 1.0]), 0.1, n)[1] == 1


#: Coordinates on a 1/8 grid and dyadic cutoffs: every squared distance and
#: every squared cutoff is exact, so "within the cutoff" has one answer.
_CUTOFFS = (1 / 64, 1 / 8, 1 / 4, 3 / 8, 1.0, 2.0, 100.0)


@settings(max_examples=150, deadline=None)
@given(
    grid=st.integers(2, 400).flatmap(
        lambda n: hnp.arrays(np.int64, (n, 3), elements=st.integers(0, 63))
    ),
    cutoff=st.sampled_from(_CUTOFFS),
    shape=st.sampled_from(["cloud", "plane", "line", "twins", "point"]),
)
def test_neighbor_pairs_match_ckdtree_on_exact_inputs(grid, cutoff, shape):
    pos = grid / 8.0
    if shape == "plane":
        pos[:, 1] = 0.5  # all points share one coordinate
    elif shape == "line":
        pos[:, :2] = 0.25
    elif shape == "twins":
        pos[len(pos) // 2 :] = pos[: len(pos) - len(pos) // 2]  # duplicated points
    elif shape == "point":
        pos[:] = pos[0]
    pairs = neighbor_pairs(pos, cutoff)
    assert _canonical(pairs, len(pos))
    np.testing.assert_array_equal(pairs, _oracle(pos, cutoff))


def test_neighbor_pairs_keep_ties_at_the_cutoff():
    pos = fcc_lattice(4, jitter=0.0)  # distances are dyadic: 1.0 is hit exactly
    pairs = neighbor_pairs(pos, 1.0)
    d2 = ((pos[pairs[:, 0]] - pos[pairs[:, 1]]) ** 2).sum(axis=1)
    assert (d2 == 1.0).any() and (d2 <= 1.0).all()
    np.testing.assert_array_equal(pairs, _oracle(pos, 1.0))


@pytest.mark.parametrize("n_nodes", [4000, 6500])
def test_moldyn_benchmark_meshes_match_ckdtree(n_nodes):
    positions, edges = geometric_mesh(n_nodes, 26.0, seed=0, shuffle_fraction=0.10)
    radius = (26.0 / (n_nodes * (4.0 / 3.0) * np.pi)) ** (1.0 / 3.0)
    assert _canonical(edges, n_nodes)
    np.testing.assert_array_equal(edges, _oracle(positions, radius))


@pytest.mark.parametrize("cells", [8, 10])
def test_minimd_benchmark_neighbor_lists_match_ckdtree(cells):
    positions = fcc_lattice(cells, jitter=0.03, seed=0)
    edges = build_neighbor_edges(positions, 1.3)
    assert _canonical(edges, len(positions))
    np.testing.assert_array_equal(edges, _oracle(positions, 1.3))


def test_edge_list_validation_errors_survive_the_new_search():
    with pytest.raises(ValidationError, match="edgeless"):
        geometric_mesh(50, 1e-9)
    pos = fcc_lattice(2, jitter=0.0)
    with pytest.raises(ValidationError, match="no neighbors within cutoff"):
        build_neighbor_edges(pos * 100, 0.01)
    with pytest.raises(ValidationError, match="cutoff must be > 0"):
        build_neighbor_edges(pos, 0.0)


# ---------------------------------------------------------------- grids
def test_heat3d_initial_hot_box():
    grid = heat3d_initial((16, 16, 16), seed=0)
    assert grid.shape == (16, 16, 16)
    assert grid.max() > 99.0
    assert grid[0, 0, 0] < 1.0  # corners are cold
    with pytest.raises(ValidationError):
        heat3d_initial((2, 16, 16))


def test_synthetic_image_properties():
    img = synthetic_image((64, 48), seed=1)
    assert img.shape == (64, 48) and img.dtype == np.float32
    assert 0.0 <= img.min() and img.max() <= 2.0
    assert img.std() > 0.05  # has real structure
    np.testing.assert_array_equal(img, synthetic_image((64, 48), seed=1))
    with pytest.raises(ValidationError):
        synthetic_image((4, 64))


# ---------------------------------------------------------------- pinned inputs
# ``dataset_pins.json`` was generated at the commit *before* any generator was
# rewritten to allocate less (ISSUE 22): the SHA-256 (dtype + shape + bytes)
# of every memoized generator's arrays at the e2e benchmark's sizes and one
# odd one each, two seeds each.  A generator may change how it builds its
# output, never the output.  Regenerate only for an intended change of the
# inputs themselves: ``{key: pin_entry(key) for key in PIN_CASES}``.

PIN_SEEDS = (0, 7)
PINS = json.loads(pathlib.Path(__file__).with_name("dataset_pins.json").read_text())


def _pin_cases() -> dict:
    from repro.apps.extra.jacobi2d import Jacobi2DConfig, generate_rhs
    from repro.apps.registry import APPS

    jacobi_quick = APPS["jacobi2d"].quick_kwargs
    cases: dict = {}
    for seed in PIN_SEEDS:
        for shape in ((672, 672), (768, 768), (96, 200)):
            cases[f"synthetic_image{shape}|seed={seed}"] = partial(synthetic_image, shape, seed=seed)
        for shape in ((64, 64, 64), (12, 12, 12)):
            cases[f"heat3d_initial{shape}|seed={seed}"] = partial(heat3d_initial, shape, seed=seed)
        for n, k in ((75_000, 40), (3000, 8), (8000, 40)):
            cases[f"clustered_points({n}, {k}, 3)|seed={seed}"] = partial(
                clustered_points, n, k, 3, seed=seed
            )
        for n_nodes in (6500, 20_000):  # moldyn's call: degree 26, 10 % relocated
            cases[f"geometric_mesh({n_nodes}, 26.0, shuffle=0.1)|seed={seed}"] = partial(
                geometric_mesh, n_nodes, 26.0, seed=seed, shuffle_fraction=0.10
            )
        for cells in (10, 14):  # minimd's calls: jitter 0.03, cutoff 1.3
            lattice = partial(fcc_lattice, cells, jitter=0.03, seed=seed)
            cases[f"fcc_lattice({cells}, jitter=0.03)|seed={seed}"] = lattice
            cases[f"build_neighbor_edges(fcc_lattice({cells}), 1.3)|seed={seed}"] = (
                lambda lattice=lattice: build_neighbor_edges(lattice(), 1.3)
            )
        cases[f"jacobi2d.generate_rhs(quick)|seed={seed}"] = partial(
            generate_rhs, Jacobi2DConfig(**jacobi_quick, seed=seed)
        )
    return cases


PIN_CASES = _pin_cases()


def pin_entry(key: str) -> list[str]:
    """One digest per array the generator returns."""
    value = PIN_CASES[key]()
    digests = []
    for array in value if isinstance(value, tuple) else (value,):
        h = hashlib.sha256()
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(np.ascontiguousarray(array).tobytes())
        digests.append(h.hexdigest())
    return digests


def test_every_pinned_input_has_a_case():
    assert sorted(PINS) == sorted(PIN_CASES)


@pytest.mark.parametrize("key", sorted(PIN_CASES))
def test_generated_inputs_are_pinned(key):
    clear_points_cache()  # a real generation, not an entry an earlier test left
    try:
        assert pin_entry(key) == PINS[key]
    finally:
        clear_points_cache()
