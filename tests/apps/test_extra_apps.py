"""Extra applications: PageRank, SSSP, SRAD (Rodinia-coverage claim)."""

import sys

import numpy as np
import pytest

from repro.apps.extra import pagerank, srad, sssp
from repro.cluster.presets import ohio_cluster
from repro.sim.engine import spmd_run
from repro.util.errors import ConfigurationError

PR_CFG = pagerank.PageRankConfig(n_nodes=250, n_edges=1800, max_iterations=80)
SSSP_CFG = sssp.SsspConfig(n_nodes=220, degree=9.0)
SRAD_CFG = srad.SradConfig(shape=(48, 48), iterations=3)


def _collect(values, n, key):
    out = np.zeros(n)
    for v in values:
        lo, hi = v["range"]
        out[lo:hi] = v[key]
    return out


# ------------------------------------------------------------------ pagerank
@pytest.mark.parametrize("nodes", [1, 3])
def test_pagerank_matches_numpy_reference(nodes):
    res = spmd_run(pagerank.rank_program, ohio_cluster(nodes), args=(PR_CFG, "cpu"))
    got = _collect(res.values, PR_CFG.n_nodes, "ranks")
    ref = pagerank.sequential_reference(PR_CFG)
    np.testing.assert_allclose(got, ref, rtol=1e-8)


def test_pagerank_matches_networkx():
    import networkx as nx

    edges = pagerank.generate_graph(PR_CFG)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(PR_CFG.n_nodes))
    graph.add_edges_from(map(tuple, edges))
    nx_rank = nx.pagerank(graph, alpha=pagerank.DAMPING, tol=1e-12, max_iter=200)
    res = spmd_run(pagerank.rank_program, ohio_cluster(2), args=(PR_CFG, "cpu"))
    got = _collect(res.values, PR_CFG.n_nodes, "ranks")
    ref = np.array([nx_rank[i] for i in range(PR_CFG.n_nodes)])
    np.testing.assert_allclose(got, ref, atol=1e-6)


def test_pagerank_ranks_form_distribution():
    res = spmd_run(pagerank.rank_program, ohio_cluster(2), args=(PR_CFG, "cpu"))
    got = _collect(res.values, PR_CFG.n_nodes, "ranks")
    assert got.sum() == pytest.approx(1.0, rel=1e-6)
    assert (got > 0).all()


def test_pagerank_converges_before_cap():
    res = spmd_run(pagerank.rank_program, ohio_cluster(1), args=(PR_CFG, "cpu"))
    assert res.values[0]["iterations"] < PR_CFG.max_iterations


# ------------------------------------------------------------------ sssp
@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_sssp_matches_dijkstra(nodes):
    res = spmd_run(sssp.rank_program, ohio_cluster(nodes), args=(SSSP_CFG, "cpu"))
    got = _collect(res.values, SSSP_CFG.n_nodes, "dist")
    ref = sssp.sequential_reference(SSSP_CFG)
    finite = np.isfinite(ref)
    np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-9)
    # Bellman-Ford leaves unreachable nodes at +inf; zero-fill from _collect
    # means we compare reachability through the reference mask only.
    assert np.isinf(_collect_inf(res.values, SSSP_CFG.n_nodes)[~finite]).all()


def test_sssp_reference_names_the_test_extra_when_networkx_is_missing(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)  # makes the import fail
    with pytest.raises(ConfigurationError, match=r"\.\[test\]"):
        sssp.sequential_reference(SSSP_CFG)


def _collect_inf(values, n):
    out = np.full(n, np.nan)
    for v in values:
        lo, hi = v["range"]
        out[lo:hi] = v["dist"]
    return out


def test_sssp_source_distance_zero():
    res = spmd_run(sssp.rank_program, ohio_cluster(2), args=(SSSP_CFG, "cpu"))
    dist = _collect_inf(res.values, SSSP_CFG.n_nodes)
    assert dist[SSSP_CFG.source] == 0.0


def test_sssp_terminates_early():
    res = spmd_run(sssp.rank_program, ohio_cluster(1), args=(SSSP_CFG, "cpu"))
    assert res.values[0]["rounds"] < SSSP_CFG.n_nodes - 1


def test_sssp_uses_min_reduction_heterogeneous():
    res = spmd_run(sssp.rank_program, ohio_cluster(2), args=(SSSP_CFG, "cpu+2gpu"))
    got = _collect_inf(res.values, SSSP_CFG.n_nodes)
    ref = sssp.sequential_reference(SSSP_CFG)
    finite = np.isfinite(ref)
    np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-9)


# ------------------------------------------------------------------ srad
@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_srad_matches_sequential(nodes):
    res = spmd_run(srad.rank_program, ohio_cluster(nodes), args=(SRAD_CFG, "cpu"))
    ref = srad.sequential_reference(SRAD_CFG)
    np.testing.assert_allclose(res.values[0], ref, rtol=1e-7)


def test_srad_smooths_speckle():
    res = spmd_run(srad.rank_program, ohio_cluster(1), args=(SRAD_CFG, "cpu"))
    out = res.values[0]
    from repro.data.grids import synthetic_image

    original = synthetic_image(SRAD_CFG.shape, seed=SRAD_CFG.seed).astype(np.float64) + 0.05
    inner = (slice(4, -4), slice(4, -4))
    # Diffusion must reduce local variation away from the zero border.
    assert np.abs(np.diff(out[inner], axis=1)).mean() < np.abs(
        np.diff(original[inner], axis=1)
    ).mean()


def test_srad_config_validation():
    with pytest.raises(Exception):
        srad.SradConfig(shape=(4, 64))
    with pytest.raises(Exception):
        srad.SradConfig(lam=0)
    with pytest.raises(Exception):
        sssp.SsspConfig(n_nodes=10, source=10)
    with pytest.raises(Exception):
        pagerank.PageRankConfig(n_nodes=1)


# ------------------------------------------------------------------ hotspot
from repro.apps.extra import hotspot

HS_CFG = hotspot.HotspotConfig(shape=(48, 48), iterations=10)


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_hotspot_matches_sequential(nodes):
    res = spmd_run(hotspot.rank_program, ohio_cluster(nodes), args=(HS_CFG, "cpu"))
    ref = hotspot.sequential_reference(HS_CFG)
    np.testing.assert_allclose(res.values[0], ref, rtol=1e-12)


def test_hotspot_heats_up_under_power_blocks():
    res = spmd_run(hotspot.rank_program, ohio_cluster(1), args=(HS_CFG, "cpu"))
    temp = res.values[0]
    power = hotspot.generate_power_map(HS_CFG)
    inner = (slice(2, -2), slice(2, -2))
    hot = temp[inner][power[inner] > 1.0]
    cool = temp[inner][power[inner] <= 0.05]
    assert hot.mean() > cool.mean() + 0.05
    assert (temp[inner] >= hotspot.T_AMBIENT - 45).all()


def test_hotspot_heterogeneous_matches():
    res = spmd_run(hotspot.rank_program, ohio_cluster(2), args=(HS_CFG, "cpu+2gpu"))
    ref = hotspot.sequential_reference(HS_CFG)
    np.testing.assert_allclose(res.values[0], ref, rtol=1e-12)


def test_hotspot_config_validation():
    with pytest.raises(Exception):
        hotspot.HotspotConfig(shape=(8, 64))
    with pytest.raises(Exception):
        hotspot.HotspotConfig(iterations=0)


# ------------------------------------------------------------------ jacobi2d
from repro.apps.extra import jacobi2d

J2D_CFG = jacobi2d.Jacobi2DConfig(shape=(24, 24), tol=1e-3, max_iters=120)


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_jacobi2d_matches_sequential(nodes):
    """Same iteration count and (to roundoff) the same converged grid —
    the fused residual must drive the same stopping decision the plain
    step-then-norm loop makes."""
    res = spmd_run(jacobi2d.rank_program, ohio_cluster(nodes), args=(J2D_CFG, "cpu"))
    ref_grid, ref_iters, ref_residuals = jacobi2d.sequential_reference(J2D_CFG)
    v = res.values[0]
    assert v["converged"]
    assert v["iterations"] == ref_iters
    assert len(v["residuals"]) == ref_iters
    np.testing.assert_allclose(v["residuals"], ref_residuals, rtol=1e-7)
    np.testing.assert_allclose(v["grid"], ref_grid, rtol=1e-7)


def test_jacobi2d_converges_before_cap():
    res = spmd_run(jacobi2d.rank_program, ohio_cluster(1), args=(J2D_CFG, "cpu"))
    v = res.values[0]
    assert v["converged"]
    assert v["iterations"] < J2D_CFG.max_iters
    # Jacobi residuals decay monotonically for this smooth problem.
    assert v["residuals"][-1] <= J2D_CFG.tol < v["residuals"][0]


def test_jacobi2d_heterogeneous_matches():
    res = spmd_run(jacobi2d.rank_program, ohio_cluster(2), args=(J2D_CFG, "cpu+2gpu"))
    ref_grid, ref_iters, _ = jacobi2d.sequential_reference(J2D_CFG)
    assert res.values[0]["iterations"] == ref_iters
    np.testing.assert_allclose(res.values[0]["grid"], ref_grid, rtol=1e-7)


def test_jacobi2d_run_reports_actual_iterations():
    run = jacobi2d.run(ohio_cluster(2), J2D_CFG)
    assert run.app == "jacobi2d"
    assert run.makespan > 0
    assert run.seq_time > 0
    assert run.spmd.values[0]["converged"]


def test_jacobi2d_config_validation():
    with pytest.raises(Exception):
        jacobi2d.Jacobi2DConfig(shape=(4, 24))
    with pytest.raises(Exception):
        jacobi2d.Jacobi2DConfig(tol=0.0)
    with pytest.raises(Exception):
        jacobi2d.Jacobi2DConfig(max_iters=0)
