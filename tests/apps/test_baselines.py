"""Hand-written baselines: independent correctness and comparison sanity."""

import numpy as np
import pytest

from repro.apps import heat3d, kmeans, minimd, sobel
from repro.apps.baselines import (
    cuda_kmeans,
    cuda_sobel,
    mpi_heat3d,
    mpi_kmeans,
    mpi_minimd,
    mpi_sobel,
)
from repro.cluster.presets import ohio_cluster
from repro.metrics import figures

KCFG = kmeans.KmeansConfig(functional_points=12_000, iterations=2)
ICFG = minimd.MiniMDConfig(functional_cells=6, simulated_steps=3)
SCFG = sobel.SobelConfig(functional_shape=(96, 96), simulated_steps=2)
HCFG = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=2)


def test_mpi_kmeans_matches_reference():
    run = mpi_kmeans.run(ohio_cluster(2), KCFG)
    np.testing.assert_allclose(run.result, kmeans.sequential_reference(KCFG), rtol=1e-9)


def test_mpi_heat3d_matches_reference():
    run = mpi_heat3d.run(ohio_cluster(2), HCFG)
    got = mpi_heat3d.assemble(run.result, HCFG.functional_shape)
    np.testing.assert_allclose(got, heat3d.sequential_reference(HCFG), rtol=1e-12)


def test_mpi_sobel_matches_reference():
    run = mpi_sobel.run(ohio_cluster(2), SCFG)
    got = mpi_sobel.assemble(run.result, SCFG.functional_shape)
    np.testing.assert_allclose(got, sobel.sequential_reference(SCFG), rtol=1e-5)


def test_mpi_minimd_matches_reference():
    run = mpi_minimd.run(ohio_cluster(3), ICFG)
    ref = minimd.sequential_reference(ICFG)
    got = np.zeros_like(ref["nodes"])
    for v in run.result:
        lo, hi = v["range"]
        got[lo:hi] = v["nodes"]
    np.testing.assert_allclose(got, ref["nodes"], rtol=1e-9)


def test_cuda_kmeans_matches_framework_result():
    cfg = kmeans.KmeansConfig(n_points=10_000_000, functional_points=12_000)
    fw = kmeans.run(ohio_cluster(1), cfg, mix="1gpu")
    cu = cuda_kmeans.run(ohio_cluster(1), cfg)
    np.testing.assert_allclose(fw.result, cu.result, rtol=1e-9)
    # Fig. 8: the framework is modestly slower than hand-tuned CUDA.
    assert 1.0 <= fw.makespan / cu.makespan < 1.25


def test_cuda_sobel_matches_framework_result():
    cfg = sobel.SobelConfig(shape=(8192, 8192), functional_shape=(96, 96), simulated_steps=2)
    fw = sobel.run(ohio_cluster(1), cfg, mix="1gpu")
    cu = cuda_sobel.run(ohio_cluster(1), cfg)
    np.testing.assert_allclose(fw.result, cu.result, rtol=1e-5)
    assert 1.05 <= fw.makespan / cu.makespan < 1.3


def test_mpi_uses_one_rank_per_core():
    run = mpi_kmeans.run(ohio_cluster(2), KCFG)
    assert run.mix == "mpi-12ppn"


def test_mpi_minimd_uses_one_rank_per_node():
    run = mpi_minimd.run(ohio_cluster(2), ICFG)
    assert run.mix == "mpi+openmp"


@pytest.mark.parametrize(
    "fw_mod,bl_mod,cfg,paper",
    [
        (kmeans, mpi_kmeans, KCFG, figures.paper("fw-mpi.kmeans")),
        (heat3d, mpi_heat3d, HCFG, figures.paper("fw-mpi.heat3d")),
        (minimd, mpi_minimd, ICFG, figures.paper("fw-mpi.minimd")),
    ],
)
def test_framework_not_slower_than_baseline_for_winners(fw_mod, bl_mod, cfg, paper):
    """For the apps the paper reports framework wins, ours should at least
    not lose badly (within 15% of parity)."""
    fw = fw_mod.run(ohio_cluster(2), cfg, mix="cpu")
    bl = bl_mod.run(ohio_cluster(2), cfg)
    assert bl.makespan / fw.makespan > 0.85


def test_sobel_framework_slower_than_mpi_as_paper_reports():
    fw = sobel.run(ohio_cluster(2), SCFG, mix="cpu")
    bl = mpi_sobel.run(ohio_cluster(2), SCFG)
    ratio = bl.makespan / fw.makespan
    assert 0.80 < ratio < 1.0  # paper: ledger row fw-mpi.sobel
