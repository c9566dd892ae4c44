"""Every application's framework execution matches its NumPy oracle."""

import numpy as np
import pytest

from repro.apps import heat3d, kmeans, minimd, moldyn, sobel
from repro.cluster.presets import ohio_cluster
from repro.serve.spec import JobSpec, execute_job
from repro.util.errors import ValidationError

KCFG = kmeans.KmeansConfig(functional_points=12_000, iterations=2)
MCFG = moldyn.MoldynConfig(functional_nodes=2_500, functional_degree=10, simulated_steps=3)
ICFG = minimd.MiniMDConfig(functional_cells=6, simulated_steps=3)
SCFG = sobel.SobelConfig(functional_shape=(128, 128), simulated_steps=2)
HCFG = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=3)


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("mix", ["cpu", "cpu+2gpu"])
def test_kmeans_matches_reference(nodes, mix):
    run = kmeans.run(ohio_cluster(nodes), KCFG, mix=mix)
    np.testing.assert_allclose(run.result, kmeans.sequential_reference(KCFG), rtol=1e-9)


@pytest.mark.parametrize("nodes", [1, 3])
def test_moldyn_matches_reference(nodes):
    ref = moldyn.sequential_reference(MCFG)
    run = moldyn.run(ohio_cluster(nodes), MCFG, mix="cpu+2gpu")
    got = np.zeros_like(ref["nodes"])
    for v in run.result:
        lo, hi = v["range"]
        got[lo:hi] = v["nodes"]
    np.testing.assert_allclose(got, ref["nodes"], rtol=1e-9)
    assert run.result[0]["ke"] == pytest.approx(ref["ke"], rel=1e-9)
    np.testing.assert_allclose(run.result[0]["av"], ref["av"], atol=1e-12)


@pytest.mark.parametrize("nodes", [1, 2])
def test_minimd_matches_reference(nodes):
    ref = minimd.sequential_reference(ICFG)
    run = minimd.run(ohio_cluster(nodes), ICFG, mix="cpu+1gpu")
    got = np.zeros_like(ref["nodes"])
    for v in run.result:
        lo, hi = v["range"]
        got[lo:hi] = v["nodes"]
    np.testing.assert_allclose(got, ref["nodes"], rtol=1e-9)
    assert run.result[0]["ke"] == pytest.approx(ref["ke"], rel=1e-9)


def test_minimd_reneighboring_path():
    cfg = minimd.MiniMDConfig(functional_cells=5, simulated_steps=5, reneighbor_every=2)
    ref = minimd.sequential_reference(cfg)
    run = minimd.run(ohio_cluster(2), cfg, mix="cpu")
    got = np.zeros_like(ref["nodes"])
    for v in run.result:
        lo, hi = v["range"]
        got[lo:hi] = v["nodes"]
    np.testing.assert_allclose(got, ref["nodes"], rtol=1e-9)
    assert all(len(v["rebuilds"]) == 2 for v in run.result)


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_sobel_matches_reference(nodes):
    ref = sobel.sequential_reference(SCFG)
    for time_block in (1, 2):
        run = sobel.run(ohio_cluster(nodes), SCFG, mix="cpu+2gpu", time_block=time_block)
        np.testing.assert_array_equal(run.result, ref)


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_heat3d_matches_reference(nodes):
    ref = heat3d.sequential_reference(HCFG)
    for time_block in (1, 2):
        run = heat3d.run(ohio_cluster(nodes), HCFG, mix="cpu+2gpu", time_block=time_block)
        np.testing.assert_array_equal(run.result, ref)


def test_speedup_is_seq_over_makespan():
    run = kmeans.run(ohio_cluster(1), KCFG, mix="cpu")
    assert run.speedup == pytest.approx(run.seq_time / run.makespan)


def test_app_runs_deterministic():
    a = kmeans.run(ohio_cluster(2), KCFG, mix="cpu+2gpu")
    b = kmeans.run(ohio_cluster(2), KCFG, mix="cpu+2gpu")
    assert a.makespan == b.makespan
    np.testing.assert_array_equal(a.result, b.result)


def test_config_validation():
    with pytest.raises(Exception):
        kmeans.KmeansConfig(functional_points=10, n_points=5)
    with pytest.raises(Exception):
        heat3d.Heat3DConfig(simulated_steps=0)
    with pytest.raises(Exception):
        minimd.MiniMDConfig(functional_cells=1)
    with pytest.raises(Exception):
        sobel.SobelConfig(functional_shape=(10, 10), shape=(5, 5))
    with pytest.raises(Exception):
        moldyn.MoldynConfig(functional_nodes=10, n_nodes=5)


@pytest.mark.parametrize("chunk", [0, -1])
def test_kmeans_refuses_a_chunk_below_one(chunk):
    """Refused at the config, or 0 would run the default split under a content
    hash of its own."""
    with pytest.raises(ValidationError, match="chunk_elems must be >= 1"):
        execute_job(JobSpec(app="kmeans", nodes=2, params={"chunk_elems": chunk}))
