"""Hand-written baselines: independent correctness and comparison sanity."""

import os
import subprocess
import sys
from pathlib import Path

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
from repro.apps.registry import APPS
from repro.cluster.presets import ohio_cluster
from repro.metrics import figures
from repro.serve import JobServer, JobSpec, ServeClient, ServeError, execute_job
from repro.serve.scheduler import AdmissionError
from repro.serve.spec import _result_digest
from repro.util.errors import ValidationError

KCFG = kmeans.KmeansConfig(functional_points=12_000, iterations=2)
ICFG = minimd.MiniMDConfig(functional_cells=6, simulated_steps=3)
SCFG = sobel.SobelConfig(functional_shape=(96, 96), simulated_steps=2)
HCFG = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=2)


def test_mpi_kmeans_matches_reference():
    run = mpi_kmeans.run(ohio_cluster(2), KCFG)
    np.testing.assert_array_equal(run.result, kmeans.sequential_reference(KCFG))


def test_mpi_heat3d_matches_reference():
    run = mpi_heat3d.run(ohio_cluster(2), HCFG)
    got = mpi_heat3d.assemble(run.result, HCFG.functional_shape)
    np.testing.assert_array_equal(got, heat3d.sequential_reference(HCFG))


def test_mpi_sobel_matches_reference():
    run = mpi_sobel.run(ohio_cluster(2), SCFG)
    got = mpi_sobel.assemble(run.result, SCFG.functional_shape)
    np.testing.assert_array_equal(got, sobel.sequential_reference(SCFG))


def test_mpi_minimd_matches_reference():
    run = mpi_minimd.run(ohio_cluster(3), ICFG)
    ref = minimd.sequential_reference(ICFG)
    got = np.zeros_like(ref["nodes"])
    for v in run.result:
        lo, hi = v["range"]
        got[lo:hi] = v["nodes"]
    np.testing.assert_array_equal(got, ref["nodes"])


def test_cuda_kmeans_matches_framework_result():
    cfg = kmeans.KmeansConfig(n_points=10_000_000, functional_points=12_000)
    fw = kmeans.run(ohio_cluster(1), cfg, mix="1gpu")
    cu = cuda_kmeans.run(ohio_cluster(1), cfg)
    np.testing.assert_array_equal(fw.result, cu.result)
    # Fig. 8: the framework is modestly slower than hand-tuned CUDA.
    assert 1.0 <= fw.makespan / cu.makespan < 1.25


def test_cuda_sobel_matches_framework_result():
    cfg = sobel.SobelConfig(shape=(8192, 8192), functional_shape=(96, 96), simulated_steps=2)
    fw = sobel.run(ohio_cluster(1), cfg, mix="1gpu")
    cu = cuda_sobel.run(ohio_cluster(1), cfg)
    np.testing.assert_array_equal(fw.result, cu.result)
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


# ------------------------------------------------------- registered baselines
#: Each baseline's registry row: (name, module, nodes and mix it runs here).
REGISTERED = [
    ("kmeans-mpi", mpi_kmeans, 2, "cpu"),
    ("minimd-mpi", mpi_minimd, 2, "cpu"),
    ("sobel-mpi", mpi_sobel, 2, "cpu"),
    ("heat3d-mpi", mpi_heat3d, 2, "cpu"),
    ("kmeans-cuda", cuda_kmeans, 1, "1gpu"),
    ("sobel-cuda", cuda_sobel, 1, "1gpu"),
]


@pytest.mark.parametrize("name,module,nodes,mix", REGISTERED, ids=[r[0] for r in REGISTERED])
def test_registered_baseline_runs_as_its_direct_call(name, module, nodes, mix):
    """A JobSpec runs a baseline through execute_job exactly as the module call does."""
    served = execute_job(JobSpec(app=name, nodes=nodes, mix=mix))
    direct = module.run(ohio_cluster(nodes), APPS[name].quick_config())
    assert repr(served["makespan"]) == repr(direct.makespan)
    assert served["result_digest"] == _result_digest(direct.result)
    assert served["app"] == direct.app == name


def test_profile_of_sobel_cuda_reports_its_pinned_makespan():
    """``repro profile sobel-cuda``'s makespan is the rank clock's end, which
    only the baseline's closing ``advance_to`` sets: its app makespan is
    extrapolated from the step times and never reads the clock."""
    payload = execute_job(JobSpec(app="sobel-cuda", nodes=1, mix="1gpu", trace=True))
    assert repr(payload["report"]["makespan"]) == "0.7247641373464717"


@pytest.mark.parametrize("name,module,nodes,mix", REGISTERED, ids=[r[0] for r in REGISTERED])
def test_registered_baseline_refuses_what_it_does_not_run(name, module, nodes, mix):
    wrong = "1gpu" if mix == "cpu" else "cpu"
    with pytest.raises(ValidationError, match="runs only mix"):
        JobSpec(app=name, nodes=nodes, mix=wrong)
    with pytest.raises(ValidationError, match="runs only mix"):
        module.run(ohio_cluster(nodes), APPS[name].quick_config(), wrong)
    if name.endswith("-cuda"):
        with pytest.raises(ValidationError, match="at most 1 node"):
            JobSpec(app=name, nodes=2, mix=mix)
        with pytest.raises(ValidationError, match="at most 1 node"):
            module.run(ohio_cluster(2), APPS[name].quick_config())


def test_a_baseline_job_costs_the_rank_threads_it_runs():
    assert JobSpec(app="kmeans-mpi", nodes=4, mix="cpu").ranks == 48  # 12 cores per node
    assert JobSpec(app="minimd-mpi", nodes=4, mix="cpu").ranks == 4  # one rank per node
    assert JobSpec(app="sobel-cuda", nodes=1, mix="1gpu").ranks == 1
    assert JobSpec(app="kmeans", nodes=4).ranks == 4


def test_a_server_refuses_a_baseline_wider_than_its_budget():
    with JobServer(port=0, executor=lambda spec: {}) as server:
        with pytest.raises(AdmissionError) as excinfo:
            server.scheduler.submit(JobSpec(app="kmeans-mpi", nodes=32, mix="cpu"))
        assert excinfo.value.reason == "over_budget"  # 384 ranks against 64
        with pytest.raises(ServeError) as refused:
            ServeClient(server.url).submit({"app": "kmeans-mpi", "nodes": 32, "mix": "cpu"})
        assert refused.value.status == 400 and "never be scheduled" in refused.value.message


def test_a_server_start_loads_no_baseline():
    """Listing the registry's names (as a server's start does) imports no baseline."""
    probe = (
        "import sys\n"
        "from repro.serve import JobServer\n"
        "with JobServer(port=0) as server:\n"
        "    pass\n"
        "print([m for m in sys.modules if m.startswith('repro.apps.baselines')])\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
