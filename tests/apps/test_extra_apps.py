"""The extra application: Jacobi2D, the fused stencil+reduce loop to convergence."""

import numpy as np
import pytest

from repro.apps.extra import jacobi2d
from repro.cluster.presets import ohio_cluster
from repro.sim.engine import spmd_run

J2D_CFG = jacobi2d.Jacobi2DConfig(shape=(24, 24), tol=1e-3, max_iters=120)


def _jacobi2d(nodes, mix, time_block):
    return spmd_run(
        jacobi2d.rank_program,
        ohio_cluster(nodes),
        args=(J2D_CFG, mix),
        kwargs={"time_block": time_block},
    ).values[0]


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_jacobi2d_matches_sequential(nodes):
    """Same iteration count and the same converged grid — the fused
    residual must drive the same stopping decision the plain
    step-then-norm loop makes."""
    ref_grid, ref_iters, ref_residuals = jacobi2d.sequential_reference(J2D_CFG)
    for time_block in (1, 2):
        v = _jacobi2d(nodes, "cpu", time_block)
        assert v["converged"]
        assert v["iterations"] == ref_iters
        np.testing.assert_array_equal(v["grid"], ref_grid)
        if nodes == 1:
            assert v["residuals"] == ref_residuals
        else:
            # The combine sums the ranks' partial norms in rank order, not
            # the reference's element order: equal to roundoff only.
            np.testing.assert_allclose(v["residuals"], ref_residuals, rtol=1e-12)


def test_jacobi2d_converges_before_cap():
    res = spmd_run(jacobi2d.rank_program, ohio_cluster(1), args=(J2D_CFG, "cpu"))
    v = res.values[0]
    assert v["converged"]
    assert v["iterations"] < J2D_CFG.max_iters
    # Jacobi residuals decay monotonically for this smooth problem.
    assert v["residuals"][-1] <= J2D_CFG.tol < v["residuals"][0]


def test_jacobi2d_heterogeneous_matches():
    ref_grid, ref_iters, _ = jacobi2d.sequential_reference(J2D_CFG)
    for nodes in (1, 2, 4):
        for time_block in (1, 2):
            v = _jacobi2d(nodes, "cpu+2gpu", time_block)
            assert v["iterations"] == ref_iters
            np.testing.assert_array_equal(v["grid"], ref_grid)


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
