"""Static coefficient fields (the SII-C limitation lifted)."""

from itertools import islice

import numpy as np
import pytest

from repro.core.api import StencilKernel, shifted
from repro.core.env import RuntimeEnv
from repro.core.stencil import StencilFields, reference_sweeps
from repro.device.work import WorkModel
from repro.util.errors import ConfigurationError
from tests.conftest import run_spmd

WORK = WorkModel(name="vc", flops_per_elem=14, bytes_per_elem=40)
RNG = np.random.default_rng(9)
GRID = RNG.random((24, 20))
KAPPA = 0.5 + 0.5 * RNG.random((24, 20))  # spatially varying diffusivity


def varcoef_apply(src, dst, region, ctx: StencilFields):
    """Variable-coefficient diffusion: du = div(kappa grad u), lumped."""
    kappa = ctx["kappa"]
    alpha = ctx.param
    flux = (
        kappa[region] * (shifted(src, region, (1, 0)) - src[region])
        + kappa[region] * (shifted(src, region, (-1, 0)) - src[region])
        + kappa[region] * (shifted(src, region, (0, 1)) - src[region])
        + kappa[region] * (shifted(src, region, (0, -1)) - src[region])
    )
    dst[region] = src[region] + alpha * flux


def neighbor_kappa_apply(src, dst, region, ctx: StencilFields):
    """Reads the *neighbour's* coefficient — exercises the field halo."""
    kappa = ctx["kappa"]
    dst[region] = shifted(src, region, (1, 0)) * shifted(kappa, region, (1, 0))


VARCOEF = StencilKernel(varcoef_apply, ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), WORK)
NEIGHBOR_KAPPA = StencilKernel(neighbor_kappa_apply, ((1, 0),), WORK)


def _seq(kernel, iters):
    sweeps = reference_sweeps(kernel, GRID, parameter=0.1, static_fields={"kappa": KAPPA})
    for _, new in islice(sweeps, iters):
        pass
    return new


def _program(kernel, iters=3, dims=None):
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(
            kernel,
            GRID.shape,
            dims=dims,
            parameter=0.1,
            static_fields={"kappa": KAPPA},
        )
        st.set_global_grid(GRID)
        st.run(iters)
        return st.gather_global()

    return prog


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_variable_coefficient_matches_sequential(nodes):
    res = run_spmd(_program(VARCOEF), nodes=nodes)
    np.testing.assert_allclose(res.values[0], _seq(VARCOEF, 3), rtol=1e-12)


@pytest.mark.parametrize("nodes", [2, 4])
def test_field_halos_are_correct(nodes):
    """Reading shifted(kappa) across a process boundary must see the
    neighbour's coefficients, which only works if the field was padded
    from the global array correctly."""
    res = run_spmd(_program(NEIGHBOR_KAPPA, iters=1), nodes=nodes)
    np.testing.assert_allclose(res.values[0], _seq(NEIGHBOR_KAPPA, 1), rtol=1e-12)


def test_fields_wrapper_accessors():
    ctx = StencilFields("p", {"a": np.ones(3)})
    assert ctx.param == "p"
    np.testing.assert_array_equal(ctx["a"], np.ones(3))
    np.testing.assert_array_equal(ctx.fields["a"], np.ones(3))


def test_field_shape_validated():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(
            VARCOEF,
            GRID.shape,
            static_fields={"kappa": np.zeros((5, 5))},
        )

    with pytest.raises(ConfigurationError, match="kappa"):
        run_spmd(prog, nodes=1)


def test_no_fields_keeps_plain_parameter():
    def plain(src, dst, region, param):
        assert param == 42  # not wrapped
        dst[region] = shifted(src, region, (1, 0))

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(StencilKernel(plain, ((1, 0),), WORK), GRID.shape, parameter=42)
        st.set_global_grid(GRID)
        st.run(1)
        return True

    assert run_spmd(prog, nodes=1).values[0]
