"""Stencil runtime: decomposition, halo exchange, and device splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.apps.extra.hotspot import hotspot_apply
from repro.apps.extra.jacobi2d import jacobi_apply
from repro.apps.extra.srad import make_update_kernel
from repro.apps.heat3d import heat_apply
from repro.apps.sobel import sobel_apply
from repro.core.api import StencilKernel, shifted
from repro.core.env import RuntimeEnv
from repro.core.stencil import SLAB_ELEMS, StencilFields
from repro.device.work import WorkModel
from repro.util.errors import ConfigurationError
from tests.conftest import run_spmd

WORK = WorkModel(name="st", flops_per_elem=8, bytes_per_elem=32)
GRID2D = np.random.default_rng(3).random((28, 24))
GRID3D = np.random.default_rng(4).random((16, 14, 12))


def _avg2d(src, dst, region, param):
    dst[region] = 0.25 * (
        shifted(src, region, (1, 0)) + shifted(src, region, (-1, 0))
        + shifted(src, region, (0, 1)) + shifted(src, region, (0, -1))
    )


def _avg3d(src, dst, region, param):
    dst[region] = (
        shifted(src, region, (1, 0, 0)) + shifted(src, region, (-1, 0, 0))
        + shifted(src, region, (0, 1, 0)) + shifted(src, region, (0, -1, 0))
        + shifted(src, region, (0, 0, 1)) + shifted(src, region, (0, 0, -1))
    ) / 6.0


def _wide(src, dst, region, param):
    """halo=2 kernel: second-neighbour average."""
    dst[region] = 0.5 * (shifted(src, region, (2, 0)) + shifted(src, region, (0, -2)))


def _seq(grid, apply, halo, iters):
    src = np.zeros(tuple(s + 2 * halo for s in grid.shape))
    region = tuple(slice(halo, halo + s) for s in grid.shape)
    src[region] = grid
    dst = np.zeros_like(src)
    for _ in range(iters):
        apply(src, dst, region, None)
        src, dst = dst, src
        mask = np.ones_like(src, dtype=bool)
        mask[region] = False
        src[mask] = 0
    return src[region]


def _program(grid, apply, halo=1, iters=3, mix="cpu+2gpu", dims=None, **st_opts):
    def prog(ctx):
        env = RuntimeEnv(ctx, mix)
        st = env.get_stencil(**st_opts)
        st.configure(StencilKernel(apply, halo, WORK), grid.shape, dims=dims)
        st.set_global_grid(grid)
        st.run(iters)
        return st.gather_global()

    return prog


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_2d_matches_sequential(nodes):
    res = run_spmd(_program(GRID2D, _avg2d), nodes=nodes, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, _avg2d, 1, 3), rtol=1e-12)


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_3d_matches_sequential(nodes):
    res = run_spmd(_program(GRID3D, _avg3d), nodes=nodes, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID3D, _avg3d, 1, 3), rtol=1e-12)


def test_wide_halo_kernel():
    res = run_spmd(_program(GRID2D, _wide, halo=2, iters=2), nodes=2, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, _wide, 2, 2), rtol=1e-12)


@pytest.mark.parametrize("mix", ["cpu", "1gpu", "cpu+1gpu", "cpu+2gpu"])
def test_device_mixes_are_numerically_invisible(mix):
    res = run_spmd(_program(GRID2D, _avg2d, mix=mix), nodes=2, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, _avg2d, 1, 3), rtol=1e-12)


def test_explicit_dims():
    res = run_spmd(_program(GRID2D, _avg2d, dims=(4, 1)), nodes=4, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, _avg2d, 1, 3), rtol=1e-12)


@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("tiling", [True, False])
def test_optimizations_never_change_numbers(overlap, tiling):
    res = run_spmd(
        _program(GRID2D, _avg2d, overlap=overlap, tiling=tiling), nodes=2, gpus_per_node=2
    )
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, _avg2d, 1, 3), rtol=1e-12)


def test_untiled_costs_more_time():
    tiled = run_spmd(_program(GRID2D, _avg2d, tiling=True), nodes=1, gpus_per_node=2)
    untiled = run_spmd(_program(GRID2D, _avg2d, tiling=False), nodes=1, gpus_per_node=2)
    assert untiled.makespan > tiled.makespan


def test_gather_global_only_at_root():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), GRID2D.shape)
        st.set_global_grid(GRID2D)
        st.step()
        return st.gather_global() is None

    res = run_spmd(prog, nodes=3)
    assert res.values == [False, True, True]


def test_local_interior_shape():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), GRID2D.shape, dims=(2, 1))
        st.set_global_grid(GRID2D)
        return st.local_interior().shape

    res = run_spmd(prog, nodes=2)
    assert res.values == [(14, 24), (14, 24)]


@pytest.mark.parametrize(
    "shape, dims, faces",
    [
        ((16, 14, 12), (2, 1, 1), [[(0, 1)], [(0, -1)]]),
        (
            (28, 24),
            (2, 2),
            [[(0, 1), (1, 1)], [(0, 1), (1, -1)], [(0, -1), (1, 1)], [(0, -1), (1, -1)]],
        ),
        ((28, 24), (1, 1), [[]]),
    ],
)
def test_pack_buffers_only_for_faces_with_a_neighbour(shape, dims, faces):
    """A face on a global border never sends, so it keeps no face index;
    no face keeps a pack buffer (each send packs a fresh one that lives as
    long as its message)."""
    apply = _avg2d if len(shape) == 2 else _avg3d

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(StencilKernel(apply, 1, WORK), shape, dims=dims)
        return sorted(st._faces)

    res = run_spmd(prog, nodes=len(faces))
    assert res.values == faces


def test_model_shape_scales_time_not_results():
    def prog(ctx, model):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), GRID2D.shape, model_shape=model)
        st.set_global_grid(GRID2D)
        st.run(2)
        return st.gather_global()

    small = run_spmd(prog, nodes=1, kwargs={"model": None})
    big = run_spmd(prog, nodes=1, kwargs={"model": (280, 240)})
    np.testing.assert_allclose(small.values[0], big.values[0])
    assert big.makespan > 20 * small.makespan


def test_too_many_processes_rejected():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), (4, 4), dims=(4, 1))

    with pytest.raises(ConfigurationError, match="halo"):
        run_spmd(prog, nodes=4)


def test_grid_shape_mismatch():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), (10, 10))
        st.set_global_grid(np.zeros((9, 10)))

    with pytest.raises(ConfigurationError, match="shape"):
        run_spmd(prog, nodes=1)


def test_unconfigured_errors():
    def prog(ctx):
        RuntimeEnv(ctx, "cpu").get_stencil().step()

    with pytest.raises(ConfigurationError, match="configure"):
        run_spmd(prog, nodes=1)

    def bad_iters(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), GRID2D.shape)
        st.set_global_grid(GRID2D)
        st.run(0)

    with pytest.raises(ConfigurationError, match="iterations"):
        run_spmd(bad_iters, nodes=1)


def test_dead_tile_knobs_are_gone():
    # cpu_tile / gpu_tile were stored and never read.
    from repro.core.stencil import StencilRuntime

    for knob in ("cpu_tile", "gpu_tile"):
        with pytest.raises(TypeError, match=knob):
            StencilRuntime(None, **{knob: 16})


def test_halo_values_come_from_neighbors_not_local_data():
    """A rank computing with stale halos would give wrong borders; compare a
    column that crosses the process boundary against the reference."""
    res = run_spmd(_program(GRID2D, _avg2d, dims=(2, 1), iters=4), nodes=2, gpus_per_node=2)
    ref = _seq(GRID2D, _avg2d, 1, 4)
    boundary_rows = slice(12, 16)  # spans the split at row 14
    np.testing.assert_allclose(res.values[0][boundary_rows], ref[boundary_rows], rtol=1e-12)


def test_set_global_grid_dtype_guard():
    """Kind-incompatible grids must fail loudly, not silently truncate."""

    def int_into_float(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), (10, 10))
        st.set_global_grid(np.arange(100).reshape(10, 10))  # int -> float: fine
        return st.local_interior().dtype

    assert run_spmd(int_into_float, nodes=1).values[0] == np.dtype(np.float64)

    def float_into_int(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        kernel = StencilKernel(_avg2d, 1, WORK, dtype=np.dtype(np.int64))
        st.configure(kernel, (10, 10))
        st.set_global_grid(np.random.default_rng(0).random((10, 10)))

    with pytest.raises(ConfigurationError, match="dtype"):
        run_spmd(float_into_int, nodes=1)


def test_snapshot_state_includes_partitioner_profile():
    """A restored runtime must resume with the adaptive split it had, not
    re-profile from an even split (the crash-restart divergence bug)."""

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        st = env.get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), GRID2D.shape)
        st.set_global_grid(GRID2D)
        st.run(2)  # step 1 profiles the devices
        assert st._partitioner.profiled
        state = st.snapshot_state()
        assert state["partitioner"]["speeds"] is not None

        # A freshly rebuilt runtime (the crash-restart path) starts
        # unprofiled; restoring the snapshot must bring the profile back.
        st2 = env.get_stencil()
        st2.configure(StencilKernel(_avg2d, 1, WORK), GRID2D.shape)
        assert not st2._partitioner.profiled
        st2.restore_state(state)
        assert st2._partitioner.profiled
        np.testing.assert_array_equal(
            st2._partitioner.split(GRID2D.shape[0]),
            st._partitioner.split(GRID2D.shape[0]),
        )
        return True

    assert run_spmd(prog, nodes=1).values == [True]


@pytest.mark.parametrize("nodes", [2, 4])
def test_multirank_result_bitwise_identical_to_sequential(nodes):
    # Stronger than allclose: halo strips travel as fresh send copies and
    # land via out= into strided slabs, and the interior is applied in
    # axis-0 slabs.  All of that must reproduce the sequential sweep bit
    # for bit, since every update is the same elementwise expression over
    # exactly the same neighbor bytes.
    res = run_spmd(_program(GRID2D, _avg2d), nodes=nodes, gpus_per_node=2)
    np.testing.assert_array_equal(res.values[0], _seq(GRID2D, _avg2d, 1, 3))


#: name -> (apply, halo, ndim, dtype, parameter from (padded shape, rng)):
#: every stencil kernel in the tree, with the static fields it reads.
TREE_KERNELS = {
    "heat3d": (heat_apply, 1, 3, np.float64, lambda shape, rng: 0.1),
    "sobel": (sobel_apply, 1, 2, np.float32, lambda shape, rng: None),
    "jacobi2d": (
        jacobi_apply, 1, 2, np.float64,
        lambda shape, rng: StencilFields(1e-3, {"rhs": rng.random(shape)}),
    ),
    "hotspot": (
        hotspot_apply, 1, 2, np.float64,
        lambda shape, rng: StencilFields(None, {"power": rng.random(shape)}),
    ),
    "srad": (make_update_kernel(0.5).apply, 2, 2, np.float64, lambda shape, rng: 0.3),
}


@pytest.mark.parametrize("name", sorted(TREE_KERNELS))
@settings(max_examples=25, deadline=None)
@given(data=hst.data())
def test_one_box_equals_its_slabs(name, data):
    # The runtime hands ``apply`` axis-0 slabs of each sweep region, so a
    # kernel must give the same bits over a box as over any partition of it.
    # Regions are drawn anywhere a ghost-extended ``time_block`` sweep may
    # reach: up to ``halo`` from the padded array's edge.
    apply, halo, ndim, dtype, make_param = TREE_KERNELS[name]
    extent = hst.integers(2 * halo + 1, 12)
    shape = tuple(data.draw(hst.lists(extent, min_size=ndim, max_size=ndim)))
    region = []
    for n in shape:
        lo = data.draw(hst.integers(halo, n - halo - 1))
        region.append(slice(lo, data.draw(hst.integers(lo + 1, n - halo))))
    ys = region[0]
    cuts = data.draw(hst.sets(hst.integers(ys.start, ys.stop), max_size=4))
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    src = (rng.random(shape) + 0.1).astype(dtype)
    param = make_param(shape, rng)
    whole = rng.random(shape).astype(dtype)
    tiled = whole.copy()
    apply(src, whole, tuple(region), param)
    bounds = sorted({ys.start, ys.stop, *cuts})
    for a, b in zip(bounds, bounds[1:]):
        apply(src, tiled, (slice(a, b), *region[1:]), param)
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    np.testing.assert_array_equal(tiled.view(bits), whole.view(bits))


def test_sweep_regions_are_cut_into_bounded_axis0_slabs():
    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(StencilKernel(_avg2d, 1, WORK), (400, 300), time_block=2)
        return st.interior, st._sweep_regions(2)

    (ys, xs), (outer, inner) = run_spmd(prog, nodes=2).values[0]
    for slabs in (outer, inner):
        rows = [sl.stop - sl.start for sl, _ in slabs]
        assert [sl.start for sl, _ in slabs[1:]] == [sl.stop for sl, _ in slabs[:-1]]
        assert max(rows) * 300 <= SLAB_ELEMS and max(rows) - min(rows) <= 1
        assert all(cols == xs for _, cols in slabs)
    # Rank 0 of two: the outer sweep reaches one ghost row toward rank 1.
    assert (outer[0][0].start, outer[-1][0].stop) == (ys.start, ys.stop + 1)
    assert (inner[0][0].start, inner[-1][0].stop) == (ys.start, ys.stop)


def test_a_row_wider_than_a_slab_is_one_slab():
    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(StencilKernel(_avg3d, 1, WORK), (6, 200, 200))
        return st._sweep_regions(1)[0]

    wide = run_spmd(prog, nodes=1).values[0]
    # 200 x 200 > SLAB_ELEMS per row: one row per slab, never an empty slab.
    assert [(sl.start, sl.stop) for sl, *_ in wide] == [(i, i + 1) for i in range(1, 7)]
