"""Stencil runtime: decomposition, halo exchange, and device splitting."""

import runpy
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.apps import heat3d, sobel
from repro.apps.extra import jacobi2d
from repro.core.api import StencilKernel, shifted
from repro.core.env import RuntimeEnv
from repro.core.stencil import SLAB_ELEMS, StencilFields, StencilRuntime, reference_sweeps
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
    """Radius-2 kernel: second-neighbour average."""
    dst[region] = 0.5 * (shifted(src, region, (2, 0)) + shifted(src, region, (0, -2)))


AVG2D = StencilKernel(_avg2d, ((1, 0), (-1, 0), (0, 1), (0, -1)), WORK)
AVG3D = StencilKernel(
    _avg3d, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)), WORK
)
WIDE = StencilKernel(_wide, ((2, 0), (0, -2)), WORK)


def _seq(grid, kernel, iters):
    for _, new in islice(reference_sweeps(kernel, grid), iters):
        pass
    return new


def _program(grid, kernel, iters=3, mix="cpu+2gpu", dims=None, **st_opts):
    def prog(ctx):
        env = RuntimeEnv(ctx, mix)
        st = env.get_stencil(**st_opts)
        st.configure(kernel, grid.shape, dims=dims)
        st.set_global_grid(grid)
        st.run(iters)
        return st.gather_global()

    return prog


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_2d_matches_sequential(nodes):
    res = run_spmd(_program(GRID2D, AVG2D), nodes=nodes, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, AVG2D, 3), rtol=1e-12)


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_3d_matches_sequential(nodes):
    res = run_spmd(_program(GRID3D, AVG3D), nodes=nodes, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID3D, AVG3D, 3), rtol=1e-12)


def test_wide_halo_kernel():
    res = run_spmd(_program(GRID2D, WIDE, iters=2), nodes=2, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, WIDE, 2), rtol=1e-12)


@pytest.mark.parametrize("mix", ["cpu", "1gpu", "cpu+1gpu", "cpu+2gpu"])
def test_device_mixes_are_numerically_invisible(mix):
    res = run_spmd(_program(GRID2D, AVG2D, mix=mix), nodes=2, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, AVG2D, 3), rtol=1e-12)


def test_explicit_dims():
    res = run_spmd(_program(GRID2D, AVG2D, dims=(4, 1)), nodes=4, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, AVG2D, 3), rtol=1e-12)


@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("tiling", [True, False])
def test_optimizations_never_change_numbers(overlap, tiling):
    res = run_spmd(
        _program(GRID2D, AVG2D, overlap=overlap, tiling=tiling), nodes=2, gpus_per_node=2
    )
    np.testing.assert_allclose(res.values[0], _seq(GRID2D, AVG2D, 3), rtol=1e-12)


def test_untiled_costs_more_time():
    tiled = run_spmd(_program(GRID2D, AVG2D, tiling=True), nodes=1, gpus_per_node=2)
    untiled = run_spmd(_program(GRID2D, AVG2D, tiling=False), nodes=1, gpus_per_node=2)
    assert untiled.makespan > tiled.makespan


def test_gather_global_only_at_root():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(AVG2D, GRID2D.shape)
        st.set_global_grid(GRID2D)
        st.run(1)
        return st.gather_global() is None

    res = run_spmd(prog, nodes=3)
    assert res.values == [False, True, True]


def test_local_interior_shape():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(AVG2D, GRID2D.shape, dims=(2, 1))
        st.set_global_grid(GRID2D)
        return st._src[st.interior].shape

    res = run_spmd(prog, nodes=2)
    assert res.values == [(14, 24), (14, 24)]


@pytest.mark.parametrize(
    "shape, dims, faces",
    [
        ((16, 14, 12), (2, 1, 1), [[[(0, 1)], [], []], [[(0, -1)], [], []]]),
        (
            (28, 24),
            (2, 2),
            [
                [[(0, 1)], [(1, 1)]],
                [[(0, 1)], [(1, -1)]],
                [[(0, -1)], [(1, 1)]],
                [[(0, -1)], [(1, -1)]],
            ],
        ),
        ((28, 24), (1, 1), [[[], []]]),
    ],
)
def test_pack_buffers_only_for_faces_with_a_neighbour(shape, dims, faces):
    """The exchange plan has one phase per axis holding the faces with a
    neighbour (a face on a global border never sends), and each face's
    strip and halo box span the padded extent of every other axis (the box
    rule).  No face keeps a pack buffer: each send packs a fresh one that
    lives as long as its message."""

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(AVG2D if len(shape) == 2 else AVG3D, shape, dims=dims)
        padded = st._src.shape
        phases = st._exchange.phases
        for axis, phase in enumerate(phases):
            box = padded[:axis] + (st._halo_depth,) + padded[axis + 1 :]
            assert all(st._src[x.send].shape == st._src[x.recv].shape == box for x in phase)
        # A face's side: whether its halo box lies below the interior.
        return [
            [(axis, -1 if x.recv[axis].start < st.interior[axis].start else 1) for x in phase]
            for axis, phase in enumerate(phases)
        ]

    res = run_spmd(prog, nodes=len(faces))
    assert res.values == faces


def test_model_shape_scales_time_not_results():
    def prog(ctx, model):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(AVG2D, GRID2D.shape, model_shape=model)
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
        st.configure(AVG2D, (4, 4), dims=(4, 1))

    with pytest.raises(ConfigurationError, match="halo"):
        run_spmd(prog, nodes=4)


def test_grid_shape_mismatch():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(AVG2D, (10, 10))
        st.set_global_grid(np.zeros((9, 10)))

    with pytest.raises(ConfigurationError, match="shape"):
        run_spmd(prog, nodes=1)


@pytest.mark.parametrize("kernel, dims", [(AVG3D, None), (AVG2D, (1,)), (AVG2D, (1, 1, 1))])
def test_offsets_and_dims_rank_must_match_the_grid(kernel, dims):
    def prog(ctx):
        RuntimeEnv(ctx, "cpu").get_stencil().configure(kernel, GRID2D.shape, dims=dims)

    with pytest.raises(ConfigurationError, match="grid rank 2.*disagree"):
        run_spmd(prog, nodes=1)


def test_unconfigured_errors():
    def prog(ctx):
        RuntimeEnv(ctx, "cpu").get_stencil().run(1)

    with pytest.raises(ConfigurationError, match="configure"):
        run_spmd(prog, nodes=1)

    def bad_iters(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(AVG2D, GRID2D.shape)
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
    res = run_spmd(_program(GRID2D, AVG2D, dims=(2, 1), iters=4), nodes=2, gpus_per_node=2)
    ref = _seq(GRID2D, AVG2D, 4)
    boundary_rows = slice(12, 16)  # spans the split at row 14
    np.testing.assert_allclose(res.values[0][boundary_rows], ref[boundary_rows], rtol=1e-12)


def test_set_global_grid_dtype_guard():
    """Kind-incompatible grids must fail loudly, not silently truncate."""

    def int_into_float(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(AVG2D, (10, 10))
        st.set_global_grid(np.arange(100).reshape(10, 10))  # int -> float: fine
        return st._src[st.interior].dtype

    assert run_spmd(int_into_float, nodes=1).values[0] == np.dtype(np.float64)

    def float_into_int(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        kernel = replace(AVG2D, dtype=np.dtype(np.int64))
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
        st.configure(AVG2D, GRID2D.shape)
        st.set_global_grid(GRID2D)
        st.run(2)  # step 1 profiles the devices
        assert st._partitioner.profiled
        state = st.snapshot_state()
        assert state["partitioner"]["speeds"] is not None

        # A freshly rebuilt runtime (the crash-restart path) starts
        # unprofiled; restoring the snapshot must bring the profile back.
        st2 = env.get_stencil()
        st2.configure(AVG2D, GRID2D.shape)
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
    res = run_spmd(_program(GRID2D, AVG2D), nodes=nodes, gpus_per_node=2)
    np.testing.assert_array_equal(res.values[0], _seq(GRID2D, AVG2D, 3))


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class _Configured(Exception):
    """Stops an example's run at ``configure``, carrying its kernel."""


def _example(script):
    """The ``StencilKernel`` an example's ``main`` configures, declaration
    and all: the run is stopped as it hands the kernel over."""

    def configure(self, kernel, *args, **kwargs):
        raise _Configured(kernel)

    main = runpy.run_path(str(EXAMPLES / script))["main"]
    with pytest.MonkeyPatch.context() as mp, pytest.raises(_Configured) as stop:
        mp.setattr(StencilRuntime, "configure", configure)
        run_spmd(main, nodes=1, gpus_per_node=2)
    return stop.value.args[0]


#: name -> (kernel, parameter from (padded shape, rng)): every stencil
#: kernel in the tree, with the static fields it reads.
TREE_KERNELS = {
    "heat3d": (heat3d.KERNEL, lambda shape, rng: 0.1),
    "sobel": (sobel.KERNEL, lambda shape, rng: None),
    "jacobi2d": (
        jacobi2d.make_kernel(),
        lambda shape, rng: StencilFields(1e-3, {"rhs": rng.random(shape)}),
    ),
    "examples/heat_diffusion": (_example("heat_diffusion.py"), lambda shape, rng: 0.1),
    "examples/quickstart": (_example("quickstart.py"), lambda shape, rng: None),
    "examples/sobel_edges": (_example("sobel_edges.py"), lambda shape, rng: None),
    "examples/variable_coefficient_heat": (
        _example("variable_coefficient_heat.py"),
        lambda shape, rng: StencilFields(0.2, {"kappa": rng.random(shape)}),
    ),
}


@pytest.mark.parametrize("name", sorted(TREE_KERNELS))
@settings(max_examples=25, deadline=None)
@given(data=hst.data())
def test_one_box_equals_its_slabs(name, data):
    # The runtime hands ``apply`` axis-0 slabs of each sweep region, so a
    # kernel must give the same bits over a box as over any partition of it.
    # Regions are drawn anywhere a ghost-extended ``time_block`` sweep may
    # reach: up to ``halo`` from the padded array's edge.
    kernel, make_param = TREE_KERNELS[name]
    halo, dtype = kernel.halo, kernel.dtype
    extent = hst.integers(2 * halo + 1, 12)
    ndim = len(kernel.offsets[0])
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
    kernel.apply(src, whole, tuple(region), param)
    bounds = sorted({ys.start, ys.stop, *cuts})
    for a, b in zip(bounds, bounds[1:]):
        kernel.apply(src, tiled, (slice(a, b), *region[1:]), param)
    bits = np.dtype(f"u{dtype.itemsize}")
    np.testing.assert_array_equal(tiled.view(bits), whole.view(bits))


@pytest.mark.parametrize("name", sorted(TREE_KERNELS))
def test_offsets_are_exactly_what_apply_reads(name):
    # ``offsets`` and ``apply`` must agree.  Over a one-cell region,
    # perturbing a cell of ``src`` or of a static field changes
    # ``dst[region]`` if and only if the cell sits at a declared offset,
    # and ``apply`` writes nothing outside ``region`` (so a zero border
    # stays zero).
    kernel, make_param = TREE_KERNELS[name]
    h, ndim = kernel.halo, len(kernel.offsets[0])
    rng = np.random.default_rng(7)
    shape = (2 * h + 1,) * ndim
    region = (slice(h, h + 1),) * ndim
    declared = {tuple(h + c for c in offset) for offset in kernel.offsets}
    outside = np.ones(shape, dtype=bool)
    outside[region] = False
    bits = np.dtype(f"u{kernel.dtype.itemsize}")
    blank = rng.random(shape).astype(kernel.dtype)

    def sweep(src, param):
        dst = blank.copy()
        kernel.apply(src, dst, region, param)
        np.testing.assert_array_equal(dst[outside].view(bits), blank[outside].view(bits))
        return dst[region].view(bits)

    def perturbed(a, cell):
        a = a.copy()
        a[cell] += 1.0
        return a

    src = (rng.random(shape) + 0.1).astype(kernel.dtype)
    param = make_param(shape, rng)
    fields = param.fields if isinstance(param, StencilFields) else {}
    base = sweep(src, param)
    for cell in np.ndindex(shape):
        variants = [(perturbed(src, cell), param)] + [
            (src, StencilFields(param.param, {**fields, k: perturbed(f, cell)}))
            for k, f in fields.items()
        ]
        read = any(not np.array_equal(sweep(*v), base) for v in variants)
        assert read == (cell in declared), (cell, "read" if read else "not read")


def test_sweep_regions_are_cut_into_bounded_axis0_slabs():
    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(AVG2D, (400, 300), time_block=2)
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
        st.configure(AVG3D, (6, 200, 200))
        return st._sweep_regions(1)[0]

    wide = run_spmd(prog, nodes=1).values[0]
    # 200 x 200 > SLAB_ELEMS per row: one row per slab, never an empty slab.
    assert [(sl.start, sl.stop) for sl, *_ in wide] == [(i, i + 1) for i in range(1, 7)]
