"""Per-neighbour halo message coalescing (single payload per face)."""

import numpy as np
import pytest

from repro.comm.coalesce import HaloCoalescer
from repro.core.api import StencilKernel, shifted
from repro.core.env import RuntimeEnv
from repro.core.stencil import SLAB_ELEMS
from repro.device.work import WorkModel
from repro.util.errors import ConfigurationError
from tests.conftest import run_spmd

WORK = WorkModel(name="st", flops_per_elem=8, bytes_per_elem=32)
GRID = np.random.default_rng(7).random((24, 20))


# ------------------------------------------------------------------ unit
def test_single_strip_roundtrip():
    """The one-array fast path: strip lands straight in the output view."""

    def prog(ctx):
        co = HaloCoalescer(ctx.comm)
        co.register("face", [(2, 5)], np.dtype(np.float64))
        assert co.strips_per_message("face") == 1
        peer = 1 - ctx.rank
        payload = np.full((2, 5), float(ctx.rank) + 1.0)
        out = np.zeros((4, 7))
        req = co.post_recv("face", peer, 9, [out[1:3, 1:6]])
        co.send("face", peer, 9, [payload], wire_bytes=80.0)
        req.wait()
        assert (out[1:3, 1:6] == float(peer) + 1.0).all()
        assert out[0].sum() == 0  # only the view was written
        return True

    assert run_spmd(prog, nodes=2).values == [True, True]


def test_multi_strip_roundtrip_scatters_to_views():
    """Three strips of different shapes ride one message and scatter back
    into strided views of distinct arrays."""

    def prog(ctx):
        co = HaloCoalescer(ctx.comm)
        shapes = [(2, 4), (1, 6), (3, 3)]
        co.register("k", shapes, np.dtype(np.float64))
        assert co.strips_per_message("k") == 3
        peer = 1 - ctx.rank
        strips = [
            np.arange(np.prod(s)).reshape(s) * (ctx.rank + 1.0) for s in shapes
        ]
        arrays = [np.zeros((6, 8)) for _ in shapes]
        outs = [a[1 : 1 + s[0], 2 : 2 + s[1]] for a, s in zip(arrays, shapes)]
        req = co.post_recv("k", peer, 4, outs)
        co.send("k", peer, 4, strips, wire_bytes=184.0)
        req.wait()
        for a, s in zip(arrays, shapes):
            expected = np.arange(np.prod(s)).reshape(s) * (peer + 1.0)
            np.testing.assert_array_equal(a[1 : 1 + s[0], 2 : 2 + s[1]], expected)
            assert a.sum() == expected.sum()  # nothing outside the view
        return True

    assert run_spmd(prog, nodes=2).values == [True, True]


def test_back_to_back_sends_on_one_face_each_deliver_their_own_values():
    """Three sends on one face, packed from source arrays rewritten in
    between and drained only afterwards: each message carries the values
    it was packed from (owned=True, with nothing kept to reuse), for a
    one-strip and a two-strip layout."""
    layouts = {"one": [(3,)], "two": [(3,), (2, 2)]}

    def prog(ctx):
        co = HaloCoalescer(ctx.comm)
        peer = 1 - ctx.rank
        got = {}
        for tag, (key, shapes) in enumerate(layouts.items()):
            co.register(key, shapes, np.dtype(np.float64))
            outs = [[np.zeros(s) for s in shapes] for _ in range(3)]
            reqs = [co.post_recv(key, peer, tag, o) for o in outs]
            sources = [np.zeros(s) for s in shapes]
            for i in range(3):
                for src in sources:
                    src[...] = 10.0 * (ctx.rank + 1) + i
                co.send(key, peer, tag, sources, wire_bytes=24.0)
            for req in reqs:
                req.wait()
            got[key] = [sorted({float(v) for o in msg for v in o.flat}) for msg in outs]
        return got

    for peer, got in zip((1, 0), run_spmd(prog, nodes=2).values):
        assert got == {key: [[10.0 * (peer + 1) + i] for i in range(3)] for key in layouts}


def test_registration_and_layout_validation():
    def prog(ctx):
        co = HaloCoalescer(ctx.comm)
        co.register("a", [(2, 2)], np.dtype(np.float64))
        with pytest.raises(ConfigurationError, match="already registered"):
            co.register("a", [(2, 2)], np.dtype(np.float64))
        with pytest.raises(ConfigurationError, match="at least one strip"):
            co.register("empty", [], np.dtype(np.float64))
        with pytest.raises(ConfigurationError, match="packs 1 strip"):
            co.send("a", 0, 1, [np.zeros((2, 2)), np.zeros((2, 2))], 32.0)
        with pytest.raises(ConfigurationError, match="delivers 1 strip"):
            co.post_recv("a", 0, 1, [np.zeros((2, 2)), np.zeros((2, 2))])
        return True

    assert run_spmd(prog, nodes=1).values == [True]


# ------------------------------------------------------------ integration
def _coupled(src, dst, region, param):
    """Update the grid from field v's neighbours, then evolve v itself —
    a genuinely mutated exchange field whose halos must travel."""
    v = param["v"]
    dst[region] = 0.25 * (
        shifted(v, region, (1, 0)) + shifted(v, region, (-1, 0))
        + shifted(v, region, (0, 1)) + shifted(v, region, (0, -1))
    )
    v[region] = src[region]


def _coupled_program(ctx, iters=4, mix="cpu", grid=GRID):
    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil()
    st.configure(
        StencilKernel(_coupled, 1, WORK),
        grid.shape,
        static_fields={"v": grid * 2.0},
        exchange_fields=("v",),
    )
    st.set_global_grid(grid)
    st.run(iters)
    grid = st.gather_global()
    env.finalize()
    return grid


def _coupled_seq(iters=4, grid=GRID):
    src = np.zeros(tuple(s + 2 for s in grid.shape))
    v = np.zeros_like(src)
    region = tuple(slice(1, 1 + s) for s in grid.shape)
    src[region] = grid
    v[region] = grid * 2.0
    dst = np.zeros_like(src)

    class _Param:
        def __getitem__(self, name):
            return v

    for _ in range(iters):
        _coupled(src, dst, region, _Param())
        src, dst = dst, src
        mask = np.ones_like(src, dtype=bool)
        mask[region] = False
        src[mask] = 0
        v[mask] = 0
    return src[region]


@pytest.mark.parametrize("nodes", [2, 4])
def test_mutable_exchange_field_matches_sequential_bitwise(nodes):
    """The coupled grid+field sweep only works if v's halos really travel
    each step — and they ride the grid's coalesced messages."""
    res = run_spmd(_coupled_program, nodes=nodes)
    np.testing.assert_array_equal(res.values[0], _coupled_seq())


def test_mutable_exchange_field_is_applied_over_whole_regions():
    """``_coupled`` reads v's neighbours and then writes v, so it is not a
    pure neighbourhood function: cut into axis-0 slabs, a slab would read
    rows its predecessor already overwrote.  Each rank's region here holds
    more than ``SLAB_ELEMS`` elements, and the result must still match the
    one-box sequential sweep."""
    grid = np.random.default_rng(8).random((2 * 130, 280))
    assert 130 * 280 > SLAB_ELEMS
    res = run_spmd(_coupled_program, nodes=2, kwargs={"grid": grid})
    np.testing.assert_array_equal(res.values[0], _coupled_seq(grid=grid))


def test_exchange_field_coalesces_strips_not_messages():
    """Adding an exchanged field doubles the strips per payload but leaves
    the message count untouched, while the charged bytes double."""
    iters = 3

    def program(ctx, exchange):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(
            StencilKernel(_coupled, 1, WORK),
            GRID.shape,
            static_fields={"v": GRID * 2.0},
            exchange_fields=("v",) if exchange else (),
        )
        st.set_global_grid(GRID)
        st.run(iters)
        env.finalize()

    plain = run_spmd(program, nodes=2, trace=True, kwargs={"exchange": False})
    coupled_res = run_spmd(program, nodes=2, trace=True, kwargs={"exchange": True})
    for p, c in zip(plain.traces, coupled_res.traces):
        assert p.counters["halo.msgs"] == iters  # dims=(2,1): one neighbour
        assert c.counters["halo.msgs"] == iters  # unchanged by the field
        assert p.counters["halo.strips"] == iters
        assert c.counters["halo.strips"] == 2 * iters
        assert c.counters["comm.bytes_sent"] == 2 * p.counters["comm.bytes_sent"]


def test_exchange_field_must_be_declared_and_typed():
    def undeclared(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(
            StencilKernel(_coupled, 1, WORK), GRID.shape, exchange_fields=("v",)
        )

    with pytest.raises(ConfigurationError, match="not a configured static field"):
        run_spmd(undeclared, nodes=1)

    def wrong_dtype(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(
            StencilKernel(_coupled, 1, WORK),
            GRID.shape,
            static_fields={"v": (GRID * 2.0).astype(np.float32)},
            exchange_fields=("v",),
        )

    with pytest.raises(ConfigurationError, match="kernel dtype"):
        run_spmd(wrong_dtype, nodes=1)
