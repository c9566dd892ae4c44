"""The neighbour exchanges proved against what the compute reads, not
against a parent.

Stencil: every rank's interior is filled with ``1 +`` the global linear index of
each cell (exact in float64, and never the 0 of an unfilled cell), then
only the exchange runs.  The cells a round's sweeps read outside the
interior are a pure function of the kernel's offsets, ``time_block``,
the interior and the neighbours (:func:`required_cells`); each must hold
its own index afterwards, every cell outside the global domain must still
be 0, and no filled cell may hold another cell's index.  The filled cells
no sweep reads are counted: for the box plan on a star footprint they are
the edge and corner strips.

Irregular: every rank's owned node slots hold ``1 +`` their global ids,
only the remote-node exchange runs, and every slot a cross edge reads
must hold its node's id.

Each check takes whatever plan the runtime built, or one swapped in; the
swapped-in plans below are the schedule faults the checks must catch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.comm.constants import PROC_NULL
from repro.core.api import StencilKernel
from repro.core.env import RuntimeEnv
from repro.device.work import WorkModel
from tests.conftest import run_spmd
from tests.core.test_stencil import TREE_KERNELS

WORK = WorkModel(name="provenance", flops_per_elem=1, bytes_per_elem=8)


def _no_apply(src, dst, region, param):
    raise AssertionError("only the exchange runs")


def required_cells(offsets, time_block, interior, neighbors, padded) -> np.ndarray:
    """The padded cells that sweeps ``0..time_block-1`` of one round read
    outside ``interior``.

    Sweep ``s`` writes the interior extended by ``(time_block-1-s)*halo``
    toward every side with a neighbour and reads that box shifted by each
    offset.
    """
    h = max(abs(c) for o in offsets for c in o)
    mask = np.zeros(padded, dtype=bool)
    for s in range(time_block):
        e = (time_block - 1 - s) * h
        region = [
            (sl.start - e * (lo != PROC_NULL), sl.stop + e * (hi != PROC_NULL))
            for sl, (lo, hi) in zip(interior, neighbors)
        ]
        for o in offsets:
            mask[tuple(slice(a + c, b + c) for (a, b), c in zip(region, o))] = True
    mask[interior] = False
    return mask


def _index_grid(shape, dtype) -> np.ndarray:
    return np.arange(1, math.prod(shape) + 1, dtype=np.float64).reshape(shape).astype(dtype)


def _expected(global_shape, origin, padded) -> np.ndarray:
    """``1 +`` the global linear index of each padded cell, 0 outside the domain."""
    coords = [np.arange(n) + o for n, o in zip(padded, origin)]
    inside = np.ones(padded, dtype=bool)
    for ax, (c, n) in enumerate(zip(coords, global_shape)):
        shape = [1] * len(padded)
        shape[ax] = -1
        inside &= ((c >= 0) & (c < n)).reshape(shape)
    clipped = [np.clip(c, 0, n - 1) for c, n in zip(coords, global_shape)]
    grids = np.meshgrid(*clipped, indexing="ij")
    return np.where(inside, np.ravel_multi_index(grids, global_shape) + 1, 0)


def stencil_provenance(kernel, global_shape, dims, time_block, plan=None) -> dict:
    """Run only ``kernel``'s halo exchange on ``dims`` ranks and count, over
    all ranks, the required cells not holding their index (``missing``),
    the filled cells holding another cell's (``wrong``), the out-of-domain
    cells not 0 (``border``) and the filled cells no sweep reads
    (``unread``).  ``plan(st)``, if given, replaces the runtime's exchange
    plan before the round."""

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu").get_stencil()
        st.configure(kernel, global_shape, dims=dims, time_block=time_block)
        if plan is not None:
            plan(st)
        st.set_global_grid(_index_grid(global_shape, kernel.dtype))
        _, rows, posted = st._begin_round()
        st._finish_exchange(posted, rows)
        return st._src.copy(), st.local_start, st._halo_depth, st.interior, st._neighbors

    counts = dict.fromkeys(("missing", "wrong", "border", "unread"), 0)
    for src, start, depth, interior, neighbors in run_spmd(prog, nodes=math.prod(dims)).values:
        want = _expected(global_shape, [s - depth for s in start], src.shape)
        need = required_cells(kernel.offsets, time_block, interior, neighbors, src.shape)
        halo = np.ones(src.shape, dtype=bool)
        halo[interior] = False
        filled = halo & (src != 0)
        counts["missing"] += int(np.sum(need & (want != 0) & (src != want)))
        counts["wrong"] += int(np.sum(filled & (src != want)))
        counts["border"] += int(np.sum((want == 0) & (src != 0)))
        counts["unread"] += int(np.sum(filled & ~need))
    return counts


def _shape_for(dims, time_block, halo, extra=None):
    """The smallest global shape whose every local extent fits ``time_block``."""
    extra = extra or (0,) * len(dims)
    return tuple(d * 2 * time_block * halo + x for d, x in zip(dims, extra))


def _kernel(offsets) -> StencilKernel:
    return StencilKernel(apply=_no_apply, offsets=tuple(offsets), work=WORK)


def _assert_proved(counts):
    assert (counts["missing"], counts["wrong"], counts["border"]) == (0, 0, 0), counts


@settings(max_examples=50, deadline=None)
@given(data=hst.data())
def test_drawn_footprints_get_every_cell_they_read(data):
    ndim = data.draw(hst.sampled_from((2, 3)))
    offsets = data.draw(
        hst.sets(hst.tuples(*[hst.integers(-2, 2)] * ndim), min_size=1, max_size=6).filter(
            lambda s: any(map(any, s))
        )
    )
    dims = tuple(data.draw(hst.lists(hst.integers(1, 3), min_size=ndim, max_size=ndim)))
    k = data.draw(hst.integers(1, 4))
    extra = tuple(data.draw(hst.lists(hst.integers(0, 2), min_size=ndim, max_size=ndim)))
    kernel = _kernel(sorted(offsets))
    _assert_proved(stencil_provenance(kernel, _shape_for(dims, k, kernel.halo, extra), dims, k))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(TREE_KERNELS))
def test_every_shipped_kernel_gets_every_cell_it_reads(name, k):
    kernel = TREE_KERNELS[name][0]
    dims = (3,) * len(kernel.offsets[0])
    shape = _shape_for(dims, k, kernel.halo, (1,) * len(dims))
    _assert_proved(stencil_provenance(kernel, shape, dims, k))


def test_box_plan_fills_the_edge_and_corner_strips_a_star_never_reads():
    # 3 x 3 x 3 ranks of 4^3 cells and a 7-point star at k = 1.  A rank has
    # 1 or 2 open sides per axis (4 summed over an axis' three coordinates);
    # it fills, and never reads, a 4-cell strip per pair of open sides on
    # two axes and a cell per open corner.
    faces = [tuple(s * (i == ax) for i in range(3)) for ax in range(3) for s in (-1, 1)]
    star = _kernel([(0, 0, 0)] + faces)
    counts = stencil_provenance(star, (12, 12, 12), (3, 3, 3), 1)
    _assert_proved(counts)
    open_sides = 1 + 2 + 1
    assert counts["unread"] == 3 * open_sides**2 * 3 * 4 + open_sides**3


# -- plans that must fail --------------------------------------------------------
def _strips_stopped_at_the_interior(st):
    ex = st._exchange

    def clip(box, axis):
        return tuple(box[a] if a == axis else st.interior[a] for a in range(len(st.interior)))

    ex.phases = tuple(
        tuple(x._replace(send=clip(x.send, axis), recv=clip(x.recv, axis)) for x in phase)
        for axis, phase in enumerate(ex.phases)
    )


def _every_axis_in_one_phase(st):
    ex = st._exchange
    ex.phases = (sum(ex.phases, ()),) + ((),) * (len(ex.phases) - 1)


@pytest.mark.parametrize("plan", [_strips_stopped_at_the_interior, _every_axis_in_one_phase])
@pytest.mark.parametrize(
    "name, k", [("sobel", 1), ("heat3d", 2)], ids=["sobel-box-k1", "heat3d-star-k2"]
)
def test_a_broken_plan_leaves_required_cells_missing(name, k, plan):
    kernel = TREE_KERNELS[name][0]
    dims = (3,) * len(kernel.offsets[0])
    counts = stencil_provenance(kernel, _shape_for(dims, k, kernel.halo), dims, k, plan=plan)
    assert counts["missing"] > 0, counts


# -- the irregular remote-node exchange -------------------------------------------
def irregular_provenance(edges, n_nodes, nprocs, plan=None) -> int:
    """Run only the remote-node exchange (the id exchange, then the
    step-5/6 plan) on ``nprocs`` ranks and count the cross-edge endpoint
    reads whose slot does not hold ``1 +`` its node's global id.
    ``plan(ir)``, if given, replaces the plan before the node data moves."""

    def prog(ctx):
        ir = RuntimeEnv(ctx, "cpu").get_IR()
        ir.set_mesh(edges, np.arange(1, n_nodes + 1, dtype=np.float64))
        ir._exchange_ids()
        if plan is not None:
            plan(ir)
        ir._exchange.complete(ir._send_node_data())
        return ir._nodes[ir._cross_edges, 0], ir.local_node_range

    wrong = 0
    for read, (lo, hi) in run_spmd(prog, nodes=nprocs).values:
        inside = (edges >= lo) & (edges < hi)
        cross = edges[inside.sum(axis=1) == 1]
        assert read.shape == cross.shape
        wrong += int(np.sum(read != cross + 1))
    return wrong


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=hst.integers(4, 60),
    nprocs=hst.integers(1, 4),
    n_edges=hst.integers(0, 120),
    seed=hst.integers(0, 2**32 - 1),
)
def test_every_remote_slot_holds_its_node(n_nodes, nprocs, n_edges, seed):
    raw = np.random.default_rng(seed).integers(0, n_nodes, size=(n_edges, 2))
    edges = np.unique(raw[raw[:, 0] != raw[:, 1]], axis=0).reshape(-1, 2)
    assert irregular_provenance(edges, n_nodes, nprocs) == 0


def _spans_served_to_the_wrong_requester(ir):
    # Each requester gets the next requester's span (a ring's spans are
    # all one node long, so the messages still fit their slots).
    (phase,) = ir._exchange.phases
    sends = [x.send for x in phase]
    ir._exchange.phases = (
        tuple(x._replace(send=s) for x, s in zip(phase, sends[1:] + sends[:1])),
    )


def test_a_span_served_to_the_wrong_requester_is_caught():
    ring = np.array([(i, (i + 1) % 12) for i in range(12)])
    assert irregular_provenance(ring, 12, 4) == 0
    assert irregular_provenance(ring, 12, 4, plan=_spans_served_to_the_wrong_requester) > 0
