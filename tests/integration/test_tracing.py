"""Behavioural verification through event traces.

Timing claims are easy to fake with constants; these tests check the
*structure* of execution instead: that overlap genuinely interleaves
compute with communication spans, and that the tree combine has
logarithmic depth.
"""

import math

import numpy as np

from repro.cluster.presets import laptop_cluster, ohio_cluster
from repro.apps import moldyn
from repro.sim.engine import spmd_run
from repro.sim.trace import overlap_seconds


def test_ir_local_compute_overlaps_node_exchange():
    cfg = moldyn.MoldynConfig(
        functional_nodes=4_000, functional_degree=12, simulated_steps=2
    )
    res = spmd_run(
        moldyn.rank_program,
        ohio_cluster(4),
        args=(cfg, "cpu"),
        kwargs={"overlap": True},
        trace=True,
    )
    found_overlap = False
    for tr in res.traces:
        locals_ = tr.filter(category="compute", label_prefix="IR:local")
        recvs = tr.filter(category="comm", label_prefix="recv")
        for ev in locals_:
            for rv in recvs:
                if overlap_seconds(ev, rv) > 0:
                    found_overlap = True
    assert found_overlap, "local-edge compute never overlapped the exchange"


def test_reduce_message_rounds_logarithmic():
    """Binomial-tree reduce: rank 0 receives exactly its child count, and
    the total message count is size-1."""

    def prog(ctx):
        ctx.comm.reduce(np.zeros(10), "sum", root=0)
        return None

    for size in (2, 4, 8, 7):
        res = spmd_run(prog, laptop_cluster(num_nodes=size), trace=True)
        sends = sum(len(tr.filter(category="comm", label_prefix="send")) for tr in res.traces)
        assert sends == size - 1
        root_recvs = len(res.traces[0].filter(category="comm", label_prefix="recv"))
        assert root_recvs <= math.ceil(math.log2(size))


def test_barrier_message_complexity():
    """Dissemination barrier: size * ceil(log2 size) messages."""

    def prog(ctx):
        ctx.comm.barrier()

    for size in (2, 4, 8):
        res = spmd_run(prog, laptop_cluster(num_nodes=size), trace=True)
        sends = sum(len(tr.filter(category="comm", label_prefix="send")) for tr in res.traces)
        assert sends == size * math.ceil(math.log2(size))


def test_stencil_records_phases():
    from repro.apps import heat3d

    cfg = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=2)
    kernel = heat3d.make_kernel(ohio_cluster(2).node)
    res = spmd_run(
        heat3d.rank_program, ohio_cluster(2), args=(cfg, "cpu+1gpu", kernel), trace=True
    )
    tr = res.traces[0]
    assert tr.filter(category="compute", label_prefix="ST:inner")
    assert tr.filter(category="compute", label_prefix="ST:boundary")
    # One ST:step record per exchange round, whatever the blocking factor.
    rounds = tr.filter(category="compute", label_prefix="ST:step")
    assert [ev.meta["sweeps"] for ev in rounds] == [1, 1]
    assert not tr.filter(category="compute", label_prefix="ST:block")
    assert sum(ev.duration for ev in tr.filter(category="compute")) > 0
    blocked = spmd_run(
        heat3d.rank_program,
        ohio_cluster(2),
        args=(cfg, "cpu+1gpu", kernel),
        kwargs={"time_block": 2},
        trace=True,
    ).traces[0]
    rounds = blocked.filter(category="compute", label_prefix="ST:step")
    assert [ev.meta for ev in rounds] == [{"step": 2, "sweeps": 2}]
    assert blocked.filter(category="compute", label_prefix="ST:sweep")


def test_gr_compute_span_recorded():
    from repro.apps import kmeans

    cfg = kmeans.KmeansConfig(functional_points=8_000)
    res = spmd_run(kmeans.rank_program, ohio_cluster(1), args=(cfg, "cpu"), trace=True)
    spans = res.traces[0].filter(category="compute", label_prefix="GR:")
    assert spans and spans[0].duration > 0
    compute = res.traces[0].filter(category="compute")
    assert sum(ev.duration for ev in compute) >= spans[0].duration


def test_ir_records_shared_memory_partition_counts():
    """SIII-E: num_parts = num_nodes / (shared_mem / elem_size), per GPU."""
    cfg = moldyn.MoldynConfig(
        functional_nodes=3_000, functional_degree=10, simulated_steps=1
    )
    res = spmd_run(
        moldyn.rank_program, ohio_cluster(1), args=(cfg, "cpu+2gpu"), trace=True
    )
    events = res.traces[0].filter(category="partition", label_prefix="IR:shared-parts")
    assert len(events) >= 2  # one per GPU per step
    for ev in events:
        assert ev.meta["num_parts"] >= 1
