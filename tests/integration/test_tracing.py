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
        locals_ = [e for e in tr.events if e.category == "compute" and e.label.startswith("IR:local")]
        recvs = [e for e in tr.events if e.category == "comm" and e.label.startswith("recv")]
        for ev in locals_:
            for rv in recvs:
                if min(ev.end, rv.end) > max(ev.start, rv.start):
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
        comm = [[e.label for e in tr.events if e.category == "comm"] for tr in res.traces]
        assert sum(label.startswith("send") for labels in comm for label in labels) == size - 1
        root_recvs = sum(label.startswith("recv") for label in comm[0])
        assert root_recvs <= math.ceil(math.log2(size))


def test_barrier_message_complexity():
    """Dissemination barrier: size * ceil(log2 size) messages."""

    def prog(ctx):
        ctx.comm.barrier()

    for size in (2, 4, 8):
        res = spmd_run(prog, laptop_cluster(num_nodes=size), trace=True)
        sends = sum(
            e.category == "comm" and e.label.startswith("send") for tr in res.traces for e in tr.events
        )
        assert sends == size * math.ceil(math.log2(size))


def test_stencil_records_phases():
    from repro.apps import heat3d

    cfg = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=2)
    kernel = heat3d.make_kernel(ohio_cluster(2).node)
    res = spmd_run(
        heat3d.rank_program, ohio_cluster(2), args=(cfg, "cpu+1gpu", kernel), trace=True
    )
    compute = [e for e in res.traces[0].events if e.category == "compute"]
    assert any(e.label.startswith("ST:inner") for e in compute)
    assert any(e.label.startswith("ST:boundary") for e in compute)
    # One ST:step record per exchange round, whatever the blocking factor.
    rounds = [e for e in compute if e.label.startswith("ST:step")]
    assert [ev.meta["sweeps"] for ev in rounds] == [1, 1]
    assert not [e for e in compute if e.label.startswith("ST:block")]
    assert sum(e.end - e.start for e in compute) > 0
    blocked = spmd_run(
        heat3d.rank_program,
        ohio_cluster(2),
        args=(cfg, "cpu+1gpu", kernel),
        kwargs={"time_block": 2},
        trace=True,
    ).traces[0]
    compute = [e for e in blocked.events if e.category == "compute"]
    rounds = [e for e in compute if e.label.startswith("ST:step")]
    assert [ev.meta for ev in rounds] == [{"step": 2, "sweeps": 2}]
    assert [e for e in compute if e.label.startswith("ST:sweep")]


def test_gr_compute_span_recorded():
    from repro.apps import kmeans

    cfg = kmeans.KmeansConfig(functional_points=8_000)
    res = spmd_run(kmeans.rank_program, ohio_cluster(1), args=(cfg, "cpu"), trace=True)
    compute = [e for e in res.traces[0].events if e.category == "compute"]
    spans = [e for e in compute if e.label.startswith("GR:")]
    assert spans and spans[0].end > spans[0].start
    assert sum(e.end - e.start for e in compute) >= spans[0].end - spans[0].start


def test_ir_records_shared_memory_partition_counts():
    """SIII-E: num_parts = num_nodes / (shared_mem / elem_size), per GPU."""
    cfg = moldyn.MoldynConfig(
        functional_nodes=3_000, functional_degree=10, simulated_steps=1
    )
    res = spmd_run(
        moldyn.rank_program, ohio_cluster(1), args=(cfg, "cpu+2gpu"), trace=True
    )
    events = [
        e for e in res.traces[0].events
        if e.category == "partition" and e.label.startswith("IR:shared-parts")
    ]
    assert len(events) >= 2  # one per GPU per step
    for ev in events:
        assert ev.meta["num_parts"] >= 1
