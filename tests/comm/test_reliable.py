"""ReliableComm: bit-identical delivery over lossy fault plans."""

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.comm import reliable
from repro.comm.constants import PROC_NULL
from repro.comm.reliable import ReliableComm
from repro.faults.plan import FaultPlan, LinkDegradation, MessageFaultRule
from repro.sim.engine import spmd_run
from repro.util.errors import CommunicationError

LOSSY = dict(drop=0.3, dup=0.2, delay=0.2, max_delay=3e-4)


def _reliable(ctx):
    return ReliableComm(ctx.comm)


def _ring_prog(ctx):
    """Each rank sends a payload around a ring and allreduces a checksum."""
    comm = _reliable(ctx)
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    payload = np.arange(32, dtype=np.float64) + ctx.rank
    for _ in range(4):
        req = comm.irecv(source=left, tag=7)
        comm.send(payload, right, tag=7)
        payload = req.wait() + 1.0
    total = comm.allreduce(float(payload.sum()), "sum")
    comm.flush()
    return payload, total, comm.retransmits, comm.duplicates_discarded


def test_ring_bit_identical_under_lossy_plan():
    cluster = laptop_cluster(num_nodes=4)
    clean = spmd_run(_ring_prog, cluster)
    lossy = spmd_run(_ring_prog, cluster, fault_plan=FaultPlan.lossy(seed=7, **LOSSY))
    for (cp, ct, _, _), (lp, lt, _, _) in zip(clean.values, lossy.values):
        np.testing.assert_array_equal(cp, lp)
        assert ct == lt
    # Faults actually happened and cost virtual time.
    assert sum(v[2] for v in lossy.values) > 0  # retransmits
    assert sum(v[3] for v in lossy.values) > 0  # duplicates discarded
    assert lossy.makespan > clean.makespan


def test_lossy_runs_are_deterministic():
    cluster = laptop_cluster(num_nodes=4)
    runs = [
        spmd_run(_ring_prog, cluster, fault_plan=FaultPlan.lossy(seed=7, **LOSSY))
        for _ in range(3)
    ]
    assert runs[0].times == runs[1].times == runs[2].times
    for later in runs[1:]:
        for (p0, t0, r0, d0), (p1, t1, r1, d1) in zip(runs[0].values, later.values):
            np.testing.assert_array_equal(p0, p1)
            assert (t0, r0, d0) == (t1, r1, d1)


def test_makespan_grows_with_severity():
    cluster = laptop_cluster(num_nodes=4)
    spans = []
    for drop in (0.0, 0.2, 0.5):
        plan = FaultPlan.lossy(seed=13, drop=drop)
        spans.append(spmd_run(_ring_prog, cluster, fault_plan=plan).makespan)
    assert spans[0] < spans[1] < spans[2]


def test_collectives_survive_losses():
    def prog(ctx):
        comm = _reliable(ctx)
        s = comm.allreduce(ctx.rank + 1, "sum")
        g = comm.gather(ctx.rank, root=0)
        b = comm.bcast("payload" if ctx.rank == 0 else None, root=0)
        comm.barrier()
        comm.flush()
        return s, g, b

    cluster = laptop_cluster(num_nodes=5)
    res = spmd_run(prog, cluster, fault_plan=FaultPlan.lossy(seed=3, **LOSSY))
    for rank, (s, g, b) in enumerate(res.values):
        assert s == sum(range(1, 6))
        assert g == (list(range(5)) if rank == 0 else None)
        assert b == "payload"


def test_zero_copy_out_delivery_preserved():
    def prog(ctx):
        comm = _reliable(ctx)
        if ctx.rank == 0:
            buf = np.zeros(16)
            req = comm.irecv(source=1, tag=2, out=buf)
            req.wait()
            comm.flush()
            return buf.copy()
        comm.send(np.full(16, 3.5), 0, tag=2)
        comm.flush()
        return None

    res = spmd_run(
        prog,
        laptop_cluster(num_nodes=2),
        fault_plan=FaultPlan.lossy(seed=21, drop=0.4, dup=0.3),
    )
    np.testing.assert_array_equal(res.values[0], np.full(16, 3.5))


def test_wildcards_rejected():
    """There is no wildcard receive: MPI's wildcard value -1 is refused as
    a source and as a tag, because a reliable stream is one named
    (source, tag) pair."""

    def prog(ctx):
        comm = _reliable(ctx)
        if ctx.rank == 0:
            with pytest.raises(CommunicationError):
                comm.recv(source=-1, tag=1)
            with pytest.raises(CommunicationError):
                comm.recv(source=1, tag=-1)
            with pytest.raises(CommunicationError):
                comm.irecv(source=-1, tag=1)
        return True

    assert all(spmd_run(prog, laptop_cluster(num_nodes=2)).values)


def test_proc_null_noops():
    def prog(ctx):
        comm = _reliable(ctx)
        comm.send("x", PROC_NULL, tag=1)
        assert comm.recv(source=PROC_NULL, tag=1) is None
        req = comm.irecv(source=PROC_NULL, tag=1)
        assert req.wait() is None
        comm.flush()
        return True

    assert all(spmd_run(prog, laptop_cluster(num_nodes=2)).values)


def test_give_up_after_max_attempts(monkeypatch):
    monkeypatch.setattr(reliable, "MAX_ATTEMPTS", 3)

    def prog(ctx):
        comm = _reliable(ctx)
        if ctx.rank == 0:
            comm.send("doomed", 1, tag=1)
        return None

    plan = FaultPlan(seed=1, rules=[MessageFaultRule(drop_prob=1.0)])
    with pytest.raises(CommunicationError, match="gave up after 3 attempts"):
        spmd_run(prog, laptop_cluster(num_nodes=2), fault_plan=plan)


def test_retransmit_backoff_charged_to_virtual_clock():
    """Each failed attempt advances the sender's clock by the (doubling)
    timeout, so drops translate into a deterministic makespan penalty."""
    assert (reliable.RTO, reliable.BACKOFF) == (1e-3, 2.0)

    def prog(ctx):
        comm = _reliable(ctx)
        if ctx.rank == 0:
            t0 = ctx.clock.now
            comm.send(np.ones(4), 1, tag=1)
            return ctx.clock.now - t0
        comm.recv(source=0, tag=1)
        return None

    # Drop every transmission sent before t=1.5ms, then deliver.
    plan = FaultPlan(
        seed=1, rules=[MessageFaultRule(drop_prob=1.0, t_end=0.0015)]
    )
    res = spmd_run(prog, laptop_cluster(num_nodes=2), fault_plan=plan)
    # First attempt at t=0 dropped (+1ms), second at 1ms dropped (+2ms),
    # third at 3ms is outside the rule window and delivers.
    assert res.values[0] >= 3e-3


def test_degraded_link_slows_but_stays_correct():
    def prog(ctx):
        comm = _reliable(ctx)
        if ctx.rank == 0:
            comm.send(np.arange(1 << 12, dtype=np.float64), 1, tag=3)
            comm.flush()
            return None
        out = comm.recv(source=0, tag=3)
        comm.flush()
        return out

    cluster = laptop_cluster(num_nodes=2)
    clean = spmd_run(prog, cluster)
    slow_plan = FaultPlan(seed=1, degradations=[LinkDegradation(bandwidth_factor=0.25)])
    slow = spmd_run(prog, cluster, fault_plan=slow_plan)
    np.testing.assert_array_equal(clean.values[1], slow.values[1])
    assert slow.makespan > clean.makespan


def test_fault_trace_events_recorded():
    cluster = laptop_cluster(num_nodes=4)
    res = spmd_run(
        _ring_prog, cluster, trace=True, fault_plan=FaultPlan.lossy(seed=7, **LOSSY)
    )
    labels = [e.label for t in res.traces for e in t.events if e.category == "fault"]
    assert any(label.startswith("retransmit->") for label in labels)
    assert any(label.startswith("dup-discard<-") for label in labels)
