"""Point-to-point messaging semantics and LogGP timing."""

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.comm.constants import PROC_NULL
from repro.sim.engine import spmd_run
from repro.util.errors import CommunicationError
from tests.conftest import run_spmd


def test_send_recv_array_roundtrip():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.arange(10.0), 1, tag=3)
            return None
        return ctx.comm.recv(source=0, tag=3)

    res = run_spmd(prog, nodes=2)
    np.testing.assert_array_equal(res.values[1], np.arange(10.0))


def test_send_recv_python_object():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send({"k": [1, 2]}, 1, tag=0)
            return None
        return ctx.comm.recv(source=0, tag=0)

    assert run_spmd(prog, nodes=2).values[1] == {"k": [1, 2]}


def test_recv_into_buffer():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.ones(4), 1, tag=0)
            return None
        out = np.zeros(4)
        got = ctx.comm.recv(source=0, tag=0, out=out)
        assert got is out
        return out

    np.testing.assert_array_equal(run_spmd(prog, nodes=2).values[1], np.ones(4))


def test_tag_selectivity():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send("a", 1, tag=1)
            ctx.comm.send("b", 1, tag=2)
            return None
        second = ctx.comm.recv(source=0, tag=2)
        first = ctx.comm.recv(source=0, tag=1)
        return first, second

    assert run_spmd(prog, nodes=2).values[1] == ("a", "b")


def test_non_overtaking_same_tag():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(5):
                ctx.comm.send(i, 1, tag=7)
            return None
        return [ctx.comm.recv(source=0, tag=7) for _ in range(5)]

    assert run_spmd(prog, nodes=2).values[1] == [0, 1, 2, 3, 4]


def test_proc_null_send_recv_are_noops():
    def prog(ctx):
        ctx.comm.send("x", PROC_NULL, tag=0)
        assert ctx.comm.recv(source=PROC_NULL, tag=0) is None
        return ctx.clock.now

    assert run_spmd(prog, nodes=1).values[0] == 0.0


def test_irecv_deferred_completion():
    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=4)
            ctx.clock.advance(1.0)  # compute while the message flies
            value = req.wait()
            return value, ctx.clock.now
        ctx.comm.send(np.array([2.5]), 0, tag=4)
        return None

    value, t = run_spmd(prog, nodes=2).values[0]
    assert value[0] == 2.5
    # The message arrived during the 1s of compute: wait() is nearly free.
    assert t < 1.001


def test_sendrecv_exchange():
    def prog(ctx):
        partner = 1 - ctx.rank
        return ctx.comm.sendrecv(ctx.rank * 10, partner, partner, 5, 5)

    assert run_spmd(prog, nodes=2).values == [10, 0]


def test_recv_clock_waits_for_arrival():
    cluster = laptop_cluster(num_nodes=2)
    nbytes = 1_000_000 * 8

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.zeros(1_000_000), 1, tag=0)
            return ctx.clock.now
        ctx.comm.recv(source=0, tag=0)
        return ctx.clock.now

    res = spmd_run(prog, cluster)
    sender_t, recv_t = res.values
    link = cluster.network
    expected = link.send_overhead + link.latency + nbytes / link.bandwidth + link.recv_overhead
    assert recv_t == pytest.approx(expected, rel=1e-6)
    # Sender paid only its software overhead, not the wire time.
    assert sender_t == pytest.approx(link.send_overhead)


def test_wire_bytes_override_charges_model_scale():
    cluster = laptop_cluster(num_nodes=2)

    def prog(ctx, wire):
        if ctx.rank == 0:
            ctx.comm.send(np.zeros(10), 1, tag=0, wire_bytes=wire)
            return None
        ctx.comm.recv(source=0, tag=0)
        return ctx.clock.now

    small = spmd_run(prog, cluster, args=(None,)).values[1]
    big = spmd_run(prog, cluster, args=(8_000_000,)).values[1]
    assert big > small + 0.007  # 8 MB at 1 GB/s ~ 8 ms extra


def test_peer_out_of_range_rejected():
    def prog(ctx):
        ctx.comm.send(1, 5, tag=0)

    with pytest.raises(CommunicationError):
        run_spmd(prog, nodes=2)


def test_user_tag_range_enforced():
    from repro.comm.constants import COLLECTIVE_TAG_BASE

    def prog(ctx):
        ctx.comm.send(1, 0, tag=COLLECTIVE_TAG_BASE)

    with pytest.raises(CommunicationError):
        run_spmd(prog, nodes=1)


def test_waitall_returns_in_order():
    def prog(ctx):
        if ctx.rank == 0:
            reqs = [ctx.comm.irecv(source=1, tag=t) for t in (1, 2)]
            return ctx.comm.waitall(reqs)
        ctx.comm.send("one", 0, tag=1)
        ctx.comm.send("two", 0, tag=2)
        return None

    assert run_spmd(prog, nodes=2).values[0] == ["one", "two"]


def test_sender_mutation_after_isend_does_not_leak():
    # The send snapshots (or freezes) the payload at isend time: mutating
    # the source buffer afterwards must not change what the receiver sees.
    def prog(ctx):
        if ctx.rank == 0:
            buf = np.arange(6.0)
            ctx.comm.isend(buf, 1, tag=0)
            buf[:] = -1.0  # mutate immediately, before the receiver runs
            ctx.comm.send("mutated", 1, tag=1)
            return None
        got = ctx.comm.recv(source=0, tag=0)
        ctx.comm.recv(source=0, tag=1)  # sender has mutated by now
        return got.copy()

    got = run_spmd(prog, nodes=2).values[1]
    np.testing.assert_array_equal(got, np.arange(6.0))


def test_received_array_view_is_readonly():
    # Without out=, the receiver gets a read-only view of the snapshot:
    # writing through it must fail rather than corrupt the payload.
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.ones(4), 1, tag=0)
            return None
        got = ctx.comm.recv(source=0, tag=0)
        try:
            got[0] = 99.0
        except ValueError:
            return "readonly"
        return "writable"

    assert run_spmd(prog, nodes=2).values[1] == "readonly"


def test_recv_into_out_buffer_is_caller_owned():
    # With out=, the data lands in the caller's buffer, which stays
    # writable and is the same object that was passed in.
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.arange(4.0), 1, tag=0)
            return None
        out = np.empty(4)
        got = ctx.comm.recv(source=0, tag=0, out=out)
        out[0] += 1.0  # caller-owned: writing must be allowed
        return got is out, out.copy()

    same, out = run_spmd(prog, nodes=2).values[1]
    assert same
    np.testing.assert_array_equal(out, [1.0, 1.0, 2.0, 3.0])


def test_recv_out_into_strided_slab_matches_copy_path():
    # Pooled halo ingestion: receiving straight into a non-contiguous slab
    # view with out= must land the exact bytes the plain recv + np.copyto
    # path produces.
    def prog(ctx):
        if ctx.rank == 0:
            strip = np.arange(8.0) * 1.7
            ctx.comm.send(strip, 1, tag=0)
            ctx.comm.send(strip, 1, tag=1)
            return None
        copy_grid = np.zeros((8, 3))
        out_grid = np.zeros((8, 3))
        got = ctx.comm.recv(source=0, tag=0)
        np.copyto(copy_grid[:, 0], got)  # manual copy path
        ctx.comm.recv(source=0, tag=1, out=out_grid[:, 0])  # strided out=
        return copy_grid, out_grid

    copy_grid, out_grid = run_spmd(prog, nodes=2).values[1]
    np.testing.assert_array_equal(copy_grid, out_grid)
    np.testing.assert_array_equal(out_grid[:, 0], np.arange(8.0) * 1.7)
