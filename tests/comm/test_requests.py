"""Non-blocking request handles (wait semantics)."""

import numpy as np

from repro.comm.constants import PROC_NULL
from tests.conftest import run_spmd


def test_send_request_always_complete():
    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(np.ones(3), 1, tag=0)
            return req.wait()
        ctx.comm.recv(source=0, tag=0)
        return None

    assert run_spmd(prog, nodes=2).values[0] is None


def test_proc_null_recv_request():
    def prog(ctx):
        return ctx.comm.irecv(source=PROC_NULL, tag=0).wait()

    assert run_spmd(prog, nodes=1).values[0] is None


def test_proc_null_send_request():
    # MPI semantics: a send to PROC_NULL completes immediately, transmits
    # nothing, and advances no clocks.
    def prog(ctx):
        t0 = ctx.clock.now
        req = ctx.comm.isend(np.ones(4), PROC_NULL, tag=0)
        return req.wait(), ctx.clock.now - t0, ctx.comm.fabric._boxes[ctx.rank].pending

    value, dt, pending = run_spmd(prog, nodes=1).values[0]
    assert value is None
    assert dt == 0.0
    assert pending == 0


def test_proc_null_round_trip_in_spmd_halo_pattern():
    # Edge ranks of a non-periodic decomposition talk to PROC_NULL on one
    # side; the full isend/irecv/wait cycle must be a no-op there while
    # real neighbours still exchange.
    def prog(ctx):
        left = ctx.rank - 1 if ctx.rank > 0 else PROC_NULL
        right = ctx.rank + 1 if ctx.rank < ctx.size - 1 else PROC_NULL
        rreq = ctx.comm.irecv(source=left, tag=5)
        sreq = ctx.comm.isend(np.array([float(ctx.rank)]), right, tag=5)
        got = rreq.wait()
        sreq.wait()
        return None if got is None else float(got[0])

    values = run_spmd(prog, nodes=3).values
    assert values[0] is None  # rank 0 has no left neighbour
    assert values[1] == 0.0
    assert values[2] == 1.0


def test_waitall_returns_values_in_request_order():
    # waitall's results must line up with the request list, not with
    # message arrival order.
    def prog(ctx):
        if ctx.rank == 0:
            reqs = [
                ctx.comm.irecv(source=1, tag=11),
                ctx.comm.irecv(source=1, tag=10),
                ctx.comm.irecv(source=PROC_NULL, tag=0),
            ]
            return ctx.comm.waitall(reqs)
        # Send in the opposite order of rank 0's request list.
        ctx.comm.send("first-sent", 0, tag=10)
        ctx.comm.send("second-sent", 0, tag=11)
        return None

    values = run_spmd(prog, nodes=2).values[0]
    assert values == ["second-sent", "first-sent", None]


def test_wait_is_idempotent():
    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=2)
            first = req.wait()
            second = req.wait()  # must not consume another message
            return first, second
        ctx.comm.send("only-one", 0, tag=2)
        return None

    first, second = run_spmd(prog, nodes=2).values[0]
    assert first == second == "only-one"

