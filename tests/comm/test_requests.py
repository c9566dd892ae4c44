"""Non-blocking request handles (test/wait semantics)."""

import numpy as np

from repro.comm.constants import PROC_NULL
from tests.conftest import run_spmd


def test_send_request_always_complete():
    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend(np.ones(3), 1, tag=0)
            return req.test(), req.wait()
        ctx.comm.recv(source=0, tag=0)
        return None

    done, value = run_spmd(prog, nodes=2).values[0]
    assert done is True and value is None


def test_recv_request_test_reflects_arrival():
    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=3)
            # Handshake: rank 1 confirms it has sent before we test().
            ctx.comm.recv(source=1, tag=4)
            ready_after = req.test()
            value = req.wait()
            done_after_wait = req.test()
            return ready_after, float(value[0]), done_after_wait
        ctx.comm.send(np.array([7.5]), 0, tag=3)
        ctx.comm.send("sent", 0, tag=4)
        return None

    ready_after, value, done = run_spmd(prog, nodes=2).values[0]
    assert ready_after is True
    assert value == 7.5
    assert done is True


def test_recv_request_test_false_before_send():
    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=9)
            early = req.test()
            ctx.comm.send("go", 1, tag=1)  # release the sender
            value = req.wait()
            return early, value
        ctx.comm.recv(source=0, tag=1)  # wait until rank 0 has probed
        ctx.comm.send("late", 0, tag=9)
        return None

    early, value = run_spmd(prog, nodes=2).values[0]
    assert early is False
    assert value == "late"


def test_proc_null_recv_request():
    def prog(ctx):
        req = ctx.comm.irecv(source=PROC_NULL, tag=0)
        return req.test(), req.wait()

    done, value = run_spmd(prog, nodes=1).values[0]
    assert done is True and value is None


def test_proc_null_send_request():
    # MPI semantics: a send to PROC_NULL completes immediately, transmits
    # nothing, and advances no clocks.
    def prog(ctx):
        t0 = ctx.clock.now
        req = ctx.comm.isend(np.ones(4), PROC_NULL, tag=0)
        return req.test(), req.wait(), ctx.clock.now - t0, ctx.comm.fabric.pending_count(ctx.rank)

    done, value, dt, pending = run_spmd(prog, nodes=1).values[0]
    assert done is True and value is None
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


def test_recv_test_raises_once_fabric_aborted():
    """Regression: ``RecvRequest.test()`` returned False forever after a
    sibling rank died; it must raise CommunicationError so polling loops
    fail fast.  A miss also yields the baton — that is what lets rank 1
    run (and die) at all while rank 0 polls."""
    import pytest

    from repro.util.errors import CommunicationError

    polls = []

    def prog(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=3)
            try:
                while not req.test():
                    polls.append("miss")
            except CommunicationError:
                polls.append("aborted")
                raise
            return "matched"
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        run_spmd(prog, nodes=2)
    # The first miss handed the baton to rank 1; rank 0 woke inside that
    # same test() call to the abort.
    assert polls == ["aborted"]


def test_polling_loop_makes_progress_without_blocking_receives():
    """``test()`` misses yield, so two ranks that only ever poll each
    other still complete — deterministically."""

    def prog(ctx):
        peer = 1 - ctx.rank
        req = ctx.comm.irecv(source=peer, tag=1)
        misses = 0
        while not req.test():
            misses += 1
            if misses == 3:
                ctx.comm.send(ctx.rank, peer, tag=1)
        return misses, req.wait()

    runs = [run_spmd(prog, nodes=2).values for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert [v[1] for v in runs[0]] == [1, 0]
