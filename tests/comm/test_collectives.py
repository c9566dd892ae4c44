"""Collective operations across communicator sizes."""

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.sim.engine import spmd_run
from repro.util.errors import CommunicationError, DeadlockError, ValidationError

SIZES = [1, 2, 3, 4, 5, 7, 8]


def _run(prog, size, **kw):
    return spmd_run(prog, laptop_cluster(num_nodes=size), **kw)


@pytest.mark.parametrize("size", SIZES)
def test_barrier_completes(size):
    res = _run(lambda ctx: ctx.comm.barrier() or ctx.clock.now, size)
    # All ranks leave the barrier at similar (positive for size>1) times.
    if size > 1:
        assert min(res.times) > 0


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast(size, root):
    rootr = size - 1 if root == "last" else 0

    def prog(ctx):
        data = {"v": 42} if ctx.rank == rootr else None
        return ctx.comm.bcast(data, root=rootr)

    assert all(v == {"v": 42} for v in _run(prog, size).values)


@pytest.mark.parametrize("size", SIZES)
def test_reduce_sum_scalar(size):
    def prog(ctx):
        return ctx.comm.reduce(ctx.rank + 1, "sum", root=0)

    values = _run(prog, size).values
    assert values[0] == size * (size + 1) // 2
    assert all(v is None for v in values[1:])


@pytest.mark.parametrize("size", SIZES)
def test_reduce_nonzero_root_arrays(size):
    root = size // 2

    def prog(ctx):
        return ctx.comm.reduce(np.full(3, float(ctx.rank)), "max", root=root)

    values = _run(prog, size).values
    np.testing.assert_array_equal(values[root], np.full(3, size - 1.0))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("op,expected", [("sum", "sum"), ("min", 0), ("max", "max"), ("prod", "prod")])
def test_allreduce_ops(size, op, expected):
    def prog(ctx):
        return ctx.comm.allreduce(ctx.rank + 1, op)

    values = _run(prog, size).values
    want = {
        "sum": size * (size + 1) // 2,
        0: 1,
        "max": size,
        "prod": int(np.prod(np.arange(1, size + 1))),
    }[expected if expected != 0 else 0]
    assert all(v == want for v in values)


@pytest.mark.parametrize("size", SIZES)
def test_gather(size):
    def prog(ctx):
        return ctx.comm.gather(ctx.rank * 2, root=0)

    values = _run(prog, size).values
    assert values[0] == [r * 2 for r in range(size)]
    assert all(v is None for v in values[1:])


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    def prog(ctx):
        return ctx.comm.allgather(chr(ord("a") + ctx.rank))

    expected = [chr(ord("a") + r) for r in range(size)]
    assert all(v == expected for v in _run(prog, size).values)


@pytest.mark.parametrize("size", SIZES)
def test_scatter(size):
    def prog(ctx):
        values = [i * i for i in range(ctx.size)] if ctx.rank == 0 else None
        return ctx.comm.scatter(values, root=0)

    assert _run(prog, size).values == [r * r for r in range(size)]


def test_scatter_requires_exact_length():
    def prog(ctx):
        ctx.comm.scatter([1], root=0)

    with pytest.raises(CommunicationError):
        _run(prog, 2)


@pytest.mark.parametrize("size", SIZES)
def test_alltoall(size):
    def prog(ctx):
        return ctx.comm.alltoall([ctx.rank * 100 + i for i in range(ctx.size)])

    values = _run(prog, size).values
    for rank, got in enumerate(values):
        assert got == [src * 100 + rank for src in range(size)]


def test_alltoall_length_check():
    def prog(ctx):
        ctx.comm.alltoall([0])

    with pytest.raises(CommunicationError):
        _run(prog, 3)


def test_reduce_custom_callable_op():
    def prog(ctx):
        return ctx.comm.allreduce(ctx.rank + 1, lambda a, b: a * 10 + b if a > b else b * 10 + a)

    # Just checks callables are accepted and applied consistently.
    values = _run(prog, 3).values
    assert len(set(map(str, values))) == 1


def test_unknown_op_rejected():
    def prog(ctx):
        ctx.comm.allreduce(1, "median")

    with pytest.raises(ValidationError):
        _run(prog, 2)


def test_reduce_tree_depth_is_logarithmic():
    """The paper: global combine takes up to log2(n) parallel steps."""

    def prog(ctx):
        payload = np.zeros(125_000)  # 1 MB -> 1 ms wire per hop
        ctx.comm.reduce(payload, "sum", root=0)
        return ctx.clock.now

    t8 = max(_run(prog, 8).times)
    t2 = max(_run(prog, 2).times)
    # 8 ranks = 3 rounds, 2 ranks = 1 round: ~3x, never 7x (linear).
    assert t8 / t2 < 4.5


def test_collectives_interleave_with_p2p():
    def prog(ctx):
        total = ctx.comm.allreduce(ctx.rank, "sum")
        if ctx.rank == 0:
            ctx.comm.send("extra", 1, tag=11)
        if ctx.rank == 1:
            assert ctx.comm.recv(source=0, tag=11) == "extra"
        ctx.comm.barrier()
        return total

    assert _run(prog, 3).values == [3, 3, 3]


@pytest.mark.parametrize("size", SIZES)
def test_scan_inclusive_prefix(size):
    def prog(ctx):
        return ctx.comm.scan(ctx.rank + 1, "sum")

    values = _run(prog, size).values
    assert values == [sum(range(1, r + 2)) for r in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_exscan_exclusive_prefix(size):
    def prog(ctx):
        return ctx.comm.exscan(ctx.rank + 1, "sum")

    values = _run(prog, size).values
    assert values[0] is None
    assert values[1:] == [sum(range(1, r + 1)) for r in range(1, size)]


def test_scan_with_max_op():
    def prog(ctx):
        return ctx.comm.scan([3, 1, 4, 1, 5][ctx.rank], "max")

    assert _run(prog, 5).values == [3, 3, 4, 4, 5]


@pytest.mark.parametrize("size", SIZES)
def test_reduce_scatter(size):
    def prog(ctx):
        values = [ctx.rank * 10 + slot for slot in range(ctx.size)]
        return ctx.comm.reduce_scatter(values, "sum")

    values = _run(prog, size).values
    for slot, got in enumerate(values):
        assert got == sum(r * 10 + slot for r in range(size))


def test_reduce_scatter_length_check():
    def prog(ctx):
        ctx.comm.reduce_scatter([1], "sum")

    with pytest.raises(CommunicationError):
        _run(prog, 3)


def test_scan_exscan_mismatch_deadlocks_not_mispairs():
    """Regression: exscan must use its own op id.  When it shared
    ``_OP_SCAN``'s, a mismatched program (one rank in ``scan``, another in
    ``exscan``) silently paired rounds across the two algorithms and
    returned wrong prefixes; with distinct ids it deadlocks loudly."""

    def prog(ctx):
        if ctx.rank == 0:
            return ctx.comm.scan(1, "sum")
        return ctx.comm.exscan(1, "sum")

    with pytest.raises(DeadlockError) as exc:
        spmd_run(prog, laptop_cluster(num_nodes=2))
    # Rank 0's scan sent its round under scan's tag and returned; rank 1's
    # exscan waits under its own tag with that message unmatched.
    text = str(exc.value)
    assert "rank 1 waits for source=0" in text
    assert "with 1 unmatched message(s)" in text
    assert "rank 0 waits" not in text


def test_exscan_round_budget_checked_before_any_send(monkeypatch):
    """An over-budget exscan must raise up front on every rank (nobody has
    sent yet, so nobody is left hung mid-collective)."""
    from repro.comm import collectives

    monkeypatch.setattr(collectives, "_MAX_ROUNDS", 2)

    def prog(ctx):
        return ctx.comm.exscan(ctx.rank, "sum")

    # 4 ranks need 2 inclusive-scan rounds + 1 shift round = 3 > 2.
    with pytest.raises(CommunicationError, match="round"):
        _run(prog, 4, wall_timeout=10.0)


def test_scan_then_exscan_same_program():
    """Back-to-back scan and exscan draw distinct tag sequences."""

    def prog(ctx):
        inc = ctx.comm.scan(ctx.rank + 1, "sum")
        exc = ctx.comm.exscan(ctx.rank + 1, "sum")
        return inc, exc

    values = _run(prog, 5).values
    for rank, (inc, exc) in enumerate(values):
        assert inc == sum(r + 1 for r in range(rank + 1))
        assert exc == (sum(r + 1 for r in range(rank)) if rank else None)
