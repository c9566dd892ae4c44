"""Determinism: a run is a pure function of its program.

The whole point of virtual-clock simulation is that reported numbers are
reproducible; these tests run the same programs repeatedly and require
bit-identical results and times.  The app-level cases were deterministic
by *program shape* even when ranks raced; the generated message programs
at the bottom fan in with no barrier before it, and are deterministic
because the engine's schedule is — one rank runs at a time, in an order
the program alone decides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import heat3d, kmeans, moldyn
from repro.apps.extra import jacobi2d
from repro.cluster.presets import ohio_cluster
from repro.sim.engine import spmd_run

REPEATS = 3


def _times_and_result(run_fn):
    outs = [run_fn() for _ in range(REPEATS)]
    return outs


def test_kmeans_cluster_run_deterministic():
    cfg = kmeans.KmeansConfig(functional_points=20_000)

    def once():
        run = kmeans.run(ohio_cluster(4), cfg, mix="cpu+2gpu")
        return run.makespan, run.result

    outs = _times_and_result(once)
    for makespan, result in outs[1:]:
        assert makespan == outs[0][0]
        np.testing.assert_array_equal(result, outs[0][1])


def test_moldyn_cluster_run_deterministic():
    cfg = moldyn.MoldynConfig(functional_nodes=3_000, functional_degree=10, simulated_steps=2)

    def once():
        run = moldyn.run(ohio_cluster(3), cfg, mix="cpu+1gpu")
        return run.makespan, run.result[0]["nodes"]

    outs = _times_and_result(once)
    for makespan, nodes in outs[1:]:
        assert makespan == outs[0][0]
        np.testing.assert_array_equal(nodes, outs[0][1])


def test_heat3d_per_rank_times_deterministic():
    cfg = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=2)

    def once():
        cluster = ohio_cluster(4)
        kernel = heat3d.make_kernel(cluster.node)
        res = spmd_run(heat3d.rank_program, cluster, args=(cfg, "cpu+2gpu", kernel))
        return tuple(tuple(v["steps"]) for v in res.values)

    outs = _times_and_result(once)
    assert outs[0] == outs[1] == outs[2]


def test_until_converged_loop_deterministic():
    cfg = jacobi2d.Jacobi2DConfig(shape=(24, 24), tol=1e-3, max_iters=120)

    def once():
        res = spmd_run(jacobi2d.rank_program, ohio_cluster(3), args=(cfg, "cpu"))
        return res.makespan, tuple(v["iterations"] for v in res.values)

    outs = _times_and_result(once)
    assert outs[0] == outs[1] == outs[2]


def test_per_core_mpi_baseline_deterministic():
    from repro.apps.baselines import mpi_kmeans

    cfg = kmeans.KmeansConfig(functional_points=12_000)

    def once():
        return mpi_kmeans.run(ohio_cluster(2), cfg).makespan

    times = {_ for _ in (once() for _ in range(REPEATS))}
    assert len(times) == 1


def test_different_seeds_differ():
    a = kmeans.run(ohio_cluster(1), kmeans.KmeansConfig(functional_points=10_000, seed=1), mix="cpu")
    b = kmeans.run(ohio_cluster(1), kmeans.KmeansConfig(functional_points=10_000, seed=2), mix="cpu")
    assert not np.array_equal(a.result, b.result)


# ---------------------------------------------------------------------------
# Generated message programs (the first slice of the generative suite).
# A program is a list of phases, each deadlock-free on its own because sends
# are eager and every rank sends before it receives:
#   ("p2p", [(src, dst, tag), ...])  specific-source sends and receives
#   ("fanin", root, [delay per rank]) fan-in to root, NO barrier before it
#   ("allreduce",)
# Phase i uses tags i*8.., so no receive matches another phase's message.
# ---------------------------------------------------------------------------

_delays = st.integers(0, 5).map(lambda n: n * 1e-6)


@st.composite
def message_programs(draw):
    n = draw(st.integers(2, 8))
    ranks = st.integers(0, n - 1)
    pair = st.tuples(ranks, ranks).filter(lambda p: p[0] != p[1])
    phase = st.one_of(
        st.tuples(
            st.just("p2p"),
            st.lists(st.tuples(pair, st.integers(0, 2)), min_size=1, max_size=6),
        ),
        st.tuples(st.just("fanin"), ranks, st.lists(_delays, min_size=n, max_size=n)),
        st.tuples(st.just("allreduce")),
    )
    return n, draw(st.lists(phase, min_size=1, max_size=6))


def _message_program(ctx, phases):
    comm, me, log = ctx.comm, ctx.rank, []
    for i, phase in enumerate(phases):
        base = i * 8
        if phase[0] == "p2p":
            for (src, dst), tag in phase[1]:
                if src == me:
                    comm.send((i, me), dst, tag=base + tag)
            for (src, dst), tag in phase[1]:
                if dst == me:
                    log.append(comm.recv(source=src, tag=base + tag))
        elif phase[0] == "fanin":
            _, root, delays = phase
            if me == root:
                log.append(
                    [comm.recv(source=r, tag=base) for r in range(ctx.size) if r != root]
                )
            else:
                ctx.clock.advance(delays[me])
                comm.send(me, root, tag=base)
        else:
            log.append(comm.allreduce(me + i, "sum"))
    return log


def _observe(n, phases):
    res = spmd_run(_message_program, ohio_cluster(n), args=(phases,), trace=True)
    events = [
        [(e.category, e.label, e.start, e.end, sorted(e.meta.items())) for e in tr.events]
        for tr in res.traces
    ]
    return res.values, res.times, events


@settings(max_examples=60, deadline=None)
@given(message_programs())
def test_generated_message_programs_are_identical_run_to_run(program):
    n, phases = program
    first = _observe(n, phases)
    assert _observe(n, phases) == first
    assert _observe(n, phases) == first
