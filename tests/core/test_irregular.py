"""Irregular-reduction runtime: protocol and numerical correctness."""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.apps import minimd, moldyn
from repro.cluster.presets import laptop_cluster
from repro.core.api import IRKernel
from repro.core.env import RuntimeEnv
from repro.device.work import WorkModel
from repro.sim.engine import spmd_run
from repro.util.errors import ConfigurationError, ValidationError
from tests.conftest import run_spmd

N = 120
WORK = WorkModel(
    name="ir", flops_per_elem=12, bytes_per_elem=48, cpu_mem_efficiency=0.8,
    atomics_per_elem=2, num_reduction_keys=N,
)
RNG = np.random.default_rng(5)
_raw = RNG.integers(0, N, size=(900, 2))
EDGES = np.unique(_raw[_raw[:, 0] != _raw[:, 1]], axis=0)
WEIGHTS = RNG.random(len(EDGES))
NODES = RNG.random((N, 2))


def _edge_batch(obj, edges, edata, nodes, param):
    du = nodes[edges[:, 0], 0] - nodes[edges[:, 1], 0]
    f = edata * du
    obj.insert_many(edges[:, 0], f)
    obj.insert_many(edges[:, 1], -f)


def _kernel():
    return IRKernel(edge_compute_batch=_edge_batch, reduce_op="sum", value_width=1, work=WORK)


def _reference(nodes=NODES):
    du = nodes[EDGES[:, 0], 0] - nodes[EDGES[:, 1], 0]
    f = WEIGHTS * du
    ref = np.zeros(N)
    np.add.at(ref, EDGES[:, 0], f)
    np.add.at(ref, EDGES[:, 1], -f)
    return ref


def _collect(values):
    got = np.zeros(N)
    for lo, hi, part in values:
        got[lo:hi] = part
    return got


def _program(mix="cpu+2gpu", steps=1, **ir_opts):
    def prog(ctx):
        env = RuntimeEnv(ctx, mix)
        ir = env.get_IR(**ir_opts)
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        for _ in range(steps):
            ir.start()
        lo, hi = ir.local_node_range
        return lo, hi, ir.get_local_reduction()[:, 0]

    return prog


@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
def test_correct_across_rank_counts(nodes):
    res = run_spmd(_program(), nodes=nodes, gpus_per_node=2)
    np.testing.assert_allclose(_collect(res.values), _reference(), rtol=1e-12)


@pytest.mark.parametrize("mix", ["cpu", "1gpu", "cpu+1gpu", "cpu+2gpu"])
def test_correct_across_device_mixes(mix):
    res = run_spmd(_program(mix), nodes=2, gpus_per_node=2)
    np.testing.assert_allclose(_collect(res.values), _reference(), rtol=1e-12)


def _min_edge_batch(obj, edges, edata, nodes, param):
    f = edata * (nodes[edges[:, 0], 0] + nodes[edges[:, 1], 0])
    obj.insert_many(edges[:, 0], f)
    obj.insert_many(edges[:, 1], f)


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("mix", ["cpu", "cpu+2gpu"])
def test_min_reduction_matches_numpy_bitwise(mix, nodes):
    """A non-sum op is never planned: its scatters take the unplanned
    ``ufunc.at`` path, and the result is exactly ``np.minimum.at``'s."""

    def prog(ctx):
        env = RuntimeEnv(ctx, mix)
        ir = env.get_IR()
        ir.set_kernel(
            IRKernel(edge_compute_batch=_min_edge_batch, reduce_op="min", value_width=1, work=WORK)
        )
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        ir.start()
        assert not ir._obj._plans
        lo, hi = ir.local_node_range
        return lo, hi, ir.get_local_reduction()[:, 0]

    res = run_spmd(prog, nodes=nodes, gpus_per_node=2)
    f = WEIGHTS * (NODES[EDGES[:, 0], 0] + NODES[EDGES[:, 1], 0])
    ref = np.full(N, np.inf)
    np.minimum.at(ref, EDGES[:, 0], f)
    np.minimum.at(ref, EDGES[:, 1], f)
    np.testing.assert_array_equal(_collect(res.values), ref)


def test_overlap_off_same_numbers_slower_or_equal_time():
    on = run_spmd(_program(overlap=True), nodes=4, gpus_per_node=2)
    off = run_spmd(_program(overlap=False), nodes=4, gpus_per_node=2)
    np.testing.assert_allclose(_collect(on.values), _collect(off.values), rtol=1e-12)
    assert off.makespan >= on.makespan * 0.999


def test_multiple_steps_without_update_are_idempotent():
    res = run_spmd(_program(steps=3), nodes=2, gpus_per_node=2)
    np.testing.assert_allclose(_collect(res.values), _reference(), rtol=1e-12)


def test_update_nodedata_propagates_to_remote_copies():
    """The step-5/6 exchange must refresh remote nodes after an update —
    functionally, not just in simulated time."""

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        ir.start()
        ir.update_nodedata(ir.get_local_nodes() * 2.0)
        ir.start()
        lo, hi = ir.local_node_range
        return lo, hi, ir.get_local_reduction()[:, 0]

    res = run_spmd(prog, nodes=3)
    np.testing.assert_allclose(_collect(res.values), _reference(NODES * 2.0), rtol=1e-12)


def test_remote_slots_filled_only_by_protocol():
    """Remote node values start zeroed and must be delivered by messages."""

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        lo, hi = ir.local_node_range
        before = ir._nodes[hi - lo :].copy()
        ir.start()
        after = ir._nodes[hi - lo :].copy()
        return len(before), float(np.abs(before).sum()), float(np.abs(after).sum())

    res = run_spmd(prog, nodes=3)
    for n_remote, before, after in res.values:
        assert before == 0.0
        if n_remote:
            assert after > 0.0


def test_get_local_nodes_and_range():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        lo, hi = ir.local_node_range
        np.testing.assert_allclose(ir.get_local_nodes(), NODES[lo:hi])
        return lo, hi

    res = run_spmd(prog, nodes=3)
    ranges = res.values
    assert ranges[0][0] == 0 and ranges[-1][1] == N
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c


def test_update_nodedata_shape_check():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        ir.update_nodedata(np.zeros((3, 2)))

    with pytest.raises(ConfigurationError, match="shape"):
        run_spmd(prog, nodes=2)


def test_adaptive_repartitions_after_first_step():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS, model_edges=len(EDGES) * 1000)
        ir.start()
        first = ir._ranges
        ir.update_nodedata(ir.get_local_nodes())
        ir.start()
        second = ir._ranges
        return first, second, ir._partitioner.profiled

    first, second, profiled = run_spmd(prog, nodes=1, gpus_per_node=1).values[0]
    assert profiled
    assert first != second  # speed-proportional split differs from even


def test_adaptive_off_keeps_even_split():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        ir = env.get_IR(adaptive=False)
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        ir.start()
        first = ir._ranges
        ir.start()
        return first, ir._ranges

    first, second = run_spmd(prog, nodes=1).values[0]
    assert first == second


def test_repartition_invalidates_edge_cache_and_preserves_results():
    """Forced mid-run repartition: the cached device partitions are rebuilt
    exactly once, step results stay bit-identical across the rebuild, and
    the rank's insert/drop accounting matches its local/cross edge split."""

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        # Large model scale makes the profiled split differ from even.
        ir.set_mesh(EDGES, NODES, WEIGHTS, model_edges=len(EDGES) * 1000)
        def builds():
            return env.trace.counters["ir.cache_builds"]

        ir.start()
        builds1, ranges1 = builds(), ir._ranges
        r1 = ir.get_local_reduction()[:, 0].copy()
        ir.start()
        builds2, ranges2 = builds(), ir._ranges
        r2 = ir.get_local_reduction()[:, 0].copy()
        ir.start()  # stable split: cache must be reused, not rebuilt
        builds3 = builds()
        # Accounting invariant: the rank's reduction object keeps both
        # endpoints of every local edge plus the one owned endpoint of
        # every cross edge (the other endpoint is a remote slot).
        kept = ir._obj.n_inserts - ir._obj.n_dropped
        expect = 2 * len(ir._local_edges) + len(ir._cross_edges)
        return builds1, builds2, builds3, ranges1 != ranges2, r1, r2, kept, expect

    res = run_spmd(prog, nodes=1, gpus_per_node=1, trace=True)
    builds1, builds2, builds3, repartitioned, r1, r2, kept, expect = res.values[0]
    assert repartitioned
    assert (builds1, builds2, builds3) == (1, 2, 2)
    np.testing.assert_array_equal(r1, r2)  # bit-identical across the rebuild
    np.testing.assert_allclose(r1, _reference(), rtol=1e-12)
    assert kept == expect


def test_device_ranges_must_tile_reduction_space():
    """A broken adaptive split (dropped or double-covered nodes) must be
    rejected before it can silently corrupt results."""

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        ir._partitioner.split = lambda n: [n - 1, 0]  # loses the last node
        ir.start()

    with pytest.raises(ValidationError, match="reduction\\s+space"):
        run_spmd(prog, nodes=1, gpus_per_node=1)


def test_set_mesh_again_resets_connectivity():
    """A second ``set_mesh`` replaces the edges, edge data and exchange
    plan: the next step reduces over the new mesh only."""

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        ir.start()
        r1 = ir.get_local_reduction()[:, 0].copy()
        # rebuild connectivity with reversed edges and negated weights
        ir.set_mesh(EDGES[:, ::-1].copy(), NODES, -WEIGHTS)
        ir.start()
        r2 = ir.get_local_reduction()[:, 0].copy()
        lo, hi = ir.local_node_range
        return lo, hi, r1, r2

    res = run_spmd(prog, nodes=2)
    got1 = np.zeros(N)
    got2 = np.zeros(N)
    for lo, hi, r1, r2 in res.values:
        got1[lo:hi], got2[lo:hi] = r1, r2
    np.testing.assert_allclose(got1, _reference())
    # Reversing both the edge direction and the weight sign negates the
    # antisymmetric accumulation: du flips sign, f = (-w)(-du) = w*du, but
    # the +f/-f insertions land on swapped endpoints.
    np.testing.assert_allclose(got2, -_reference())


def test_errors_for_missing_configuration():
    def no_mesh(ctx):
        RuntimeEnv(ctx, "cpu").get_IR().start()

    with pytest.raises(ConfigurationError, match="set_mesh"):
        run_spmd(no_mesh, nodes=1)

    def bad_edges(ctx):
        ir = RuntimeEnv(ctx, "cpu").get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(np.zeros((4, 3), dtype=int), NODES)

    with pytest.raises(ConfigurationError, match="edges"):
        run_spmd(bad_edges, nodes=1)


@pytest.mark.parametrize("bad_id", [-1, len(NODES)])
def test_edge_ids_outside_the_nodes_are_a_configuration_error(bad_id):
    """Refused up front on every rank, whichever block the other end is in."""
    edges = EDGES.copy()
    edges[-1, 1] = bad_id

    def prog(ctx):
        RuntimeEnv(ctx, "cpu").get_IR().set_mesh(edges, NODES)

    with pytest.raises(ConfigurationError, match=rf"\[0, {len(NODES)}\)"):
        run_spmd(prog, nodes=2)


@pytest.mark.parametrize("nodes", [1, 2])
def test_misaligned_edge_data_is_a_configuration_error(nodes):
    def prog(ctx):
        ir = RuntimeEnv(ctx, "cpu").get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS[:-3])

    with pytest.raises(ConfigurationError, match=f"{len(EDGES) - 3}.*{len(EDGES)}"):
        run_spmd(prog, nodes=nodes)


def test_node_data_exchange_sends_one_message_per_requesting_rank():
    """Node data is one array per rank, so the step-5/6 exchange is one
    send per requester after an update, none when clean."""

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        ir = env.get_IR()
        ir.set_kernel(_kernel())
        ir.set_mesh(EDGES, NODES, WEIGHTS)
        ir.start()

        def sent():
            return env.trace.counters.get("comm.msgs_sent", 0.0)

        ir.update_nodedata(ir.get_local_nodes())
        before = sent()
        ir.start()
        dirty = sent() - before
        before = sent()
        ir.start()
        (phase,) = ir._exchange.phases
        return len(phase), dirty, sent() - before

    res = run_spmd(prog, nodes=4, trace=True)
    assert max(spans for spans, _, _ in res.values) > 1
    for spans, dirty, clean in res.values:
        assert dirty == spans
        assert clean == 0


# -- charging pins --------------------------------------------------------------
# ``irregular_pins.json`` was generated before the runtime's per-device
# reduction objects were folded into one per rank.  Every entry is
# [repr(app makespan), repr(engine makespan), result digest] for one
# device mix × node count × overlap × adaptive case the variant accepts.

PIN_MIXES = ("cpu", "cpu+1gpu", "cpu+2gpu")
PIN_NODES = (1, 2, 4)
#: variant -> (accepts overlap, accepts adaptive)
PIN_VARIANTS = {
    "moldyn": (True, False),
    "minimd": (True, False),
    "runtime": (True, True),
}
PINS_PATH = pathlib.Path(__file__).with_name("irregular_pins.json")


def pin_cases(variant):
    """(mix, nodes, overlap, adaptive) grid for one variant."""
    overlap, adaptive = PIN_VARIANTS[variant]
    return itertools.product(
        PIN_MIXES,
        PIN_NODES,
        (True, False) if overlap else (True,),
        (True, False) if adaptive else (True,),
    )


def pin_key(mix, nodes, overlap, adaptive):
    return f"{mix}|n{nodes}|overlap={int(overlap)}|adaptive={int(adaptive)}"


def _pinned_runtime(ctx, mix, overlap, adaptive):
    """Dirty steps (an adaptive repartition among them), then a clean one."""
    env = RuntimeEnv(ctx, mix)
    ir = env.get_IR(overlap=overlap, adaptive=adaptive)
    ir.set_kernel(_kernel())
    ir.set_mesh(EDGES, NODES, WEIGHTS, model_edges=len(EDGES) * 1000)
    for _ in range(3):
        ir.start()
        nodes = ir.get_local_nodes()
        nodes[:, 0] += 1e-3 * ir.get_local_reduction()[:, 0]
        ir.update_nodedata(nodes)
    ir.start()
    lo, hi = ir.local_node_range
    return lo, hi, ir.get_local_reduction()[:, 0].copy()


def pin_entry(variant, mix, nodes, overlap, adaptive):
    cl = laptop_cluster(nodes, gpus_per_node=2)
    if variant in ("moldyn", "minimd"):
        if variant == "moldyn":
            config = moldyn.MoldynConfig(
                functional_nodes=600, functional_degree=12.0, simulated_steps=3
            )
        else:
            # reneighbor_every < simulated_steps: the set_mesh-again path.
            config = minimd.MiniMDConfig(
                functional_cells=4, simulated_steps=4, reneighbor_every=2
            )
        app = moldyn if variant == "moldyn" else minimd
        run = app.run(cl, config, mix, overlap=overlap)
        makespan, engine = run.makespan, run.spmd.makespan
        result = np.concatenate([v["nodes"] for v in run.result])
    else:
        res = spmd_run(_pinned_runtime, cl, args=(mix, overlap, adaptive))
        makespan = engine = res.makespan
        result = np.concatenate([r for _, _, r in res.values])
    digest = hashlib.sha256(np.ascontiguousarray(result).tobytes()).hexdigest()[:16]
    return [repr(makespan), repr(engine), digest]


@pytest.mark.parametrize("variant", sorted(PIN_VARIANTS))
def test_irregular_pins_unchanged(variant):
    pins = json.loads(PINS_PATH.read_text())[variant]
    cases = list(pin_cases(variant))
    assert len(pins) == len(cases)
    drift = {}
    for case in cases:
        got = pin_entry(variant, *case)
        if got != pins[pin_key(*case)]:
            drift[pin_key(*case)] = (pins[pin_key(*case)], got)
    assert not drift, drift
