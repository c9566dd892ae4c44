"""Where the runtimes' CPU charges land, now that a CPU device builds the
cores between its first and last only when something schedules per core.

The stencil runtime charges the first core's line, the irregular runtime
the last core's, and the chunk scheduler every core.  A step that mixes
them must still find earlier charges on the same line objects, so its
makespans stay those of a device that built every core up front (pinned
below from such a build); with tracing on every core still records.
"""

import numpy as np
import pytest

from repro.core.api import IRKernel, StencilKernel, shifted
from repro.core.env import RuntimeEnv
from repro.core.scheduler import ChunkScheduler
from repro.device.work import WorkModel
from repro.serve.spec import JobSpec, build_cluster, run_spec
from tests.conftest import run_spmd

N = 96
RNG = np.random.default_rng(11)
_raw = RNG.integers(0, N, size=(600, 2))
EDGES = np.unique(_raw[_raw[:, 0] != _raw[:, 1]], axis=0)
WEIGHTS = RNG.random(len(EDGES))
NODES = RNG.random((N, 2))
GRID = RNG.random((40, 36))

IR_WORK = WorkModel(
    name="ir", flops_per_elem=12, bytes_per_elem=48, atomics_per_elem=2, num_reduction_keys=N
)
ST_WORK = WorkModel(name="st", flops_per_elem=8, bytes_per_elem=32)
GR_WORK = WorkModel(name="gr", flops_per_elem=40, bytes_per_elem=16)


def _edges(obj, edges, edata, nodes, param):
    f = edata * (nodes[edges[:, 0], 0] - nodes[edges[:, 1], 0])
    obj.insert_many(edges[:, 0], f)
    obj.insert_many(edges[:, 1], -f)


def _avg(src, dst, region, param):
    dst[region] = 0.25 * (
        shifted(src, region, (1, 0)) + shifted(src, region, (-1, 0))
        + shifted(src, region, (0, 1)) + shifted(src, region, (0, -1))
    )


def _mixed_steps(ctx, order, mix):
    """Each step: one runtime's charges, then the chunk scheduler from the
    same step start with no reset in between, so its consumers meet them."""
    env = RuntimeEnv(ctx, mix)
    ir = env.get_IR()
    ir.set_kernel(IRKernel(edge_compute_batch=_edges, reduce_op="sum", value_width=1, work=IR_WORK))
    ir.set_mesh(EDGES, NODES, WEIGHTS)
    st = env.get_stencil()
    st.configure(StencilKernel(_avg, ((1, 0), (-1, 0), (0, 1), (0, -1)), ST_WORK), GRID.shape)
    st.set_global_grid(GRID)
    scheduler = ChunkScheduler(env.devices)
    out = []
    for runtime in order:
        t0 = env.clock.now
        ir.start() if runtime == "ir" else st.run(1)
        report = scheduler.run(GR_WORK, 400, 40, start=t0)
        env.clock.advance_to(report.makespan)
        out.append(repr(report.makespan))
    return out + [repr(env.clock.now)]


#: ``_mixed_steps`` rank values on a device with every core built up front.
PINNED = {
    (("ir", "st", "ir"), "cpu"): [
        ["1.828975e-05", "2.4508149999999997e-05", "2.6608149999999997e-05", "2.6608149999999997e-05"],
        ["1.828975e-05", "2.4508149999999997e-05", "2.6608149999999997e-05", "2.6608149999999997e-05"],
    ],
    (("ir", "st", "ir"), "cpu+1gpu"): [
        ["5.2298199999999987e-05", "0.00010280766249999999", "0.00013293664999999998", "0.00013293664999999998"],
        ["5.236206249999999e-05", "0.00010274379999999998", "0.00013285804999999998", "0.00013285804999999998"],
    ],
    (("st", "ir", "st"), "cpu"): [
        ["6.673599999999999e-06", "2.4508149999999997e-05", "3.0726549999999995e-05", "3.0726549999999995e-05"],
        ["6.673599999999999e-06", "2.4508149999999997e-05", "3.0726549999999995e-05", "3.0726549999999995e-05"],
    ],
    (("st", "ir", "st"), "cpu+1gpu"): [
        ["5.0900799999999985e-05", "0.00010274379999999999", "0.00015323382249999998", "0.00015323382249999998"],
        ["5.0900799999999985e-05", "0.00010280766249999999", "0.00015316996", "0.00015316996"],
    ],
}


@pytest.mark.parametrize("order, mix", sorted(PINNED))
def test_a_step_mixing_runtime_and_chunk_charges_keeps_its_makespans(order, mix):
    res = run_spmd(_mixed_steps, nodes=2, gpus_per_node=1, args=(order, mix))
    assert res.values == PINNED[(order, mix)]


def test_kmeans_with_obs_on_records_chunks_on_every_core():
    spec = JobSpec(app="kmeans", nodes=2, mix="cpu", trace=True, params={"functional_points": 4000})
    cores = build_cluster(spec.preset, spec.nodes).node.cpu.cores
    apprun, _ = run_spec(spec)
    for trace in apprun.spmd.traces:
        by_line = trace.intervals_by_timeline()
        for c in range(cores):
            assert any(rec.label == "chunk" for rec in by_line[f"cpu0.core{c}"]), c


@pytest.mark.parametrize("app", ["heat3d", "kmeans"])
def test_obs_on_and_off_give_repr_equal_makespans_at_16_ranks(app):
    plain, _ = run_spec(JobSpec(app=app, nodes=16, mix="cpu"))
    observed, _ = run_spec(JobSpec(app=app, nodes=16, mix="cpu", trace=True))
    assert repr(observed.makespan) == repr(plain.makespan)
