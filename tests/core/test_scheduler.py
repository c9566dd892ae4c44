"""Dynamic chunk scheduler."""

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.core.scheduler import ChunkScheduler
from repro.device.cpu import CPUDevice
from repro.device.gpu import GPUDevice
from repro.device.work import WorkModel
from repro.util.errors import SchedulingError, ValidationError

WORK = WorkModel(name="w", flops_per_elem=800, bytes_per_elem=4, cpu_efficiency=1.0, gpu_efficiency=1.0)


def _node():
    return laptop_cluster(num_nodes=1, cores=4, gpus_per_node=1).node


def _cpu():
    return CPUDevice(_node().cpu)


def _gpu():
    return GPUDevice(_node().gpus[0])


def test_all_elements_processed_exactly_once():
    seen = np.zeros(10_000, dtype=int)

    def exec_fn(device, start, n):
        seen[start : start + n] += 1

    sched = ChunkScheduler([_cpu()])
    report = sched.run(WORK, 10_000, 128, exec_fn=exec_fn)
    assert (seen == 1).all()
    assert sum(w.elems for w in report.workers) == 10_000


def test_makespan_reflects_parallelism():
    cpu = _cpu()
    solo = ChunkScheduler([cpu]).run(WORK, 40_000, 256)
    # 4 cores vs 1 core timing: compare against a single-core device.
    from dataclasses import replace

    one_core = CPUDevice(replace(_node().cpu, cores=1))
    single = ChunkScheduler([one_core]).run(WORK, 40_000, 256)
    assert solo.makespan < single.makespan / 3  # near-4x with some tail; both start at 0


def test_gpu_gets_larger_share_when_faster():
    # Chunks must be large enough that kernel-launch overhead does not mask
    # the GPU's raw speed advantage (200 GF vs 4 x 8 GF).
    report = ChunkScheduler([_cpu(), _gpu()]).run(
        WORK, 200_000, 2048, gpu_chunk_multiplier=8
    )
    by_dev: dict[str, int] = {}
    for w in report.workers:  # what the runtime counts per device
        by_dev[w.device.name] = by_dev.get(w.device.name, 0) + w.elems
    gpu_elems = next(v for k, v in by_dev.items() if "gpu" in k.lower() or "test-gpu" in k)
    cpu_elems = next(v for k, v in by_dev.items() if "cpu" in k.lower() and "gpu" not in k.lower())
    # test-gpu 200 GF vs 4x8 GF cpu: GPU should take the large majority.
    assert gpu_elems > 2 * cpu_elems


def test_heterogeneous_beats_either_alone():
    both = ChunkScheduler([_cpu(), _gpu()]).run(WORK, 200_000, 512)
    cpu_only = ChunkScheduler([_cpu()]).run(WORK, 200_000, 512)
    gpu_only = ChunkScheduler([_gpu()]).run(WORK, 200_000, 512)
    assert both.makespan < cpu_only.makespan
    assert both.makespan < gpu_only.makespan


def test_time_scale_multiplies_cost():
    fast = ChunkScheduler([_cpu()]).run(WORK, 1_000, 100, time_scale=1.0)
    slow = ChunkScheduler([_cpu()]).run(WORK, 1_000, 100, time_scale=10.0)
    assert slow.makespan == pytest.approx(10 * fast.makespan, rel=0.05)


def test_start_offset_respected():
    report = ChunkScheduler([_cpu()]).run(WORK, 1_000, 100, start=5.0)
    assert report.start == 5.0
    assert report.makespan > 5.0
    assert all(w.finish >= 5.0 for w in report.workers)


def test_zero_elements_is_noop():
    report = ChunkScheduler([_cpu()]).run(WORK, 0, 100, start=1.0)
    assert report.makespan == 1.0
    assert all(w.elems == 0 for w in report.workers)


def test_load_imbalance_metric():
    report = ChunkScheduler([_cpu()]).run(WORK, 10_000, 100)
    assert 0.0 <= report.load_imbalance() < 0.5


def test_load_imbalance_formula():
    # Pin the exact formula: (makespan - mean finish) / (makespan - start).
    # Offset start so a "/ makespan" regression would show immediately.
    from repro.core.scheduler import ScheduleReport, WorkerReport

    dev = _cpu()
    report = ScheduleReport(
        start=2.0,
        makespan=6.0,
        workers=[
            WorkerReport(name="a", device=dev, finish=6.0),
            WorkerReport(name="b", device=dev, finish=4.0),
        ],
    )
    # mean finish = 5.0 -> (6 - 5) / (6 - 2) = 0.25, not (6 - 5) / 6.
    assert report.load_imbalance() == pytest.approx(0.25)

    even = ScheduleReport(
        start=2.0,
        makespan=6.0,
        workers=[WorkerReport(name="a", device=dev, finish=6.0)],
    )
    assert even.load_imbalance() == 0.0


def test_validation():
    sched = ChunkScheduler([_cpu()])
    with pytest.raises(ValidationError):
        sched.run(WORK, -1, 100)
    with pytest.raises(ValidationError):
        sched.run(WORK, 100, 0)
    with pytest.raises(ValidationError):
        sched.run(WORK, 100, 10, time_scale=0)
    with pytest.raises(ValidationError):
        sched.run(WORK, 100, 10, gpu_chunk_multiplier=0)
    with pytest.raises(SchedulingError):
        ChunkScheduler([])
    with pytest.raises(SchedulingError):
        ChunkScheduler([object()]).run(WORK, 10, 5)
