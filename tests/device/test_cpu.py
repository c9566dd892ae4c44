"""CPU device cost arithmetic and core timelines."""

from dataclasses import replace

import pytest

from repro.cluster.presets import xeon_5650
from repro.device.cpu import CPUDevice
from repro.device.work import WorkModel
from repro.util.errors import ValidationError


@pytest.fixture
def cpu():
    return CPUDevice(xeon_5650())


def test_compute_bound_core_time(cpu):
    w = WorkModel(name="c", flops_per_elem=1064, bytes_per_elem=1, cpu_efficiency=1.0)
    # 1064 flops at 10.64 GF/core = 100 ns; memory term tiny.
    assert cpu.core_elem_time(w) == pytest.approx(100e-9, rel=1e-6)


def test_memory_bound_core_time(cpu):
    w = WorkModel(name="m", flops_per_elem=1, bytes_per_elem=64, cpu_efficiency=1.0)
    # 64 B over a 1/12 share of 64 GB/s = 12 ns.
    assert cpu.core_elem_time(w) == pytest.approx(12e-9, rel=1e-6)


def test_mem_efficiency_derates_bandwidth(cpu):
    w = WorkModel(name="m", flops_per_elem=1, bytes_per_elem=64, cpu_mem_efficiency=0.5)
    w_full = w.replace(cpu_mem_efficiency=1.0)
    assert cpu.core_elem_time(w) == pytest.approx(2 * cpu.core_elem_time(w_full))


def test_framework_overhead_charged_only_when_framework(cpu):
    w = WorkModel(
        name="f", flops_per_elem=100, bytes_per_elem=1, cpu_efficiency=1.0,
        runtime_overhead_flops=50,
    )
    assert cpu.core_elem_time(w, framework=True) == pytest.approx(
        1.5 * cpu.core_elem_time(w, framework=False)
    )


def test_device_time_divides_by_cores(cpu):
    w = WorkModel(name="c", flops_per_elem=1064, bytes_per_elem=1, cpu_efficiency=1.0)
    assert cpu.elem_time(w) == pytest.approx(cpu.core_elem_time(w) / 12)
    assert cpu.partition_time(w, 1200) == pytest.approx(1200 * cpu.elem_time(w))


def test_atomics_added(cpu):
    w = WorkModel(
        name="a", flops_per_elem=1, bytes_per_elem=1, atomics_per_elem=2, num_reduction_keys=100
    )
    base = w.replace(atomics_per_elem=0)
    assert cpu.core_elem_time(w) > cpu.core_elem_time(base)


def test_memcpy_time_counts_read_and_write(cpu):
    assert cpu.memcpy_time(64e9) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        cpu.memcpy_time(-1)


def test_workers_and_reset(cpu):
    assert len(cpu.workers) == 12
    cpu.workers[0].schedule(0, 1.0)
    cpu.reset(start=5.0)
    assert all(w.available_at == 5.0 for w in cpu.workers)


def test_cores_between_first_and_last_are_built_on_first_per_core_use(cpu):
    first, last = cpu.timelines()
    assert (first.name, last.name) == ("cpu0.core0", "cpu0.core11")
    first.schedule(0, 1.0)
    last.schedule(0, 3.0)
    cpu.reset(start=2.0)
    workers = cpu.workers
    assert [w.name for w in workers] == [f"cpu0.core{c}" for c in range(12)]
    # The charged lines keep their identity, so one step's charges meet on
    # one object; the new cores start where the last reset left every line.
    assert workers[0] is first and workers[-1] is last
    assert all(w.available_at == 2.0 for w in workers)
    assert cpu.timelines() == workers and cpu.workers is workers
    one_core = CPUDevice(replace(xeon_5650(), cores=1))
    assert [t.name for t in one_core.timelines()] == ["cpu0.core0"] == [
        w.name for w in one_core.workers
    ]


def test_partition_time_rejects_negative(cpu):
    w = WorkModel(name="c", flops_per_elem=1, bytes_per_elem=1)
    with pytest.raises(ValidationError):
        cpu.partition_time(w, -1)
