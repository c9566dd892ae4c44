"""Shared application plumbing."""

import pytest

from repro.apps.common import (
    AppRun,
    check_functional_scale,
    extrapolate_steps,
    sequential_elem_time,
    sequential_time,
    single_core_spec,
)
from repro.cluster.presets import ohio_cluster, xeon_5650
from repro.device.cpu import CPUDevice
from repro.device.work import WorkModel
from repro.util.errors import ValidationError

WORK = WorkModel(name="w", flops_per_elem=100, bytes_per_elem=8, cpu_efficiency=0.5)


def test_single_core_spec_shares_resources():
    full = xeon_5650()
    one = single_core_spec(full)
    assert one.cores == 1
    assert one.core_flops == full.core_flops
    assert one.mem_bandwidth == pytest.approx(full.mem_bandwidth / 12)
    assert one.cache_bytes == pytest.approx(full.cache_bytes / 12)


def test_sequential_time_scales_linearly():
    node = ohio_cluster(1).node
    t1 = sequential_time(WORK, 1000, node)
    t2 = sequential_time(WORK, 2000, node)
    t3 = sequential_time(WORK, 1000, node, iterations=2)
    assert t2 == pytest.approx(2 * t1)
    assert t3 == pytest.approx(2 * t1)
    with pytest.raises(ValidationError):
        sequential_time(WORK, 0, node)


def test_sequential_elem_time_excludes_framework_overhead():
    node = ohio_cluster(1).node
    w = WORK.replace(runtime_overhead_flops=100)
    assert sequential_elem_time(w, node) == pytest.approx(
        sequential_elem_time(WORK, node)
    )
    framework = CPUDevice(single_core_spec(node.cpu)).core_elem_time(w, framework=True)
    assert framework > sequential_elem_time(w, node)


def test_extrapolate_steps():
    assert extrapolate_steps([2.0], 5) == pytest.approx(10.0)
    assert extrapolate_steps([3.0, 1.0], 10) == pytest.approx(3 + 1 + 8 * 1.0)
    assert extrapolate_steps([3.0, 2.0, 1.0], 3) == pytest.approx(6.0)
    with pytest.raises(ValidationError):
        extrapolate_steps([], 5)
    with pytest.raises(ValidationError):
        extrapolate_steps([1.0, 1.0], 1)


def test_apprun_speedup():
    run = AppRun(app="a", mix="cpu", nodes=1, makespan=2.0, seq_time=10.0)
    assert run.speedup == 5.0
    bad = AppRun(app="a", mix="cpu", nodes=1, makespan=0.0, seq_time=10.0)
    with pytest.raises(ValidationError):
        _ = bad.speedup


def test_check_functional_scale():
    check_functional_scale(10, 10, "x")
    check_functional_scale(5, 10, "x")
    with pytest.raises(ValidationError, match="x"):
        check_functional_scale(11, 10, "x")
