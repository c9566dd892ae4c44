"""Hardware spec dataclasses."""

import pytest

from repro.cluster.presets import nvidia_m2070, qdr_infiniband, xeon_5650
from repro.cluster.specs import ClusterSpec, CPUSpec, InterconnectSpec, NodeSpec
from repro.util.errors import ValidationError
from repro.util.units import GB, GFLOPS, KIB


def _cpu(**kw):
    base = dict(name="c", cores=4, core_flops=8 * GFLOPS, mem_bandwidth=20 * GB, cache_bytes=8 * 1024 * KIB)
    base.update(kw)
    return CPUSpec(**base)


def test_cpu_total_flops():
    assert _cpu().total_flops == pytest.approx(32 * GFLOPS)


@pytest.mark.parametrize("field,value", [("cores", 0), ("core_flops", 0), ("mem_bandwidth", -1)])
def test_cpu_validation(field, value):
    with pytest.raises(ValidationError):
        _cpu(**{field: value})


def test_gpu_validation():
    gpu = nvidia_m2070()
    assert gpu.sms == 14
    with pytest.raises(ValidationError):
        type(gpu)(**{**gpu.__dict__, "pcie_bandwidth": 0})


def test_interconnect_validation():
    with pytest.raises(ValidationError):
        InterconnectSpec(name="l", latency=-1, bandwidth=1)
    with pytest.raises(ValidationError):
        InterconnectSpec(name="l", latency=0, bandwidth=0)


def test_node_defaults_and_gpu_count():
    node = NodeSpec(cpu=_cpu(), gpus=(nvidia_m2070(),) * 2)
    assert node.num_gpus == 2
    assert node.intra_link.name == "shared-memory"


def test_cluster_totals_and_validation():
    node = NodeSpec(cpu=_cpu(), gpus=(nvidia_m2070(),))
    cluster = ClusterSpec(name="t", node=node, num_nodes=8, network=qdr_infiniband())
    assert cluster.total_cores == 32
    assert cluster.total_gpus == 8
    with pytest.raises(ValidationError):
        ClusterSpec(name="t", node=node, num_nodes=0, network=qdr_infiniband())


def test_xeon_preset_matches_paper():
    cpu = xeon_5650()
    assert cpu.cores == 12
    assert cpu.total_flops == pytest.approx(12 * 10.64 * GFLOPS)
