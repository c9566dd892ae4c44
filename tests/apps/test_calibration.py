"""Calibration: the simulated device ratios must hit the paper's numbers."""

import pytest

from repro.apps import heat3d, kmeans, minimd, moldyn, sobel
from repro.apps.calibrate import calibrate_gpu_ratio, gpu_effective_elem_time
from repro.cluster.presets import ohio_cluster
from repro.device.cpu import CPUDevice
from repro.device.gpu import GPUDevice
from repro.device.work import WorkModel
from repro.util.errors import ConfigurationError, ValidationError

NODE = ohio_cluster(1).node


def _ratio(work, *, streaming=False):
    """GPU : 12-core-CPU speed ratio, from the device cost methods the
    runtimes charge."""
    cpu_t = CPUDevice(NODE.cpu).elem_time(work, framework=True)
    return cpu_t / gpu_effective_elem_time(work, GPUDevice(NODE.gpus[0]), streaming=streaming)


def test_kmeans_ratio_calibrated():
    w = kmeans.make_work(kmeans.KmeansConfig(), NODE)
    ratio = _ratio(w, streaming=True)
    assert ratio == pytest.approx(kmeans.PAPER_GPU_CPU_RATIO, rel=1e-3)


def test_heat3d_ratio_calibrated():
    ratio = _ratio(heat3d.make_work(NODE))
    assert ratio == pytest.approx(heat3d.PAPER_GPU_CPU_RATIO, rel=1e-3)


def test_sobel_ratio_calibrated():
    ratio = _ratio(sobel.make_work(NODE))
    assert ratio == pytest.approx(sobel.PAPER_GPU_CPU_RATIO, rel=1e-3)


def test_moldyn_ratio_includes_upload_overhead():
    cfg = moldyn.MoldynConfig()
    w = moldyn.make_cf_work(NODE, cfg)
    upload = moldyn.DEVICE_NODE_BYTES * cfg.n_nodes / (cfg.n_edges * NODE.gpus[0].pcie_bandwidth)
    gpu = GPUDevice(NODE.gpus[0])

    cpu_t = CPUDevice(NODE.cpu).elem_time(w)
    gpu_t = gpu.elem_time(w) + upload
    assert cpu_t / gpu_t == pytest.approx(moldyn.PAPER_GPU_CPU_RATIO, rel=1e-3)


def test_minimd_ratio_includes_upload_overhead():
    cfg = minimd.MiniMDConfig()
    w = minimd.make_force_work(NODE, cfg)
    upload = minimd.DEVICE_NODE_BYTES * cfg.n_atoms / (cfg.n_edges * NODE.gpus[0].pcie_bandwidth)
    gpu = GPUDevice(NODE.gpus[0])

    cpu_t = CPUDevice(NODE.cpu).elem_time(w)
    ratio = cpu_t / (gpu.elem_time(w) + upload)
    assert ratio == pytest.approx(minimd.PAPER_GPU_CPU_RATIO, rel=1e-3)


def test_cpu_only_node_returns_base_work():
    bare = ohio_cluster(1, gpus_per_node=0).node
    w = kmeans.make_work(kmeans.KmeansConfig(), bare)
    assert w.gpu_efficiency == kmeans.base_work(kmeans.KmeansConfig()).gpu_efficiency


def test_unreachable_ratio_raises():
    w = WorkModel(name="t", flops_per_elem=10, bytes_per_elem=8, cpu_efficiency=0.9)
    with pytest.raises(ConfigurationError):
        calibrate_gpu_ratio(w, NODE, 1e6)  # would need efficiency >> 1


def test_pcie_floor_detected():
    w = WorkModel(
        name="t", flops_per_elem=10, bytes_per_elem=8, cpu_efficiency=0.9,
        transfer_bytes_per_elem=1e6,
    )
    with pytest.raises(ConfigurationError, match="PCIe"):
        calibrate_gpu_ratio(w, NODE, 100.0, streaming=True)


def test_bad_target_ratio():
    w = WorkModel(name="t", flops_per_elem=10, bytes_per_elem=8)
    with pytest.raises(ValidationError):
        calibrate_gpu_ratio(w, NODE, 0)


def test_streaming_effective_time_branches():
    gpu = GPUDevice(NODE.gpus[0])
    # Kernel-dominant: effective = kernel + transfer/2.
    w = WorkModel(
        name="k", flops_per_elem=5150, bytes_per_elem=1, gpu_efficiency=1.0,
        transfer_bytes_per_elem=8.0,
    )
    kernel = gpu.elem_time(w)
    transfer = 8.0 / gpu.spec.pcie_bandwidth
    assert gpu_effective_elem_time(w, gpu, streaming=True) == pytest.approx(
        kernel + transfer / 2
    )
    # Copy-dominant: effective = transfer + kernel/2.
    w2 = w.replace(flops_per_elem=51.5)
    kernel2 = gpu.elem_time(w2)
    assert gpu_effective_elem_time(w2, gpu, streaming=True) == pytest.approx(
        transfer + kernel2 / 2
    )
    # Non-streaming ignores transfers entirely.
    assert gpu_effective_elem_time(w, gpu, streaming=False) == pytest.approx(kernel)
