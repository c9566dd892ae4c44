"""Calibration of GPU efficiencies against the paper's measured ratios.

The only numbers this reproduction takes from the paper as *inputs* are the
single-node device speed ratios it reports in §IV-C (e.g. "For Kmeans, the
GPU is [...] times faster than 12-core CPU"; Sobel's is read off Table II's
perfect speedups), each app's ``PAPER_GPU_CPU_RATIO``.  Those ratios
pin each kernel's GPU efficiency, which we cannot derive from first
principles without the authors' CUDA code.  Everything downstream —
multi-device speedups, scheduling overheads, communication costs,
optimization deltas — is produced by the simulator.

:func:`calibrate_gpu_ratio` solves for the efficiency scaling analytically
using the *same* device cost methods the runtimes use, so the calibrated
model is exact by construction (verified by tests in
``tests/apps/test_calibration.py``).
"""

from __future__ import annotations

from repro.cluster.specs import NodeSpec
from repro.device.cpu import CPUDevice
from repro.device.gpu import GPUDevice
from repro.device.work import WorkModel
from repro.util.errors import ConfigurationError, ValidationError


def gpu_effective_elem_time(
    work: WorkModel,
    gpu: GPUDevice,
    *,
    localized: bool = True,
    streaming: bool = False,
    streams: int = 2,
) -> float:
    """Steady-state per-element time on one GPU.

    With ``streaming`` (generalized reductions), each scheduler chunk is
    split into ``streams`` blocks whose host→device copies pipeline against
    kernels, but the controller fetches the next chunk only when both
    streams finish (paper §III-D).  For per-element kernel time ``k`` and
    copy time ``c`` the chunk critical path is ``c/s + k`` when kernels
    dominate and ``c + k/s`` when copies dominate.
    """
    kernel = gpu.elem_time(work, localized=localized, framework=True)
    if not streaming or work.transfer_bytes_per_elem == 0:
        return kernel
    transfer = work.transfer_bytes_per_elem / gpu.spec.pcie_bandwidth
    if kernel >= transfer:
        return kernel + transfer / streams
    return transfer + kernel / streams


def calibrate_gpu_ratio(
    work: WorkModel,
    node: NodeSpec,
    target_ratio: float,
    *,
    streaming: bool = False,
    gpu_overhead_per_elem: float = 0.0,
) -> WorkModel:
    """Scale the GPU efficiencies of ``work`` so the device ratio hits target.

    Both devices are costed with reduction localization on, as the paper's
    measured ratios were.

    ``gpu_overhead_per_elem`` charges fixed per-element time the runtime
    spends outside the kernel (e.g. the per-step node-data re-upload of
    irregular reductions, amortized per edge) so the *measured* device
    ratio, overheads included, lands on the paper's number.

    Solves ``cpu_elem_time / gpu_effective_elem_time == target_ratio`` for
    a common multiplier on ``gpu_efficiency`` and ``gpu_mem_efficiency``
    (the roofline max scales as 1/multiplier; atomic and transfer terms are
    fixed).  Raises if the target is unreachable — e.g. the PCIe streaming
    floor or the atomic cost alone already exceeds the required time, or
    the required efficiency would exceed 1.0 (the kernel would need to beat
    datasheet peak, meaning the declared flops/bytes are off).
    """
    if target_ratio <= 0:
        raise ValidationError(f"target_ratio must be > 0, got {target_ratio}")
    if not node.gpus:
        raise ConfigurationError("node has no GPUs to calibrate against")
    cpu = CPUDevice(node.cpu)
    gpu = GPUDevice(node.gpus[0])

    cpu_t = cpu.elem_time(work, framework=True)
    target_t = cpu_t / target_ratio - gpu_overhead_per_elem
    if target_t <= 0:
        raise ConfigurationError(
            f"target ratio {target_ratio} unreachable: per-element GPU overhead "
            f"{gpu_overhead_per_elem:.3e}s already exceeds the required time"
        )

    streams = 2
    transfer = (
        work.transfer_bytes_per_elem / gpu.spec.pcie_bandwidth if streaming else 0.0
    )
    if transfer > target_t * (1 + 1e-9):
        raise ConfigurationError(
            f"target ratio {target_ratio} unreachable: PCIe streaming floor "
            f"{transfer:.3e}s/elem exceeds required {target_t:.3e}s/elem"
        )
    # Invert the chunk-pipeline formula: effective = kernel + transfer/streams
    # (kernel-dominant branch; validated below).
    if transfer > 0:
        kernel_target = target_t - transfer / streams
        if kernel_target < transfer:
            # Copy-dominant branch: effective = transfer + kernel/streams.
            kernel_target = (target_t - transfer) * streams
            if kernel_target <= 0:
                raise ConfigurationError(
                    f"target ratio {target_ratio} unreachable: PCIe-bound even "
                    f"with an instant kernel ({work.name!r})"
                )
        target_t = kernel_target

    # Required *roofline* time: the kernel minus its fixed atomic cost.
    from repro.device.costmodel import atomic_cost_per_insert

    atomic = (
        work.atomics_per_elem
        * atomic_cost_per_insert(
            "gpu", work.num_reduction_keys or 1, localized=True, gpu=gpu.spec
        )
        if work.atomics_per_elem > 0
        else 0.0
    )
    if atomic > target_t * (1 + 1e-9):
        raise ConfigurationError(
            f"target ratio {target_ratio} unreachable: atomic cost "
            f"{atomic:.3e}s/elem exceeds required {target_t:.3e}s/elem"
        )
    roofline_needed = max(target_t - atomic, 1e-30)

    # Solve each roofline term for the efficiency that makes it exactly hit
    # the needed time; the slower (larger-needed-efficiency) term binds, the
    # other saturates at that time too (a tight roofline corner) unless its
    # requirement exceeds 1.0 — then it binds *below* the needed time and is
    # simply left at 1.0... which would make the kernel too fast, so instead
    # we require the binding term's efficiency to be feasible and pin the
    # non-binding term at the same time (capped at 1.0; a faster
    # non-binding term cannot slow the max() down, so capping is safe only
    # for the non-binding side).
    flops = work.flops_per_elem + work.gpu_overhead_flops
    need_comp_eff = flops / (roofline_needed * gpu.spec.flops) if flops > 0 else 0.0
    need_mem_eff = (
        work.bytes_per_elem / (roofline_needed * gpu.spec.mem_bandwidth)
        if work.bytes_per_elem > 0
        else 0.0
    )
    if need_comp_eff > 1.0 + 1e-9 and need_mem_eff > 1.0 + 1e-9:
        raise ConfigurationError(
            f"calibration for ratio {target_ratio} needs efficiencies "
            f"(compute {need_comp_eff:.3f}, memory {need_mem_eff:.3f}) > 1.0; "
            f"lower the declared flops/bytes or the CPU efficiency of {work.name!r}"
        )
    if max(need_comp_eff, need_mem_eff) < 1e-12:
        raise ConfigurationError(
            f"work model {work.name!r} declares no GPU roofline work to calibrate"
        )
    # At least one term must land exactly on roofline_needed: pick the term
    # whose requirement is feasible (<= 1) and largest; set the other to its
    # own requirement when feasible (keeping the corner tight) or 1.0.
    comp_eff = min(1.0, need_comp_eff) if need_comp_eff > 0 else work.gpu_efficiency
    mem_eff = min(1.0, need_mem_eff) if need_mem_eff > 0 else work.gpu_mem_efficiency
    if need_comp_eff > 1.0:
        comp_eff = 1.0  # compute runs at peak; memory term must carry the time
        if need_mem_eff > 1.0 or need_mem_eff <= 0:
            raise ConfigurationError(
                f"cannot realize ratio {target_ratio} for {work.name!r}"
            )
    if need_mem_eff > 1.0:
        mem_eff = 1.0  # memory at peak; compute term must carry the time
        if need_comp_eff > 1.0 or need_comp_eff <= 0:
            raise ConfigurationError(
                f"cannot realize ratio {target_ratio} for {work.name!r}"
            )
    return work.replace(gpu_efficiency=comp_eff, gpu_mem_efficiency=mem_eff)
