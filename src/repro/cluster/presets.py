"""Hardware presets, including the paper's evaluation platform.

The paper (§IV): *"a CPU-GPU cluster, which consists of 32 nodes, with each
node having a 12 core Intel Xeon 5650 CPU and 2 NVIDIA M2070 GPUs (thus, 64
GPUs in all). Each node has a system memory of 47 GB, and each GPU has a
device memory of 6 GB"*, connected by InfiniBand (MVAPICH2).

Peak numbers below come from vendor datasheets; the software-visible
efficiency factors live with each application's work model, not here.
"""

from __future__ import annotations

from repro.cluster.specs import (
    CPUSpec,
    GPUSpec,
    InterconnectSpec,
    NodeSpec,
    ClusterSpec,
)
from repro.util.units import GB, GFLOPS, KIB, US


def xeon_5650() -> CPUSpec:
    """Intel Xeon X5650 pair: 2 sockets x 6 cores @ 2.66 GHz.

    Per-core DP peak = 2.66 GHz * 4 FLOP/cycle (SSE 2-wide FMA-less: 2 add +
    2 mul) = 10.64 GFLOP/s.  Node memory bandwidth = 2 sockets * 32 GB/s.
    """
    return CPUSpec(
        name="Intel Xeon 5650 (2x6 cores)",
        cores=12,
        core_flops=10.64 * GFLOPS,
        mem_bandwidth=64 * GB,
        cache_bytes=2 * 12 * 1024 * KIB,  # 2 sockets x 12 MiB L3
    )


def nvidia_m2070() -> GPUSpec:
    """NVIDIA Tesla M2070 (Fermi): 14 SMs, 515 GFLOP/s DP, 150 GB/s.

    Atomic costs reflect Fermi's well-documented gap between global-memory
    atomics (~hundreds of ns under contention) and shared-memory atomics;
    the ratio is what makes the paper's reduction-localization optimization
    profitable.
    """
    return GPUSpec(
        name="NVIDIA Tesla M2070",
        sms=14,
        flops=515 * GFLOPS,
        mem_bandwidth=150 * GB,
        shared_mem_per_sm=48 * KIB,
        device_mem=6 * GB,
        pcie_bandwidth=8 * GB,
        pcie_latency=10 * US,
        kernel_launch_overhead=7 * US,
        atomic_cost=120e-9,
        shared_atomic_cost=6e-9,
    )


def qdr_infiniband() -> InterconnectSpec:
    """QDR InfiniBand as seen by MVAPICH2: ~2 us latency, ~3.2 GB/s."""
    return InterconnectSpec(
        name="QDR InfiniBand",
        latency=2 * US,
        bandwidth=3.2 * GB,
        send_overhead=0.5 * US,
        recv_overhead=0.5 * US,
    )


def ohio_cluster(num_nodes: int = 32, gpus_per_node: int = 2) -> ClusterSpec:
    """The paper's 32-node CPU-GPU cluster (§IV), scalable for sweeps.

    Args:
        num_nodes: Number of nodes (the paper sweeps 1..32).
        gpus_per_node: GPUs per node (the paper uses 0, 1, or 2).
    """
    gpu = nvidia_m2070()
    node = NodeSpec(
        cpu=xeon_5650(),
        gpus=tuple(gpu for _ in range(gpus_per_node)),
        memory=47 * GB,
    )
    return ClusterSpec(
        name=f"ohio-{num_nodes}n-{gpus_per_node}g",
        node=node,
        num_nodes=num_nodes,
        network=qdr_infiniband(),
    )


def laptop_cluster(num_nodes: int = 2, cores: int = 4, gpus_per_node: int = 1) -> ClusterSpec:
    """A small synthetic cluster for tests and quickstart examples.

    Deliberately modest and *not* calibrated to any real machine; tests use
    it when they care about protocol behaviour rather than paper numbers.
    """
    cpu = CPUSpec(
        name="test-cpu",
        cores=cores,
        core_flops=8 * GFLOPS,
        mem_bandwidth=20 * GB,
        cache_bytes=8 * 1024 * KIB,
    )
    gpu = GPUSpec(
        name="test-gpu",
        sms=8,
        flops=200 * GFLOPS,
        mem_bandwidth=80 * GB,
        shared_mem_per_sm=48 * KIB,
        device_mem=2 * GB,
        pcie_bandwidth=6 * GB,
        pcie_latency=10 * US,
        kernel_launch_overhead=5 * US,
        atomic_cost=100e-9,
        shared_atomic_cost=5e-9,
    )
    node = NodeSpec(cpu=cpu, gpus=tuple(gpu for _ in range(gpus_per_node)), memory=16 * GB)
    network = InterconnectSpec(name="test-net", latency=5 * US, bandwidth=1 * GB)
    return ClusterSpec(
        name=f"laptop-{num_nodes}n", node=node, num_nodes=num_nodes, network=network
    )


def latency_cluster(num_nodes: int = 2) -> ClusterSpec:
    """A latency-dominated variant of :func:`laptop_cluster`.

    Same nodes, but the network has a high per-message constant (WAN-ish
    latency plus heavy send/recv overheads) and modest bandwidth — the
    regime where per-sweep halo rounds put a latency floor under stencil
    makespans and temporal blocking (``configure(time_block=...)``) pays
    off.  Used by the ``stencil_timeblock`` bench case and the
    time-block ablation.
    """
    base = laptop_cluster(num_nodes=num_nodes)
    network = InterconnectSpec(
        name="high-alpha-net",
        latency=150 * US,
        bandwidth=0.8 * GB,
        send_overhead=20 * US,
        recv_overhead=20 * US,
    )
    return ClusterSpec(
        name=f"latency-{num_nodes}n", node=base.node, num_nodes=num_nodes, network=network
    )
