"""Immutable hardware specifications.

All dataclasses here are frozen: a spec is a value, shared freely between
ranks and devices.  Rates are in base SI units (bytes/s, FLOP/s, seconds);
use the constants in :mod:`repro.util.units` when constructing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ValidationError


@dataclass(frozen=True)
class CPUSpec:
    """A multi-core CPU socket group (all cores of one node).

    Attributes:
        name: Marketing name, for reports.
        cores: Number of physical cores usable by the runtime.
        core_flops: Peak double-precision FLOP/s of a single core.
        mem_bandwidth: Aggregate node memory bandwidth in bytes/s.
        cache_bytes: Last-level cache capacity in bytes (per node); used by
            the stencil cost model to decide when tiling pays off.
    """

    name: str
    cores: int
    core_flops: float
    mem_bandwidth: float
    cache_bytes: float

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValidationError(f"CPUSpec.cores must be > 0, got {self.cores}")
        for attr in ("core_flops", "mem_bandwidth", "cache_bytes"):
            if getattr(self, attr) <= 0:
                raise ValidationError(f"CPUSpec.{attr} must be > 0")

    @property
    def total_flops(self) -> float:
        """Peak FLOP/s across all cores."""
        return self.cores * self.core_flops


@dataclass(frozen=True)
class GPUSpec:
    """A discrete GPU accelerator.

    Attributes:
        name: Marketing name.
        sms: Number of streaming multiprocessors.
        flops: Peak double-precision FLOP/s for the whole device.
        mem_bandwidth: Device-memory bandwidth in bytes/s.
        shared_mem_per_sm: On-chip shared memory per SM in bytes (Fermi
            default split: 48 KiB shared + 16 KiB L1).
        device_mem: Device memory capacity in bytes.
        pcie_bandwidth: Host<->device transfer bandwidth in bytes/s.
        pcie_latency: Fixed cost of initiating one host<->device copy.
        kernel_launch_overhead: Fixed cost of one kernel launch in seconds.
        atomic_cost: Cost of one uncontended device-memory atomic (seconds).
        shared_atomic_cost: Cost of one shared-memory atomic (seconds) —
            much cheaper; this gap is what the paper's *reduction
            localization* optimization exploits.
    """

    name: str
    sms: int
    flops: float
    mem_bandwidth: float
    shared_mem_per_sm: float
    device_mem: float
    pcie_bandwidth: float
    pcie_latency: float
    kernel_launch_overhead: float
    atomic_cost: float
    shared_atomic_cost: float

    def __post_init__(self) -> None:
        for attr in (
            "sms",
            "flops",
            "mem_bandwidth",
            "shared_mem_per_sm",
            "device_mem",
            "pcie_bandwidth",
        ):
            if getattr(self, attr) <= 0:
                raise ValidationError(f"GPUSpec.{attr} must be > 0")
        for attr in ("pcie_latency", "kernel_launch_overhead", "atomic_cost", "shared_atomic_cost"):
            if getattr(self, attr) < 0:
                raise ValidationError(f"GPUSpec.{attr} must be >= 0")


@dataclass(frozen=True)
class InterconnectSpec:
    """A point-to-point link class (network fabric or intra-node memory bus).

    The LogGP-style message time used by :mod:`repro.comm` is
    ``latency + size / bandwidth`` plus per-end software overheads.
    """

    name: str
    latency: float
    bandwidth: float
    send_overhead: float = 0.0
    recv_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValidationError("InterconnectSpec.bandwidth must be > 0")
        for attr in ("latency", "send_overhead", "recv_overhead"):
            if getattr(self, attr) < 0:
                raise ValidationError(f"InterconnectSpec.{attr} must be >= 0")


@dataclass(frozen=True)
class NodeSpec:
    """One cluster node: a CPU plus zero or more GPUs.

    ``intra_link`` models process-to-process transfers *within* a node (used
    when an experiment runs one MPI rank per core, as the paper's
    hand-written baselines do).
    """

    cpu: CPUSpec
    gpus: tuple[GPUSpec, ...] = ()
    memory: float = 48e9
    intra_link: InterconnectSpec = field(
        default_factory=lambda: InterconnectSpec(
            name="shared-memory", latency=0.4e-6, bandwidth=6e9
        )
    )

    def __post_init__(self) -> None:
        if self.memory <= 0:
            raise ValidationError("NodeSpec.memory must be > 0")

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ``num_nodes`` identical nodes.

    The paper's platform is homogeneous; heterogeneity *within* a node
    (CPU vs. GPUs) is what the framework targets.
    """

    name: str
    node: NodeSpec
    num_nodes: int
    network: InterconnectSpec

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValidationError(f"ClusterSpec.num_nodes must be > 0, got {self.num_nodes}")

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.node.cpu.cores

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.node.num_gpus
