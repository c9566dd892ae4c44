"""Runtime environment: device team construction and runtime factories.

Mirrors the paper's Listing 2: one :class:`RuntimeEnv` per process wraps
the rank context, builds the device team (CPU cores and/or GPUs according
to a :class:`DeviceConfig`), and hands out pattern runtime instances
(``env.get_GR()``, ``env.get_IR()``, ``env.get_stencil()``).  A runtime
instance may be reused for multiple kernels of the same pattern by
resetting its configuration, exactly as in the paper's Moldyn example.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.base import Device
from repro.device.cpu import CPUDevice
from repro.device.gpu import GPUDevice
from repro.sim.engine import RankContext
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class DeviceConfig:
    """Which of a node's execution resources the runtime may use.

    The paper's evaluation sweeps exactly these mixes: CPU-only, 1 GPU,
    2 GPUs, CPU+1GPU, CPU+2GPU.

    Attributes:
        use_cpu: Use the node's CPU cores.
        num_gpus: GPUs to use; ``None`` means all available.
    """

    use_cpu: bool = True
    num_gpus: int | None = None


#: Named device mixes used throughout the evaluation.
DEVICE_MIXES: dict[str, DeviceConfig] = {
    "cpu": DeviceConfig(use_cpu=True, num_gpus=0),
    "1gpu": DeviceConfig(use_cpu=False, num_gpus=1),
    "2gpu": DeviceConfig(use_cpu=False, num_gpus=2),
    "cpu+1gpu": DeviceConfig(use_cpu=True, num_gpus=1),
    "cpu+2gpu": DeviceConfig(use_cpu=True, num_gpus=2),
}


class RuntimeEnv:
    """Per-process runtime environment (paper: ``Runtime_env env; env.init()``)."""

    def __init__(self, ctx: RankContext, config: DeviceConfig | str = DeviceConfig()) -> None:
        if isinstance(config, str):
            try:
                config = DEVICE_MIXES[config]
            except KeyError:
                raise ConfigurationError(
                    f"unknown device mix {config!r}; known: {sorted(DEVICE_MIXES)}"
                ) from None
        self.ctx = ctx
        self.config = config
        self.devices: list[Device] = []
        if config.use_cpu:
            self.devices.append(CPUDevice(ctx.node.cpu, index=0))
        avail = len(ctx.node.gpus)
        want = avail if config.num_gpus is None else config.num_gpus
        if want > avail:
            raise ConfigurationError(
                f"requested {want} GPUs but node {ctx.node_index} has {avail}"
            )
        for g in range(want):
            self.devices.append(GPUDevice(ctx.node.gpus[g], index=g))
        if not self.devices:
            raise ConfigurationError("device config selects no devices at all")
        for dev in self.devices:
            ctx.trace.bind_device(dev)
        self._finalized = False

    # -- convenience passthroughs --------------------------------------
    @property
    def comm(self):
        return self.ctx.comm

    @property
    def clock(self):
        return self.ctx.clock

    @property
    def trace(self):
        return self.ctx.trace

    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def nprocs(self) -> int:
        return self.ctx.size

    @property
    def cpu(self) -> CPUDevice | None:
        """The CPU device, if configured (used for host-side costs)."""
        for d in self.devices:
            if isinstance(d, CPUDevice):
                return d
        return None

    @property
    def gpus(self) -> list[GPUDevice]:
        return [d for d in self.devices if isinstance(d, GPUDevice)]

    def host_memcpy_time(self, nbytes: float) -> float:
        """Host memory copy cost, available even in GPU-only configs."""
        cpu = self.cpu
        if cpu is not None:
            return cpu.memcpy_time(nbytes)
        return 2.0 * nbytes / self.ctx.node.cpu.mem_bandwidth

    # -- runtime factories (paper: env.get_IR(), env.get_GR()) ---------
    def get_GR(self, **options):
        """A generalized-reduction runtime bound to this environment."""
        from repro.core.generalized import GeneralizedReductionRuntime

        self._check_live()
        return GeneralizedReductionRuntime(self, **options)

    def get_IR(self, **options):
        """An irregular-reduction runtime bound to this environment."""
        from repro.core.irregular import IrregularReductionRuntime

        self._check_live()
        return IrregularReductionRuntime(self, **options)

    def get_stencil(self, **options):
        """A stencil runtime bound to this environment."""
        from repro.core.stencil import StencilRuntime

        self._check_live()
        return StencilRuntime(self, **options)

    def _check_live(self) -> None:
        if self._finalized:
            raise ConfigurationError("RuntimeEnv already finalized")

    def finalize(self) -> None:
        """End-of-program hook (paper: ``env.finalize()``); idempotent."""
        self._finalized = True
