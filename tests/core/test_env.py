"""RuntimeEnv device-team construction."""

import pytest

from repro.core.env import DEVICE_MIXES, DeviceConfig, RuntimeEnv
from repro.core.generalized import GeneralizedReductionRuntime
from repro.core.irregular import IrregularReductionRuntime
from repro.core.stencil import StencilRuntime
from repro.device.cpu import CPUDevice
from repro.device.gpu import GPUDevice
from repro.util.errors import ConfigurationError
from tests.conftest import run_spmd


def _env_of(mix, gpus_per_node=2):
    def prog(ctx):
        env = RuntimeEnv(ctx, mix)
        return [type(d).__name__ for d in env.devices]

    return run_spmd(prog, nodes=1, gpus_per_node=gpus_per_node).values[0]


def test_named_mixes():
    assert _env_of("cpu") == ["CPUDevice"]
    assert _env_of("1gpu") == ["GPUDevice"]
    assert _env_of("2gpu") == ["GPUDevice", "GPUDevice"]
    assert _env_of("cpu+1gpu") == ["CPUDevice", "GPUDevice"]
    assert _env_of("cpu+2gpu") == ["CPUDevice", "GPUDevice", "GPUDevice"]


def test_default_uses_all():
    assert _env_of(DeviceConfig()) == ["CPUDevice", "GPUDevice", "GPUDevice"]


def test_unknown_mix_name():
    def prog(ctx):
        RuntimeEnv(ctx, "gpu-only")

    with pytest.raises(ConfigurationError, match="unknown device mix"):
        run_spmd(prog, nodes=1)


def test_too_many_gpus():
    def prog(ctx):
        RuntimeEnv(ctx, DeviceConfig(num_gpus=3))

    with pytest.raises(ConfigurationError, match="3 GPUs"):
        run_spmd(prog, nodes=1, gpus_per_node=2)


def test_empty_selection_rejected():
    def prog(ctx):
        RuntimeEnv(ctx, DeviceConfig(use_cpu=False, num_gpus=0))

    with pytest.raises(ConfigurationError, match="no devices"):
        run_spmd(prog, nodes=1)


def test_accessors_and_factories():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        assert isinstance(env.cpu, CPUDevice)
        assert len(env.gpus) == 1 and isinstance(env.gpus[0], GPUDevice)
        assert env.rank == ctx.rank and env.nprocs == ctx.size
        assert env.host_memcpy_time(1000) > 0
        assert isinstance(env.get_GR(), GeneralizedReductionRuntime)
        assert isinstance(env.get_IR(), IrregularReductionRuntime)
        assert isinstance(env.get_stencil(), StencilRuntime)
        env.finalize()
        return True

    assert run_spmd(prog, nodes=1).values[0]


def test_finalized_env_rejects_factories():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        env.finalize()
        env.get_GR()

    with pytest.raises(ConfigurationError, match="finalized"):
        run_spmd(prog, nodes=1)


def test_gpu_only_env_has_host_memcpy():
    def prog(ctx):
        env = RuntimeEnv(ctx, "1gpu")
        assert env.cpu is None
        return env.host_memcpy_time(1_000_000)

    assert run_spmd(prog, nodes=1).values[0] > 0


def test_mix_labels():
    assert set(DEVICE_MIXES) == {"cpu", "1gpu", "2gpu", "cpu+1gpu", "cpu+2gpu"}
