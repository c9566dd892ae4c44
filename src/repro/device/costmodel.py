"""Shared cost-model pieces: atomic contention and shared-memory capacity.

The paper's *reduction localization* optimization (§III-E) exists because
GPU atomics serialize when many threads target few keys.  We use a queueing
model: updates to distinct keys proceed in parallel (the memory system
pipelines them), updates to the same key serialize at the base atomic
latency.  With ``K`` keys and ample threads, aggregate insert throughput is
``K_parallel / base_cost`` where ``K_parallel = min(K, lanes)`` and
``lanes`` is how many concurrent atomic pipelines the memory level offers.
The amortized per-insert cost is therefore::

    base_cost / min(num_keys, lanes)

- Few keys (Kmeans: 40 clusters) → near-full serialization at the slow
  global-atomic latency — the paper's pain case.
- Localization moves the object into shared memory (fast ``base_cost``)
  *and* gives each thread block its own object copy, so the effective cost
  collapses — exactly the mechanism §III-E describes.

CPU side: localization means per-core *private* objects (plain cached
updates); the unlocalized path is a shared object with ``lock``-prefixed
updates contended by all cores.
"""

from __future__ import annotations

from repro.cluster.specs import GPUSpec
from repro.util.errors import ValidationError

#: Cost of inserting into a per-core *private* reduction object on a CPU
#: (a plain cached read-modify-write, no bus locking).
CPU_PRIVATE_INSERT_COST = 1.5e-9

#: Base cost of a ``lock``-prefixed update to a *shared* CPU reduction
#: object (uncontended).
CPU_SHARED_ATOMIC_COST = 20e-9

#: Concurrent atomic pipelines at each memory level.
GPU_GLOBAL_ATOMIC_LANES = 64
GPU_SHARED_ATOMIC_LANES = 32


def atomic_cost_per_insert(
    device_kind: str,
    num_keys: int,
    localized: bool,
    gpu: GPUSpec | None = None,
    cpu_cores: int = 1,
) -> float:
    """Amortized seconds per reduction-object insert on one device.

    Args:
        device_kind: ``"cpu"`` or ``"gpu"``.
        num_keys: Distinct reduction keys the inserts target.
        localized: Whether the runtime applied reduction localization
            (GPU: shared-memory objects; CPU: per-core private objects).
        gpu: Required for GPU costs (supplies the base atomic rates).
        cpu_cores: Cores contending on the object in the unlocalized CPU
            case.
    """
    if num_keys <= 0:
        raise ValidationError(f"num_keys must be > 0, got {num_keys}")
    if device_kind == "cpu":
        if localized:
            return CPU_PRIVATE_INSERT_COST
        # All cores hammer one shared object; with fewer keys than cores
        # the lock/cacheline ping-pong serializes them.
        contention = max(1.0, cpu_cores / num_keys)
        return CPU_SHARED_ATOMIC_COST * contention
    if device_kind == "gpu":
        if gpu is None:
            raise ValidationError("GPU atomic cost needs a GPUSpec")
        if localized:
            return gpu.shared_atomic_cost / min(num_keys, GPU_SHARED_ATOMIC_LANES)
        return gpu.atomic_cost / min(num_keys, GPU_GLOBAL_ATOMIC_LANES)
    raise ValidationError(f"unknown device kind {device_kind!r}")


def reduction_fits_in_shared(num_keys: int, value_bytes: int, gpu: GPUSpec) -> bool:
    """Whether one reduction object fits in an SM's shared memory.

    The paper: "If reduction objects are small enough, the runtime system
    stores them in the shared memory on each SM."
    """
    if num_keys <= 0 or value_bytes <= 0:
        raise ValidationError("num_keys and value_bytes must be > 0")
    return num_keys * value_bytes <= gpu.shared_mem_per_sm


def shared_memory_partitions(num_nodes: int, reduction_elem_bytes: int, gpu: GPUSpec) -> int:
    """Number of reduction-space partitions for irregular reductions.

    Implements the paper's formula (§III-E)::

        num_parts = num_nodes / (shared_memory_size / reduction_element_size)

    i.e. each partition of the reduction space fits in shared memory.
    """
    if num_nodes <= 0 or reduction_elem_bytes <= 0:
        raise ValidationError("num_nodes and reduction_elem_bytes must be > 0")
    nodes_per_partition = max(1, int(gpu.shared_mem_per_sm // reduction_elem_bytes))
    return max(1, -(-num_nodes // nodes_per_partition))
