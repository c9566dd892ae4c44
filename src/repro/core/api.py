"""User-facing kernel specifications and adapters (paper Table I).

The paper's API takes per-element C function pointers; in Python the fast
path is *batched* user functions operating on NumPy slices.  Both styles
are supported:

- **Batched (recommended)**: ``emit_batch(obj, data, start, param)``
  processes ``data`` (a chunk of input units) in one vectorized call and
  inserts key/value arrays into the reduction object with
  ``obj.insert_many``.
- **Per-element (paper-faithful)**: write ``emit(obj, data, index, param)``
  exactly as in Table I and wrap it with :func:`elementwise_emit`; the
  adapter loops (slow, but semantically identical — tests use it to verify
  the batch kernels).

Reduction operators must be commutative and associative (paper §II-A);
:data:`REDUCTION_OPS` maps the supported names to their NumPy ufunc and
identity element.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.device.work import WorkModel
from repro.util.errors import ValidationError

# name -> (ufunc used for combining, identity element)
REDUCTION_OPS: dict[str, tuple[np.ufunc, float]] = {
    "sum": (np.add, 0.0),
    "prod": (np.multiply, 1.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


def resolve_op(op: str) -> tuple[np.ufunc, float]:
    """Look up a reduction op name; raises with the known names listed."""
    try:
        return REDUCTION_OPS[op]
    except KeyError:
        raise ValidationError(
            f"unknown reduction op {op!r}; supported: {sorted(REDUCTION_OPS)}"
        ) from None


# ---------------------------------------------------------------------------
# Kernel specifications
# ---------------------------------------------------------------------------
EmitBatchFn = Callable[[Any, np.ndarray, int, Any], None]
EdgeComputeBatchFn = Callable[[Any, np.ndarray, Any, np.ndarray, Any], None]
StencilApplyFn = Callable[[np.ndarray, np.ndarray, tuple, Any], None]


@dataclass(frozen=True)
class GRKernel:
    """A generalized-reduction kernel (paper: ``gr_emit_fp``/``gr_reduce_fp``).

    Attributes:
        emit_batch: ``f(obj, data, start_index, parameter)`` — processes a
            chunk of input units, inserting key/value pairs into ``obj``.
        reduce_op: Name of the combining operation applied per key.
        num_keys: Size of the (dense) key space.
        value_width: Values per key (e.g. Kmeans: 3 coordinate sums + a
            count = 4).
        work: Cost model for one input unit.
        dtype: Value dtype of the reduction object.
    """

    emit_batch: EmitBatchFn
    reduce_op: str
    num_keys: int
    value_width: int
    work: WorkModel
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def __post_init__(self) -> None:
        if self.num_keys <= 0 or self.value_width <= 0:
            raise ValidationError("num_keys and value_width must be > 0")
        resolve_op(self.reduce_op)


@dataclass(frozen=True)
class IRKernel:
    """An irregular-reduction kernel (``ir_edge_compute_fp``/``ir_node_reduce_fp``).

    Attributes:
        edge_compute_batch: ``f(obj, edges, edge_data, node_view, parameter)``
            — ``edges`` is an ``(m, 2)`` array of *local slot* indices into
            ``node_view`` (the Fig. 3 arrangement: local nodes first, then
            grouped remote nodes); the function inserts per-node updates
            keyed by slot index.  Inserts for slots outside the reduction
            object's range (remote nodes, or nodes owned by a different
            device partition) are filtered automatically — this is how the
            paper's "only the node(s) belonging to the current partition is
            updated" rule is enforced.
        reduce_op: Combining operation for node updates.
        value_width: Components per node update (e.g. 3 force components).
        work: Cost model for processing one *edge*.
    """

    edge_compute_batch: EdgeComputeBatchFn
    reduce_op: str
    value_width: int
    work: WorkModel
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def __post_init__(self) -> None:
        if self.value_width <= 0:
            raise ValidationError("value_width must be > 0")
        resolve_op(self.reduce_op)


@dataclass(frozen=True)
class StencilKernel:
    """A stencil kernel (``stencil_fp``) and the footprint it reads.

    Attributes:
        apply: ``f(src, dst, region, parameter)`` — computes
            ``dst[region]`` from the neighbourhood of ``src`` around
            ``region``.  ``src``/``dst`` are halo-padded local arrays and
            ``region`` is a tuple of slices (in padded coordinates); use
            :func:`shifted` to express neighbour accesses, which plays the
            role of the paper's ``GET_FLOAT3``-style get functions.  The
            runtime tiles every sweep: ``apply`` may be handed any axis-0
            sub-box of a sweep region, so it must be a pure function of
            the cells at ``offsets`` — never read the region's size as
            data, and never write ``src`` or a static field.
        offsets: The integer offsets, relative to each cell written, that
            ``apply`` reads from the grid and from any static field (a
            7-point heat kernel: the centre and its six face neighbours).
            :attr:`halo` and the halo exchange are derived from them.
        work: Cost model for one grid element.
    """

    apply: StencilApplyFn
    offsets: tuple[tuple[int, ...], ...]
    work: WorkModel
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def __post_init__(self) -> None:
        try:
            offsets = tuple(tuple(map(operator.index, o)) for o in self.offsets)
        except TypeError:
            offsets = ()
        if len({len(o) for o in offsets}) != 1 or not any(map(any, offsets)):
            raise ValidationError(
                "offsets must be integer tuples of one rank, not all zero; "
                f"got {self.offsets!r}"
            )
        object.__setattr__(self, "offsets", offsets)

    @functools.cached_property
    def halo(self) -> int:
        """Stencil radius: the largest |component| of any offset."""
        return max(abs(c) for offset in self.offsets for c in offset)


# ---------------------------------------------------------------------------
# Get-function equivalent
# ---------------------------------------------------------------------------
def shifted(arr: np.ndarray, region: tuple[slice, ...], offset: tuple[int, ...]) -> np.ndarray:
    """View of ``arr`` over ``region`` displaced by ``offset``.

    The vectorized analogue of the paper's ``GET_FLOAT3(buf, x+dx, y+dy)``
    macros: a 7-point Heat3D kernel reads
    ``shifted(src, region, (1, 0, 0))`` for its ``x+1`` neighbour.

    >>> a = np.arange(5.0)
    >>> shifted(a, (slice(1, 4),), (1,))
    array([2., 3., 4.])
    """
    if len(region) != arr.ndim or len(offset) != arr.ndim:
        raise ValidationError(
            f"region/offset rank must match array rank {arr.ndim}, "
            f"got {len(region)}/{len(offset)}"
        )
    out = []
    for axis, (sl, off) in enumerate(zip(region, offset)):
        start, stop = sl.start + off, sl.stop + off
        if start < 0 or stop > arr.shape[axis]:
            raise ValidationError(
                f"shifted access out of bounds on axis {axis}: [{start}:{stop}] "
                f"of extent {arr.shape[axis]} (is the halo wide enough?)"
            )
        out.append(slice(start, stop))
    return arr[tuple(out)]


# ---------------------------------------------------------------------------
# Batched reduction dispatch
# ---------------------------------------------------------------------------
def emit_keys_batch(obj: Any, keys: np.ndarray, values: np.ndarray) -> None:
    """Insert aligned ``keys``/``values`` arrays into a reduction object.

    The vectorized dispatch path for emit kernels: one call replaces
    ``len(keys)`` per-element ``obj.insert(k, v)`` calls.  ``values`` may
    be ``(n,)`` (``value_width == 1``) or ``(n, value_width)``.  Duplicate
    keys combine in input order (``np.bincount``/``np.ufunc.at``-style
    unbuffered scatter under the hood), so inserting a batch into a fresh
    object is bit-identical to the per-element loop — the compatibility
    guarantee the :func:`elementwise_emit` adapter is tested against.
    Out-of-range keys are dropped by the object's key-range filter, which
    is how the paper's ownership rule stays enforced on the batched path.
    """
    obj.insert_many(keys, values)


# ---------------------------------------------------------------------------
# Per-element adapters (paper-faithful signatures)
# ---------------------------------------------------------------------------
def elementwise_emit(fn: Callable[[Any, np.ndarray, int, Any], None]) -> EmitBatchFn:
    """Wrap a paper-style per-unit emit function into a batch function.

    ``fn(obj, data, index, parameter)`` is called once per input unit with
    the *global* index of the unit, exactly matching ``gr_emit_fp``.
    """

    def emit_batch(obj: Any, data: np.ndarray, start: int, parameter: Any) -> None:
        for i in range(len(data)):
            fn(obj, data[i], start + i, parameter)

    return emit_batch


def elementwise_edge_compute(
    fn: Callable[[Any, np.ndarray, Any, np.ndarray, Any], None],
) -> EdgeComputeBatchFn:
    """Wrap a paper-style per-edge compute function (``ir_edge_compute_fp``).

    ``fn(obj, edge, edge_data_i, node_view, parameter)`` is called once per
    edge; ``edge`` is the 2-vector of endpoint slots.
    """

    def edge_compute_batch(
        obj: Any, edges: np.ndarray, edge_data: Any, node_view: np.ndarray, parameter: Any
    ) -> None:
        for i in range(len(edges)):
            data_i = None if edge_data is None else edge_data[i]
            fn(obj, edges[i], data_i, node_view, parameter)

    return edge_compute_batch


def elementwise_stencil(
    fn: Callable[[np.ndarray, np.ndarray, tuple[int, ...], Any], None],
) -> StencilApplyFn:
    """Wrap a paper-style single-element stencil function (``stencil_fp``).

    ``fn(src, dst, offset, parameter)`` computes the output element at
    (padded) coordinate ``offset``.
    """

    def apply(src: np.ndarray, dst: np.ndarray, region: tuple, parameter: Any) -> None:
        import itertools

        for coord in itertools.product(*(range(sl.start, sl.stop) for sl in region)):
            fn(src, dst, coord, parameter)

    return apply
