"""Reduction operators for collectives.

An operator is any callable ``combine(a, b) -> result`` that is commutative
and associative; the registry maps the conventional MPI names to NumPy
elementwise implementations that work on arrays and scalars alike.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.util.errors import ValidationError

ReduceOp = Callable[[Any, Any], Any]


def _sum(a: Any, b: Any) -> Any:
    return np.add(a, b)


def _max(a: Any, b: Any) -> Any:
    return np.maximum(a, b)


_REGISTRY: dict[str, ReduceOp] = {
    "sum": _sum,
    "max": _max,
}


def get_reduce_op(op: str | ReduceOp) -> ReduceOp:
    """Resolve an operator name or pass a callable through.

    >>> get_reduce_op("sum")(np.array([1, 2]), np.array([3, 4]))
    array([4, 6])
    """
    if callable(op):
        return op
    try:
        return _REGISTRY[op]
    except KeyError:
        raise ValidationError(
            f"unknown reduce op {op!r}; known: {sorted(_REGISTRY)} or any callable"
        ) from None
