"""Small argument-validation helpers used at public API boundaries.

Each helper raises :class:`repro.util.errors.ValidationError` with a message
naming the offending parameter, which keeps the call sites one-liners::

    check_positive("chunk_size", chunk_size)
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.util.errors import ValidationError

#: The shapes :func:`check_json` tells apart in a decoded JSON document.
_JSON_KINDS: dict[str, Callable[[Any], bool]] = {
    "a string": lambda v: isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, Mapping),
    "a list of objects": lambda v: (
        isinstance(v, (list, tuple)) and all(isinstance(item, Mapping) for item in v)
    ),
    "null": lambda v: v is None,
}


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Require ``value >= 0``."""
    if not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Require ``lo <= value <= hi`` (inclusive both ends)."""
    if not (lo <= value <= hi):
        raise ValidationError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_type(name: str, value: Any, types: type | tuple[type, ...]) -> None:
    """Require ``isinstance(value, types)``."""
    if not isinstance(value, types):
        expected = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ValidationError(f"{name} must be {expected}, got {type(value).__name__}")


def check_json(name: str, value: Any, *kinds: str) -> None:
    """Require a decoded JSON ``value`` to be one of ``kinds`` (keys of
    ``_JSON_KINDS``); a bool is neither an integer nor a number here.

    >>> check_json("nodes", 4, "an integer")
    """
    if not any(_JSON_KINDS[kind](value) for kind in kinds):
        raise ValidationError(f"{name} must be {' or '.join(kinds)}, got {type(value).__name__}")


#: Deepest nesting :func:`check_json_depth` accepts: far beyond any spec
#: document, far short of what would exhaust the recursion of the code that
#: copies and hashes one.
MAX_JSON_DEPTH = 32


def check_json_depth(name: str, value: Any) -> None:
    """Require a decoded JSON ``value`` to nest at most ``MAX_JSON_DEPTH`` deep
    (walked level by level, so the check itself never recurses).  Only dicts,
    lists and tuples nest: they are what copying and hashing recurse into."""
    level = [value]
    for _ in range(MAX_JSON_DEPTH):
        level = [
            child
            for item in level
            if isinstance(item, (dict, list, tuple))
            for child in (item.values() if isinstance(item, dict) else item)
        ]
        if not level:
            return
    raise ValidationError(f"{name} nests deeper than {MAX_JSON_DEPTH} levels")


def check_shape(name: str, array: np.ndarray, shape: Iterable[int | None]) -> None:
    """Require the array shape to match ``shape`` (``None`` = any extent).

    >>> check_shape("edges", np.zeros((5, 2)), (None, 2))
    """
    shape = tuple(shape)
    if array.ndim != len(shape):
        raise ValidationError(f"{name} must be {len(shape)}-D, got {array.ndim}-D")
    for axis, want in enumerate(shape):
        if want is not None and array.shape[axis] != want:
            raise ValidationError(
                f"{name} axis {axis} must have extent {want}, got {array.shape[axis]}"
            )
