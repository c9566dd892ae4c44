"""Small argument-validation helpers used at public API boundaries.

Each helper raises :class:`repro.util.errors.ValidationError` with a message
naming the offending parameter, which keeps the call sites one-liners::

    check_positive("chunk_size", chunk_size)

A wire document (a job, a campaign, a fault-plan entry) is described once, by
its dataclass: :func:`wire_fields` reads each field's JSON kinds off its
annotation, :func:`check_document` checks a decoded document against them and
:func:`to_wire` writes one.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Mapping
from typing import Any, Callable, Iterable

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


#: The :func:`check_json` kind of each type a wire field may be annotated with.
_ANNOTATION_KINDS: dict[Any, str] = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    Mapping: "an object",
    type(None): "null",
}


def _annotation_kinds(hint: Any) -> tuple[str, ...]:
    """The :func:`check_json` kinds a field annotation admits (``X | None``
    adds null; a tuple of mappings is a list of objects)."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return tuple(kind for arg in args for kind in _annotation_kinds(arg))
    if origin is tuple and args and _annotation_kinds(args[0]) == ("an object",):
        return ("a list of objects",)
    if origin in _ANNOTATION_KINDS:
        return (_ANNOTATION_KINDS[origin],)
    raise TypeError(f"no JSON kind for the annotation {hint!r}")


@functools.cache
def wire_fields(cls: type) -> Mapping[str, tuple[str, ...]]:
    """Each constructor field of dataclass ``cls``, in declaration order, mapped
    to the :func:`check_json` kinds its annotation admits: the one description
    of a wire document's shape, which :func:`check_document` checks and
    :func:`to_wire` writes."""
    hints = typing.get_type_hints(cls)
    return types.MappingProxyType(
        {f.name: _annotation_kinds(hints[f.name]) for f in dataclasses.fields(cls) if f.init}
    )


def check_document(what: str, cls: type, data: Any) -> None:
    """Require a decoded JSON ``data`` to describe a ``cls``: an object at most
    ``MAX_JSON_DEPTH`` deep, naming only :func:`wire_fields`, every field
    without a default among them, each with a value of its kinds."""
    if not isinstance(data, Mapping):
        raise ValidationError(f"{what} must be an object, got {type(data).__name__}")
    check_json_depth(what, data)
    kinds = wire_fields(cls)
    unknown = set(data) - set(kinds)
    if unknown:
        raise ValidationError(f"unknown {what} fields {sorted(unknown)}; known: {sorted(kinds)}")
    required = [
        f.name
        for f in dataclasses.fields(cls)
        if f.init and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if not set(required) <= set(data):
        raise ValidationError(f"{what} requires {' and '.join(map(repr, required))}")
    for name, value in data.items():
        check_json(f"{what} field {name!r}", value, *kinds[name])


def to_wire(value: Any) -> Any:
    """``value`` as a fresh JSON document: a dataclass as its :func:`wire_fields`,
    mappings as dicts and tuples as lists, all the way down."""
    if dataclasses.is_dataclass(value):
        return {name: to_wire(getattr(value, name)) for name in wire_fields(type(value))}
    if isinstance(value, Mapping):
        return {k: to_wire(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_wire(v) for v in value]
    return value


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
