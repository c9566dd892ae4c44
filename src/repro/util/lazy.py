"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package that re-exports its submodules' names eagerly makes
``import pkg.one_submodule`` pay for every sibling.  With
:func:`lazy_exports` the public names keep resolving (``pkg.name``,
``from pkg import name``, ``dir(pkg)``), but a submodule is imported the
first time one of its names is looked up.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    attrs: Mapping[str, Iterable[str]] | None = None,
    submodules: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """Build ``(__all__, __getattr__, __dir__)`` for the package ``package``.

    Args:
        package: The package's ``__name__``.
        attrs: ``{submodule: names}`` — each name is fetched from
            ``package.submodule`` on first access.
        submodules: Submodules exported as modules (``pkg.kmeans``).
    """
    origin = {name: sub for sub, names in (attrs or {}).items() for name in names}
    submodules = tuple(submodules)
    exported = sorted({*origin, *submodules})

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        elif name in submodules:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # Cache on the package so __getattr__ runs once per name.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exported})

    return exported, __getattr__, __dir__
