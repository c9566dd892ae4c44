"""The app registry: every runnable application, loaded on first use.

One table serves the ``repro run|profile|submit`` CLI, the job service's
spec validation, and the one function that runs a spec
(:func:`repro.serve.spec.run_spec`).  A row only *names* the
app's module, config class and quick-scale config arguments; the module is
imported the first time the entry is looked up, so a process that runs
heat3d jobs never loads the molecular-dynamics apps (or the neighbour
search their edge lists need).

Listing names (``sorted(APPS)``, ``name in APPS``, ``len``) imports
nothing; ``APPS[name]``, ``.values()`` and ``.items()`` load what they
return.  An entry can be replaced (``APPS[name] =
dataclasses.replace(entry, run=wrapped)``) to interpose on an app's
``run`` — the benchmark's traced server does so to time it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:
    from repro.apps.common import AppRun


@dataclass(frozen=True)
class AppEntry:
    """A loaded app: its ``run`` function and how to build its config."""

    run: Callable[..., "AppRun"]
    config_type: type
    quick_kwargs: Mapping[str, Any]

    def quick_config(self) -> Any:
        """The CI-sized config (``config_type()`` is the paper-sized one)."""
        return self.config_type(**self.quick_kwargs)


class AppRegistry(Mapping[str, AppEntry]):
    """``{name: AppEntry}`` whose entries are imported on first lookup."""

    def __init__(self, declared: Mapping[str, tuple[str, str, Mapping[str, Any]]]):
        self._declared = dict(declared)
        self._loaded: dict[str, AppEntry] = {}

    def __getitem__(self, name: str) -> AppEntry:
        entry = self._loaded.get(name)
        if entry is None:
            module_name, config_name, quick_kwargs = self._declared[name]
            module = import_module(module_name)
            entry = AppEntry(module.run, getattr(module, config_name), quick_kwargs)
            self._loaded[name] = entry
        return entry

    def __setitem__(self, name: str, entry: AppEntry) -> None:
        if name not in self._declared:
            raise KeyError(name)
        self._loaded[name] = entry

    def __contains__(self, name: object) -> bool:
        return name in self._declared  # Mapping's default would import the app

    def __iter__(self) -> Iterator[str]:
        return iter(self._declared)

    def __len__(self) -> int:
        return len(self._declared)


#: name -> (module, config class, quick-scale config kwargs).  Quick-scale
#: configs mirror the smoke benchmark sizes: every path is exercised
#: (multi-step, multi-device, adaptive repartition) but the functional
#: payloads stay small enough for CI.
APPS = AppRegistry(
    {
        "kmeans": (
            "repro.apps.kmeans",
            "KmeansConfig",
            {"functional_points": 60_000, "iterations": 1},
        ),
        "moldyn": (
            "repro.apps.moldyn",
            "MoldynConfig",
            {"functional_nodes": 4_000, "simulated_steps": 3},
        ),
        "minimd": (
            "repro.apps.minimd",
            "MiniMDConfig",
            {"functional_cells": 8, "simulated_steps": 3},
        ),
        "sobel": (
            "repro.apps.sobel",
            "SobelConfig",
            {"functional_shape": (384, 384), "simulated_steps": 3},
        ),
        "heat3d": (
            "repro.apps.heat3d",
            "Heat3DConfig",
            {"functional_shape": (36, 36, 36), "simulated_steps": 3},
        ),
        "jacobi2d": (
            "repro.apps.extra.jacobi2d",
            "Jacobi2DConfig",
            {"shape": (32, 32), "tol": 1e-3, "max_iters": 60},
        ),
    }
)
