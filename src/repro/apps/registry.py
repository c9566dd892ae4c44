"""The app registry: every runnable application, loaded on first use.

One table serves the ``repro run|profile|submit`` CLI, the job service's
spec validation, and the one function that runs a spec
(:func:`repro.serve.spec.execute_job`).  A row only *names* the
app's module, config class and quick-scale config arguments; the module is
imported the first time the entry is looked up, so a process that runs
heat3d jobs never loads the molecular-dynamics apps (or the neighbour
search their edge lists need).

The paper's hand-written MPI and CUDA baselines are rows too
(``kmeans-mpi`` ... ``sobel-cuda``): each runs its own module's ``run`` on
its framework app's config class and quick kwargs, and declares the one
device mix it runs, the most nodes it takes and whether it runs a rank
per core, which :meth:`AppEntry.check` and ``JobSpec.ranks`` read.

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

from repro.util.errors import ValidationError

if TYPE_CHECKING:
    from repro.apps.common import AppRun


@dataclass(frozen=True)
class AppEntry:
    """A loaded app: its ``run`` function and how to build its config."""

    run: Callable[..., "AppRun"]
    config_type: type
    quick_kwargs: Mapping[str, Any]
    #: The device mixes ``run`` accepts (None: every mix).
    mixes: tuple[str, ...] | None = None
    #: The most nodes ``run`` takes (None: any number).
    max_nodes: int | None = None
    #: ``run`` starts one rank per core, not one per node.
    rank_per_core: bool = False

    def quick_config(self) -> Any:
        """The CI-sized config (``config_type()`` is the paper-sized one)."""
        return self.config_type(**self.quick_kwargs)

    def check(self, name: str, nodes: int, mix: Any) -> None:
        """Raise :class:`ValidationError` unless ``run`` takes ``nodes`` and ``mix``."""
        if self.mixes is not None and mix not in self.mixes:
            raise ValidationError(f"{name} runs only mix {' or '.join(self.mixes)}, not {mix!r}")
        if self.max_nodes is not None and nodes > self.max_nodes:
            raise ValidationError(f"{name} runs on at most {self.max_nodes} node(s), not {nodes}")


class AppRegistry(Mapping[str, AppEntry]):
    """``{name: AppEntry}`` whose entries are imported on first lookup."""

    def __init__(self, declared: Mapping[str, tuple]):
        """``declared``: name -> ``(module, config class, quick kwargs[, limits])``.

        The config class is a name in ``module`` or a dotted path into
        another one; ``limits`` are :class:`AppEntry`'s ``mixes``,
        ``max_nodes`` and ``rank_per_core``.
        """
        self._declared = dict(declared)
        self._loaded: dict[str, AppEntry] = {}

    def __getitem__(self, name: str) -> AppEntry:
        entry = self._loaded.get(name)
        if entry is None:
            module_name, config_name, quick_kwargs, *limits = self._declared[name]
            module = import_module(module_name)
            owner, _, config_name = config_name.rpartition(".")
            config_type = getattr(import_module(owner) if owner else module, config_name)
            entry = AppEntry(module.run, config_type, quick_kwargs, **(limits[0] if limits else {}))
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
_FRAMEWORK = {
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


def _baseline(module: str, app: str, **limits: Any) -> tuple:
    """A hand-written baseline's row: its module's ``run`` on ``app``'s config."""
    app_module, config_name, quick_kwargs = _FRAMEWORK[app]
    return (f"repro.apps.baselines.{module}", f"{app_module}.{config_name}", quick_kwargs, limits)


#: The MPI baselines run only CPU cores; kmeans, sobel and heat3d one rank per core.
_MPI = {"mixes": ("cpu",)}
#: The CUDA baselines run one GPU of one node.
_CUDA = {"mixes": ("1gpu",), "max_nodes": 1}

APPS = AppRegistry(
    {
        **_FRAMEWORK,
        "kmeans-mpi": _baseline("mpi_kmeans", "kmeans", **_MPI, rank_per_core=True),
        "minimd-mpi": _baseline("mpi_minimd", "minimd", **_MPI),
        "sobel-mpi": _baseline("mpi_sobel", "sobel", **_MPI, rank_per_core=True),
        "heat3d-mpi": _baseline("mpi_heat3d", "heat3d", **_MPI, rank_per_core=True),
        "kmeans-cuda": _baseline("cuda_kmeans", "kmeans", **_CUDA),
        "sobel-cuda": _baseline("cuda_sobel", "sobel", **_CUDA),
    }
)
