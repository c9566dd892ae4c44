"""Lazy package exports and the app registry keep their public contracts.

The package ``__init__`` modules below re-export through PEP 562
``__getattr__`` (see :mod:`repro.util.lazy`); nothing about *what* they
export may change, only when it loads.  The registry half pins what the
benchmark's traced server (``benchmarks/e2e/server_child.py``) relies on.
"""

import dataclasses
import functools
import importlib

import pytest

from repro.apps.registry import APPS, AppRegistry
from repro.serve import JobSpec, execute_job
from repro.util.errors import ValidationError

LAZY_PACKAGES = [
    "repro.apps",
    "repro.apps.extra",
    "repro.comm",
    "repro.core",
    "repro.data",
    "repro.metrics",
    "repro.obs",
    "repro.serve",
]

SIX_APPS = ["heat3d", "jacobi2d", "kmeans", "minimd", "moldyn", "sobel"]


# ------------------------------------------------------------ lazy exports
@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__, package
    listed = dir(pkg)
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None, f"{package}.{name}"
        assert name in listed, f"{name} missing from dir({package})"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_from_imports_of_submodules_and_names():
    from repro.apps import AppRun, kmeans
    from repro.metrics import figures, format_table
    from repro.obs import PROFILE_APPS, RunReport

    assert kmeans.__name__ == "repro.apps.kmeans" and callable(kmeans.run)
    assert figures.__name__ == "repro.metrics.figures" and callable(format_table)
    assert dataclasses.is_dataclass(AppRun) and dataclasses.is_dataclass(RunReport)
    assert PROFILE_APPS is APPS  # one table, whatever it is imported as


# ------------------------------------------------------------ app registry
def test_listing_the_registry_imports_no_app():
    registry = AppRegistry({"ghost": ("repro.apps.no_such_module", "Config", {})})
    assert sorted(registry) == ["ghost"] and len(registry) == 1
    assert "ghost" in registry and "heat3d" not in registry
    with pytest.raises(ModuleNotFoundError):
        registry["ghost"]  # looking an entry up is what imports it
    with pytest.raises(KeyError):
        registry["heat3d"]
    with pytest.raises(KeyError):
        registry["heat3d"] = APPS["heat3d"]  # only declared apps can be replaced


def test_registry_enumerates_all_six_apps_as_dataclass_entries():
    assert sorted(APPS) == SIX_APPS
    items = dict(APPS.items())
    assert sorted(items) == SIX_APPS
    for name, entry in items.items():
        assert dataclasses.is_dataclass(entry) and not isinstance(entry, type)
        assert "run" in {f.name for f in dataclasses.fields(entry)}
        assert callable(entry.run)
        assert isinstance(entry.quick_config(), entry.config_type), name


def test_replaced_entry_is_what_validation_and_execution_use(monkeypatch):
    entry = APPS["heat3d"]
    calls = []

    @functools.wraps(entry.run)
    def wrapped(*args, **kwargs):
        calls.append(kwargs)
        return entry.run(*args, **kwargs)

    monkeypatch.setitem(APPS, "heat3d", dataclasses.replace(entry, run=wrapped))
    assert APPS["heat3d"].run is wrapped

    # Options are still validated against the app's real signature ...
    spec = JobSpec(
        app="heat3d", nodes=2, preset="laptop", mix="cpu", options={"overlap": False}
    )
    with pytest.raises(ValidationError, match="unknown heat3d options"):
        JobSpec(app="heat3d", options={"no_such_option": 1})
    # ... and the executor calls the replacement.
    payload = execute_job(spec)
    assert calls == [{"overlap": False}]
    assert payload["makespan"] > 0
