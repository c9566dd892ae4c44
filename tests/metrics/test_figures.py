"""Experiment drivers (smoke + invariants at quick scale)."""

import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.registry import APPS
from repro.metrics import figures
from repro.util.errors import ValidationError

#: Every row of the simulated drivers at scale="quick", floats as repr() —
#: generated at the commit before the drivers became campaigns.
PINS = json.loads((Path(__file__).parent / "figure_pins.json").read_text())


@pytest.mark.parametrize("driver", sorted(PINS))
def test_driver_rows_are_pinned(driver):
    rows = getattr(figures, driver)("quick")
    assert [
        {k: repr(v) if isinstance(v, float) else v for k, v in row.items()} for row in rows
    ] == PINS[driver]


def test_ablations_run_each_moldyn_arm_once():
    """The adaptive-on arm goes through the registry entry, once."""
    entry, calls = APPS["moldyn"], []

    @functools.wraps(entry.run)  # JobSpec validates options against run's signature
    def counting(*args, **kwargs):
        calls.append(kwargs)
        return entry.run(*args, **kwargs)

    APPS["moldyn"] = dataclasses.replace(entry, run=counting)
    try:
        figures.ablations("quick")
    finally:
        APPS["moldyn"] = entry
    assert len(calls) == 1


def test_a_warm_sweep_reads_every_row_from_the_store(monkeypatch):
    """A second fig5 over the same store gives the same rows and runs nothing."""
    calls = []

    def counting(name, run):
        @functools.wraps(run)  # JobSpec validates options against run's signature
        def wrapped(*args, **kwargs):
            calls.append(name)
            return run(*args, **kwargs)

        return wrapped

    for name in APPS:
        entry = APPS[name]
        monkeypatch.setitem(APPS, name, dataclasses.replace(entry, run=counting(name, entry.run)))
    cold = figures.fig5_scalability("quick")
    assert "kmeans-mpi" in calls and "kmeans" in calls
    calls.clear()
    warm = figures.fig5_scalability("quick")
    assert warm == cold and calls == []


def test_importing_the_drivers_loads_no_app_or_baseline():
    probe = (
        "import sys, repro.metrics.figures; "
        "print([m for m in sys.modules if m.startswith('repro.apps.') "
        "and m != 'repro.apps.registry'])"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_table2_rows_have_all_apps():
    rows = figures.table2_intranode("quick", apps=["kmeans", "heat3d"])
    assert [r["app"] for r in rows] == ["kmeans", "heat3d"]
    for r in rows:
        assert r["actual_1gpu"] <= r["perfect_1gpu"] * 1.02
        assert r["perfect_2gpu"] == pytest.approx(1 + 2 * r["gpu_vs_cpu"], rel=1e-9)


def test_fig5_rows_structure():
    rows = figures.fig5_scalability("quick", apps=["heat3d"])
    mixes = {r["mix"] for r in rows}
    assert mixes == set(figures.FIG5_MIXES) | {"mpi-handwritten"}
    nodes = sorted({r["nodes"] for r in rows})
    assert nodes == [1, 4]
    summary = figures.fig5_summary(rows)
    assert summary[0]["app"] == "heat3d"
    assert summary[0]["cpu_scaling"] > 2.0


def test_fig5_moldyn_has_no_mpi_row():
    """The paper found no comparable hand-written MPI Moldyn."""
    rows = figures.fig5_scalability("quick", apps=["moldyn"])
    assert not any(r["mix"] == "mpi-handwritten" for r in rows)


def test_invalid_scale_rejected():
    with pytest.raises(ValidationError):
        figures.fig5_scalability("huge")


def _unpinned(value):
    """A pinned value with its ``repr()``'d float read back."""
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


@functools.cache
def quick_ledger() -> dict[str, dict]:
    """Every quick-scale claim measured on the pinned rows (and Fig. 6's line counts)."""
    rows = {d: [{k: _unpinned(v) for k, v in r.items()} for r in pins] for d, pins in PINS.items()}
    rows["fig6_code_sizes"] = figures.fig6_code_sizes()
    return {row["id"]: row for row in figures.ledger({"quick": rows})}


@pytest.mark.parametrize("claim", [c.id for c in figures.claims() if c.scale == "quick"])
def test_claim_keeps_its_declared_status(claim):
    """A change that moves a paper claim in or out of its band says so in the ledger."""
    row = quick_ledger()[claim]
    assert row["status"] == row["declared"], (
        f"{claim}: {row['declared']} -> {row['status']} "
        f"(measured {row['measured']!r}, band {row['band']})"
    )


def test_each_declared_deviation_names_one_claim():
    ids = [c.id for c in figures.claims()]
    declared = [i for keys in figures._DEVIATIONS for i in keys.split()]
    assert len(set(ids)) == len(ids)
    assert len(set(declared)) == len(declared) and set(declared) <= set(ids)
    for c in figures.claims():
        assert (c.status == "in band") == (not c.why), c
