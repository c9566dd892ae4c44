"""Shared benchmark fixtures.

``REPRO_BENCH_SCALE=full`` switches the drivers to the paper-scale sweeps
(1..32 nodes, bigger functional arrays); the default ``quick`` keeps the
whole suite under a couple of minutes.  Every bench writes its table to
``benchmarks/out/`` and prints it, so the rows survive pytest's capture.
The figure drivers read and write the default result store, so each bench
gets an empty one: it times the sweep, not store reads.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def scale() -> str:
    value = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if value not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_SCALE must be quick|full, got {value!r}")
    return value


@pytest.fixture(autouse=True)
def cold_result_store(tmp_path_factory, monkeypatch):
    """Each bench times its driver cold: an empty default result store of its own."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path_factory.mktemp("store")))


@pytest.fixture(scope="session")
def report():
    """Writer that persists each benchmark's table and echoes it."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return write
