"""The wall-clock bench's gate: ``compare`` fails on every drift it exists to catch.

Runs ``benchmarks/bench_wallclock.py``'s ``compare`` on synthetic records
built from the committed ``BENCH_wallclock.json``; nothing is simulated.
"""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = json.loads((ROOT / "BENCH_wallclock.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "bench_wallclock", ROOT / "benchmarks" / "bench_wallclock.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _gate(record, baseline, tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    code = bench.compare(record, path)
    return code, capsys.readouterr().out


def _up_one_ulp(value):
    return math.nextafter(value, math.inf)


def test_the_committed_record_passes_its_own_gate(tmp_path, capsys):
    assert _gate(COMMITTED, COMMITTED, tmp_path, capsys) == (0, "")


def test_the_bench_runs_exactly_the_committed_cases():
    assert list(bench.ROWS) == list(COMMITTED["cases"])


@pytest.mark.parametrize(
    "name, key, drift",
    [
        ("heat3d", "makespan", _up_one_ulp),
        ("kmeans_emit", "checksum", _up_one_ulp),
        ("stencil_converge", "iterations", lambda n: n + 1),
        ("stencil_timeblock", "makespan_k1", _up_one_ulp),
        ("campaign_throughput", "warm_rerun_executed", lambda n: n + 1),
        ("campaign_throughput", "makespan", lambda spans: spans[:-1]),
    ],
)
def test_a_drifted_exact_value_fails_naming_its_case(tmp_path, capsys, name, key, drift):
    record = copy.deepcopy(COMMITTED)
    record["cases"][name][key] = drift(record["cases"][name][key])
    code, out = _gate(record, COMMITTED, tmp_path, capsys)
    assert code == 1
    assert f"FAIL {name}.{key}" in out


def test_a_missing_case_or_key_fails(tmp_path, capsys):
    record = copy.deepcopy(COMMITTED)
    del record["cases"]["kmeans_emit"]
    code, out = _gate(record, COMMITTED, tmp_path, capsys)
    assert code == 1 and "kmeans_emit" in out

    record = copy.deepcopy(COMMITTED)
    del record["cases"]["baseline_ranks"]["ranks"]
    code, out = _gate(record, COMMITTED, tmp_path, capsys)
    assert code == 1 and "FAIL baseline_ranks: keys" in out


def test_the_timed_ratio_is_gated_within_the_run_not_against_the_baseline(tmp_path, capsys):
    record = copy.deepcopy(COMMITTED)
    record["cases"]["obs_overhead"]["overhead_ratio"] = 1.04
    assert _gate(record, COMMITTED, tmp_path, capsys) == (0, "")

    record["cases"]["obs_overhead"]["overhead_ratio"] = 1.06
    code, out = _gate(record, COMMITTED, tmp_path, capsys)
    assert code == 1 and "FAIL obs_overhead" in out


@pytest.mark.parametrize(
    "name, key, bad",
    [
        ("campaign_throughput", "warm_rerun_executed", 1),
        ("cold_start", "scipy_loaded", True),
        ("cold_start", "scipy_loaded_after_moldyn", True),
    ],
)
def test_a_refreshed_baseline_cannot_forgive_a_required_value(tmp_path, capsys, name, key, bad):
    record = copy.deepcopy(COMMITTED)
    record["cases"][name][key] = bad
    code, out = _gate(record, record, tmp_path, capsys)
    assert code == 1
    assert f"FAIL {name}.{key} is {bad!r}" in out


@pytest.mark.parametrize("stamp", ["c89c9a7-dirty", "unknown"])
def test_an_unclean_baseline_stamp_fails(tmp_path, capsys, stamp):
    baseline = {**COMMITTED, "git": stamp}
    code, out = _gate(COMMITTED, baseline, tmp_path, capsys)
    assert code == 1 and "FAIL baseline provenance" in out
