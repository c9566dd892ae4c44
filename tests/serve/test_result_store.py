"""The persistent result store: atomicity, corruption, code stamps.

The store is the durable tier under the LRU — these tests poke exactly
the ways a shared on-disk cache goes wrong: truncated/corrupt entries,
concurrent writers racing on one key, entries written by other code, and
stale temp files.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

from repro.serve.cache import ResultCache
from repro.serve.store import ResultStore, code_stamp, default_store_root
from repro.util.errors import ValidationError

KEY = "ab" * 32  # a plausible sha256 hex digest
KEY2 = "cd" * 32


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


def test_roundtrip_and_layout(store):
    payload = {"makespan": 1.5, "metrics": {"iters": 3}}
    store.put(KEY, payload)
    assert store.get(KEY) == payload
    assert KEY in store and len(store) == 1
    # fan-out layout: results/<first 2 hex chars>/<key>.json
    path = store.path_for(KEY)
    assert path.parent.name == KEY[:2] and path.name == f"{KEY}.json"
    on_disk = json.loads(path.read_text())
    assert on_disk["code"] == code_stamp() and on_disk["key"] == KEY


def test_get_missing_is_a_miss(store):
    assert store.get(KEY) is None
    assert store.stats()["misses"] == 1 and store.stats()["hits"] == 0


def test_bad_keys_rejected(store):
    for bad in ("", "xyz", "ABC/..", "../../" + "a" * 60, "g" * 64):
        with pytest.raises(ValidationError):
            store.put(bad, {})
        with pytest.raises(ValidationError):
            store.get(bad)


def test_corrupt_entry_skipped_and_rewritten(store):
    store.put(KEY, {"makespan": 1.0})
    store.path_for(KEY).write_text("{not json", encoding="utf-8")
    assert store.get(KEY) is None  # miss, not a crash
    assert store.stats()["corrupt_dropped"] == 1
    assert not store.path_for(KEY).exists()  # dropped so a re-run rewrites it
    store.put(KEY, {"makespan": 2.0})
    assert store.get(KEY) == {"makespan": 2.0}


def test_truncated_entry_skipped(store):
    store.put(KEY, {"makespan": 1.0, "metrics": {"a": 1}})
    path = store.path_for(KEY)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2], encoding="utf-8")
    assert store.get(KEY) is None
    assert store.stats()["corrupt_dropped"] == 1


def test_wrong_key_entry_dropped(store):
    store.put(KEY, {"makespan": 1.0})
    body = json.loads(store.path_for(KEY).read_text())
    body["key"] = KEY2  # entry claims to be someone else's result
    store.path_for(KEY).write_text(json.dumps(body), encoding="utf-8")
    assert store.get(KEY) is None
    assert store.stats()["corrupt_dropped"] == 1


def test_foreign_code_stamp_is_stale_but_kept(store):
    store.put(KEY, {"makespan": 1.0})
    store.put(KEY2, {"makespan": 2.0})
    foreign = json.loads(store.path_for(KEY).read_text())
    foreign["code"] = "0" * 64  # written by other code
    store.path_for(KEY).write_text(json.dumps(foreign), encoding="utf-8")
    unstamped = json.loads(store.path_for(KEY2).read_text())
    del unstamped["code"]  # what a schema-numbered store wrote
    unstamped["schema"] = 1
    store.path_for(KEY2).write_text(json.dumps(unstamped), encoding="utf-8")
    assert KEY not in store and KEY2 not in store
    assert store.get(KEY) is None and store.get(KEY2) is None
    stats = store.stats()
    assert stats["stale"] == 2 and stats["corrupt_dropped"] == 0
    # Never destroy another version's data.
    assert store.path_for(KEY).exists() and store.path_for(KEY2).exists()


def test_concurrent_writers_leave_one_valid_entry(store):
    """N threads racing one key: last atomic replace wins, file never torn."""
    errors: list[Exception] = []

    def write(i: int) -> None:
        try:
            store.put(KEY, {"makespan": float(i), "blob": "x" * 4096})
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    got = store.get(KEY)
    assert got is not None and got["blob"] == "x" * 4096  # intact, some winner
    assert store.stats()["corrupt_dropped"] == 0
    # atomic tempfile+rename leaves no droppings behind
    leftovers = [p for p in store.path_for(KEY).parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_keys_len_clear(store):
    store.put(KEY, {"a": 1})
    store.put(KEY2, {"b": 2})
    assert sorted(store.keys()) == sorted([KEY, KEY2])
    store.clear()
    assert len(store) == 0 and store.get(KEY) is None


def test_default_store_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
    assert default_store_root() == tmp_path / "envstore"
    monkeypatch.delenv("REPRO_STORE")
    assert default_store_root().name == "results"


# ------------------------------------------------- cache+store layering
def test_cache_miss_falls_through_to_store(tmp_path):
    store = ResultStore(tmp_path)
    warm = ResultCache(4, store=store)
    warm.put(KEY, {"makespan": 9.0})
    cold = ResultCache(4, store=store)  # fresh LRU, same disk
    assert cold.get(KEY) == {"makespan": 9.0}
    stats = cold.stats()
    assert stats["store_hits"] == 1
    assert cold.get(KEY) == {"makespan": 9.0}  # promoted: now a memory hit
    assert cold.stats()["store_hits"] == 1 and cold.stats()["hits"] >= 1


def test_cache_clear_keeps_store(tmp_path):
    cache = ResultCache(4, store=ResultStore(tmp_path))
    cache.put(KEY, {"makespan": 1.0})
    cache.clear()
    assert cache.get(KEY) == {"makespan": 1.0}  # served from disk


def test_cache_eviction_does_not_erase_store(tmp_path):
    store = ResultStore(tmp_path)
    cache = ResultCache(1, store=store)
    cache.put(KEY, {"a": 1})
    cache.put(KEY2, {"b": 2})  # evicts KEY from memory
    assert cache.get(KEY) == {"a": 1}  # disk still has it


# ------------------------------------------------- a stamp per code version
#: One process of the two-process test: probe the store for the point with
#: a throw-away ``ResultStore``, then run the one-point kmeans campaign over
#: it and run the same spec directly.  Prints one JSON line.
_ONE_KMEANS_POINT = """
import json, sys
from repro.campaign import CampaignRunner, CampaignSpec
from repro.serve.spec import run_spec
from repro.serve.store import ResultStore

campaign = CampaignSpec.from_dict({
    "name": "stamp",
    "axes": {"app": "kmeans", "preset": "ohio", "mix": "cpu+2gpu", "nodes": 2, "seed": 0},
    "app_params": {"kmeans": {"functional_points": 2000, "n_points": 2000000}},
})
(spec,) = campaign.expand()
probe = ResultStore(sys.argv[1])
missed = probe.get(spec.content_hash()) is None
path = probe.path_for(spec.content_hash())
kept = json.loads(path.read_text())["code"] if path.is_file() else None
store = ResultStore(sys.argv[1])
result = CampaignRunner(campaign, store=store).run()
direct, _ = run_spec(spec)
print(json.dumps({
    "probe_missed": missed,
    "probe": probe.stats(),
    "kept": kept,
    "path": str(path),
    "campaign": result.rows[0]["makespan"],
    "direct": direct.makespan,
    "executed": result.stats["executed"],
    "store": store.stats(),
}))
"""


def test_a_result_stored_by_other_code_is_re_executed(tmp_path):
    """Served == direct across a code change: the second process runs a
    copy of the package whose chunk dispatch costs 10x, so its stored
    answer from the first process is stale and must not be served."""
    package = Path(repro.__file__).parent
    mutant = tmp_path / "mutant"
    shutil.copytree(package, mutant / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    scheduler = mutant / "repro" / "core" / "scheduler.py"
    text, line = scheduler.read_text(), "\nDISPATCH_OVERHEAD = 0.3e-6\n"
    assert line in text
    scheduler.write_text(text.replace(line, line.replace("0.3e-6", "3e-6")))
    root = tmp_path / "store"

    def run(pythonpath: Path) -> dict:
        env = {**os.environ, "PYTHONPATH": str(pythonpath)}
        out = subprocess.run(
            [sys.executable, "-c", _ONE_KMEANS_POINT, str(root)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        return json.loads(out.stdout.splitlines()[-1])

    first = run(package.parent)
    assert first["probe_missed"] and first["executed"] == 1
    assert first["campaign"] == first["direct"]
    old_entry = json.loads(Path(first["path"]).read_text())

    second = run(mutant)
    assert second["direct"] != first["direct"]  # the mutant moves physics
    # The old entry was a stale miss, left on disk ...
    assert second["probe_missed"] and second["kept"] == old_entry["code"]
    assert second["probe"]["stale"] == 1 and second["probe"]["corrupt_dropped"] == 0
    # ... so the campaign re-executed and answers what the code now says.
    assert second["store"]["stale"] == 1 and second["store"]["hits"] == 0
    assert second["executed"] == 1 and second["campaign"] == second["direct"]
    new_entry = json.loads(Path(second["path"]).read_text())
    assert new_entry["code"] != old_entry["code"]
    assert new_entry["payload"]["makespan"] == second["direct"]
