"""Content-addressed result cache: LRU policy, bounds, counters."""

import pytest

from repro.serve.cache import ResultCache
from repro.util.errors import ValidationError


def test_put_get_hit():
    cache = ResultCache(max_entries=4)
    cache.put("a", {"makespan": 1.0})
    assert cache.get("a") == {"makespan": 1.0}
    assert cache.get("b") is None
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1


def test_eviction_respects_cap():
    cache = ResultCache(max_entries=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    cache.put("c", {"v": 3})
    assert cache.stats()["size"] == 2
    assert cache.get("a") is None  # the LRU entry fell out
    assert cache.get("b") == {"v": 2} and cache.get("c") == {"v": 3}
    assert cache.stats()["evictions"] == 1


def test_hits_refresh_recency():
    cache = ResultCache(max_entries=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.get("a") == {"v": 1}  # refresh 'a'
    cache.put("c", {"v": 3})  # evicts 'b', not 'a'
    assert cache.get("a") == {"v": 1}
    assert cache.get("b") is None


def test_overwrite_same_key_does_not_evict():
    cache = ResultCache(max_entries=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    cache.put("a", {"v": 10})
    assert cache.stats()["size"] == 2
    assert cache.get("a") == {"v": 10} and cache.get("b") == {"v": 2}
    assert cache.stats()["evictions"] == 0


def test_max_entries_validation():
    with pytest.raises(ValidationError):
        ResultCache(max_entries=0)
