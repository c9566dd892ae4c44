"""Content-addressed result cache for the job service.

Keys are :meth:`JobSpec.content_hash` digests; values are completed result
payloads (plain JSON-able dicts).  The cache is a bounded, thread-safe LRU
— hits refresh recency, inserts evict the least-recently-used entry — the
same policy the dataset memo (:func:`repro.data.memoized`) uses for inputs,
applied one level up: identical jobs return their memoized result without
re-execution, which is the whole point of a long-lived server amortizing
setup across "heavy traffic" of small jobs.

The LRU may be layered over a persistent
:class:`~repro.serve.store.ResultStore`: a miss falls through to disk
(promoting the entry back into memory on a hit), and every ``put`` writes
through, so results survive process restarts and are shared by every
process pointed at the same store directory.  That layering is what lets a
repeated campaign complete with **zero executions** — the in-memory LRU is
the hot tier, the store the durable one.

Cached payloads are shared, not copied: treat them as read-only (the same
contract as a delivered message payload).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.serve.store import ResultStore
from repro.util.errors import ValidationError


class ResultCache:
    """Bounded LRU mapping spec hashes to completed result payloads,
    optionally write-through to a persistent :class:`ResultStore`."""

    def __init__(
        self, max_entries: int = 128, *, store: ResultStore | None = None
    ) -> None:
        if max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._store_hits = 0

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key`` (refreshing recency), or None."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str | None]:
        """``(payload, tier)`` for ``key``: the tier that answered,
        ``"memory"`` or ``"store"``, or ``(None, None)`` on a miss.

        Memory misses fall through to the persistent store (when one is
        attached); a store hit promotes the payload into the LRU so the
        next lookup is memory-speed.
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return payload, "memory"
            self._misses += 1
        payload = None if self.store is None else self.store.get(key)
        if payload is None:
            return None, None
        with self._lock:
            self._store_hits += 1
            self._insert_locked(key, payload)
        return payload, "store"

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload`` under ``key``, evicting the LRU entry if full.

        Write-through: with a store attached the payload is also persisted
        (atomically) before the in-memory insert, so an entry the LRU later
        evicts is still one disk read away, never a re-execution.  A store
        that cannot write counts it (``write_errors``); the payload still
        lands in memory.
        """
        if self.store is not None:
            self.store.put(key, payload)
        with self._lock:
            self._insert_locked(key, payload)

    def _insert_locked(self, key: str, payload: dict[str, Any]) -> None:
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = payload
        self._entries.move_to_end(key)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = {
                "size": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "store_hits": self._store_hits,
            }
        out["store"] = None if self.store is None else self.store.stats()
        return out
