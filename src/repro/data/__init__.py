"""Synthetic dataset generators (the paper's inputs, scaled).

The paper's datasets (a 2.3 GB point file, a 130 M-edge mesh, a 500 k-atom
box, a 32768x32768 image, a 512^3 grid) are not shippable; these generators
produce statistically similar inputs at any scale from a single seed, and
the benchmarks charge the cost model at paper scale (see
:func:`repro.device.work.scaled`).

The paper's processes each read their own slice of *one* input file.  All
generators are deterministic given their arguments, so each sits behind one
process-wide memo (:func:`memoized`): an input is generated once and every
rank, baseline and ``sequential_reference`` slices the same read-only arrays
(callers that need to write take a copy).  The runtime that knows what work
is admitted decides how long inputs live: a job scheduler empties the memo
when the last job of an admission ends (:func:`release_memo`).
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "points": ["clear_points_cache", "clustered_points", "points_cache_stats"],
        "meshes": ["geometric_mesh"],
        "atoms": ["fcc_lattice", "build_neighbor_edges"],
        "grids": ["heat3d_initial", "synthetic_image"],
    },
)

#: Entries the memo keeps while work is admitted.  A bounded *LRU* (hits
#: refresh recency, inserts evict the least-recently-used entry): a long
#: queue holds many distinct specs, and an unbounded or FIFO memo would either
#: grow with it or evict the dataset that every queued job of one sweep is
#: about to reuse.
MEMO_ENTRIES = 8

_memo: OrderedDict[tuple, Any] = OrderedDict()
_in_flight: set[tuple] = set()
_changed = threading.Condition()  # guards both; notified when a generation ends
_counters = {"hits": 0, "misses": 0, "evictions": 0}


def _arrays(value: Any) -> tuple:
    """The arrays of one memo entry (a generator returns one or a tuple)."""
    return value if isinstance(value, tuple) else (value,)


def memo_stats() -> dict[str, int]:
    """Occupancy, bytes held and hit/miss/eviction counters of the dataset memo."""
    with _changed:
        held = sum(array.nbytes for value in _memo.values() for array in _arrays(value))
        return {"size": len(_memo), "max_entries": MEMO_ENTRIES, "bytes": held, **_counters}


def clear_memo() -> None:
    """Empty the memo and zero its counters (test and benchmark hook)."""
    with _changed:
        _memo.clear()
        _counters.update(hits=0, misses=0, evictions=0)


def release_memo() -> None:
    """Drop every entry, counting each as an eviction; hits and misses stay.

    An input lives as long as the admission that brought it: the job
    scheduler calls this when an admission's last job ends and no in-process
    job is running.  A generation in flight is
    untouched and inserts its result when it finishes.
    """
    with _changed:
        _counters["evictions"] += len(_memo)
        _memo.clear()


def _key_part(value: Any) -> Any:
    """Arrays are keyed by content: dtype, shape and a digest of their bytes."""
    if isinstance(value, np.ndarray):
        digest = hashlib.blake2b(np.ascontiguousarray(value), digest_size=16).digest()
        return (value.dtype.str, value.shape, digest)
    # A shape given as a list seeds its own stream (derive_seed sees its text).
    return repr(value) if isinstance(value, list) else value


def memoized(generate: Callable) -> Callable:
    """Put a deterministic generator behind the process-wide dataset memo.

    Keyed by generator and full argument tuple; returned arrays are frozen.
    A miss is **single-flight**: a concurrent miss on the same key waits for
    the first generation (a generator never communicates, so the wait cannot
    deadlock a job), so an n-rank job costs a dataset 1 miss and n - 1 hits.
    """

    @functools.wraps(generate)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        named = kwargs.items() if len(kwargs) < 2 else sorted(kwargs.items())
        key = (
            generate,
            *[_key_part(value) for value in args],
            *[(name, _key_part(value)) for name, value in named],
        )
        with _changed:
            while key in _in_flight:
                _changed.wait()
            if key in _memo:
                _memo.move_to_end(key)
                _counters["hits"] += 1
                return _memo[key]
            _in_flight.add(key)  # ours to generate: first here, or its generator raised
            _counters["misses"] += 1
        try:
            value = generate(*args, **kwargs)
            for array in _arrays(value):
                array.setflags(write=False)
            with _changed:
                if len(_memo) >= MEMO_ENTRIES:
                    _memo.popitem(last=False)
                    _counters["evictions"] += 1
                _memo[key] = value
            return value
        finally:
            with _changed:
                _in_flight.remove(key)
                _changed.notify_all()

    return wrapper
