"""Persistent on-disk result store (content-addressed, atomic, code-stamped).

The in-memory :class:`~repro.serve.cache.ResultCache` dies with the
process; a campaign that sweeps hundreds of (app, preset, nodes, seed)
points should not re-execute all of them because the server restarted.
:class:`ResultStore` keeps each completed result payload as one JSON file
keyed by the job's :meth:`~repro.serve.spec.JobSpec.content_hash`, so a
repeated or extended campaign re-executes only the points it has never
seen — across server restarts and across independent processes sharing
the same directory.

Durability rules:

- **Atomic writes.**  Every ``put`` writes a uniquely-named temp file in
  the entry's directory and ``os.replace``\\ s it into place.  Two server
  processes racing on the same key each land a complete file; readers
  never observe a torn write.
- **Stamped with the code that made it.**  Entries are wrapped as
  ``{"code": stamp, "key": ..., "payload": ...}``, where the stamp is
  :func:`code_stamp`, a digest of the ``repro`` package's sources.  The
  content hash names *what* was asked, the stamp *which code* answered:
  an entry written by any other code (or with no stamp) is a *miss*,
  counted ``stale``, and re-executed — never served.  It stays on disk for
  the code that wrote it.
- **Corruption is a miss, not an error.**  A truncated, unparseable or
  mislabeled entry (e.g. a crashed writer pre-``os.replace`` semantics,
  or bit rot) is skipped, counted, best-effort unlinked, and simply
  re-executed and rewritten by the next campaign — a bad entry must never
  take a campaign down.
- **A failed write is forgotten, not raised.**  When the disk is full, the
  directory read-only or the root not a directory, ``put`` counts a
  ``write_errors`` and returns: the result was computed, only its copy on
  disk is lost.

Layout: ``<root>/<hash[:2]>/<hash>.json`` (fan-out keeps directories
small at paper-sweep scale).  The default root is ``$REPRO_STORE`` or
``~/.cache/repro/results``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any

from repro.util.errors import ValidationError

#: Environment variable overriding the default store root.
STORE_ENV = "REPRO_STORE"


def default_store_root() -> Path:
    """``$REPRO_STORE`` if set, else ``~/.cache/repro/results``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "results"


@functools.cache
def code_stamp() -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``*.py``
    file of the ``repro`` package: which code made a stored result.

    Computed once per process, on first store access (a few ms).
    """
    package = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py")):
        data = (package / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _valid_key(key: str) -> bool:
    """Keys are hex content hashes; anything else never touches the disk."""
    return (
        isinstance(key, str)
        and 4 <= len(key) <= 128
        and all(c in "0123456789abcdef" for c in key)
    )


class ResultStore:
    """Directory of per-hash JSON result payloads with atomic writes."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_store_root()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt_dropped = 0
        self._stale = 0
        self._write_errors = 0

    # -- paths -------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        if not _valid_key(key):
            raise ValidationError(f"store keys are hex content hashes, got {key!r}")
        return self.root / key[:2] / f"{key}.json"

    # -- access ------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None``.

        Corrupt or truncated entries are dropped and read as misses;
        entries stamped by other code are left in place but rejected
        (``stale``).
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            with self._lock:
                self._misses += 1
            return None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError:
            return self._drop_corrupt(path)
        if not isinstance(doc, dict):
            return self._drop_corrupt(path)
        if doc.get("code") != code_stamp():
            with self._lock:
                self._stale += 1
                self._misses += 1
            return None
        if doc.get("key") != key or not isinstance(doc.get("payload"), dict):
            return self._drop_corrupt(path)
        with self._lock:
            self._hits += 1
        return doc["payload"]

    def _drop_corrupt(self, path: Path) -> None:
        """Count and best-effort remove a damaged entry; report a miss."""
        with self._lock:
            self._corrupt_dropped += 1
            self._misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key`` (last writer wins).

        An ``OSError`` on the way is counted in ``write_errors``, not raised.
        """
        path = self.path_for(key)
        doc = {"code": code_stamp(), "key": key, "payload": payload}
        body = json.dumps(doc, separators=(",", ":"))
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # A unique temp file per writer + os.replace = no torn entries even
            # with two server processes completing the same spec concurrently.
            fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, path)
        except BaseException as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if not isinstance(exc, OSError):
                raise
            with self._lock:
                self._write_errors += 1
            return
        with self._lock:
            self._writes += 1

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has an entry this code would serve (no counters)."""
        try:
            raw = self.path_for(key).read_text(encoding="utf-8")
            doc = json.loads(raw)
        except (OSError, ValueError):  # missing, undecodable or unparseable
            return False
        return isinstance(doc, dict) and doc.get("code") == code_stamp()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "root": str(self.root),
                "code": code_stamp(),
                "hits": self._hits,
                "misses": self._misses,
                "writes": self._writes,
                "corrupt_dropped": self._corrupt_dropped,
                "stale": self._stale,
                "write_errors": self._write_errors,
            }
