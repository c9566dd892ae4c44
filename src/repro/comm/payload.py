"""Message payload normalization (zero-copy fast paths).

Payloads are either NumPy arrays (the fast path, measured by ``nbytes``) or
arbitrary Python objects (control messages, measured by a recursive size
estimator).  Semantics match MPI's buffered eager protocol — the payload is
an immutable snapshot taken at send time — but the implementation copies as
little as possible:

- **Arrays** are snapshotted with at most one copy, and none at all when
  the buffer is already immutable (``writeable=False``, e.g. a previously
  delivered payload being forwarded by a collective) or when the sender
  declares ``owned=True`` (framework-internal sends of freshly built
  buffers that the sender promises not to mutate while in flight).
- **Delivery** never copies: receivers get a read-only view of the
  snapshot, or the data is written straight into their ``out=`` buffer
  (``np.copyto``, so non-contiguous destination views work — this is what
  lets the stencil runtime receive directly into halo slabs).
- **Objects** are snapshotted structurally: containers are rebuilt,
  writeable arrays inside them are snapshotted read-only, immutable leaves
  (scalars, strings, read-only arrays) are shared, and only opaque mutable
  objects fall back to ``copy.deepcopy``.  Wire size comes from
  :func:`estimate_nbytes` instead of a full ``pickle.dumps`` of the data.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Immutable leaf types that can be shared between sender and receiver.
_IMMUTABLE_LEAVES = (bool, int, float, complex, str, bytes, np.generic)

#: Wire size charged for ``None`` control tokens (the pickled size, kept so
#: barrier/handshake costs match the original pickle-priced model exactly).
_NONE_NBYTES = 4

#: Per-element overhead charged for container structure (pointers/headers).
_CONTAINER_SLOT_NBYTES = 8

#: Nominal size for opaque objects the estimator cannot see into.
_OPAQUE_NBYTES = 64


@dataclass(frozen=True, slots=True)
class Payload:
    """An immutable snapshot of data in flight."""

    data: Any
    nbytes: int
    is_array: bool

    def deliver(self, out: np.ndarray | None = None) -> Any:
        """Materialize the payload at the receiver.

        If ``out`` is given (array payloads only), the data is copied into
        it — the mpi4py ``Recv([buf, ...])`` idiom — and ``out`` is
        returned; ``out`` may be any same-size array, including a
        non-contiguous view (e.g. a halo slab).  Otherwise the snapshot is
        returned directly: arrays arrive as read-only views, so receivers
        can never corrupt in-flight state, and no copy is ever made on the
        receive side.
        """
        if out is not None:
            if not self.is_array:
                raise TypeError("cannot receive an object payload into an array buffer")
            if out.size != self.data.size:
                raise ValueError(
                    f"receive buffer has {out.size} elements, message has {self.data.size}"
                )
            np.copyto(out, self.data.reshape(out.shape))
            return out
        return self.data


def _readonly_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (the caller's own flags are untouched)."""
    view = arr.view()
    view.setflags(write=False)
    return view


def _snapshot(obj: Any) -> Any:
    """Structurally snapshot an object payload.

    Containers are rebuilt so later mutation of the sender's container is
    invisible; immutable leaves are shared; writeable arrays are copied
    exactly once (read-only); anything opaque is deep-copied.
    """
    if obj is None or isinstance(obj, _IMMUTABLE_LEAVES):
        return obj
    if isinstance(obj, np.ndarray):
        if not obj.flags.writeable:
            return obj
        snap = np.array(obj, copy=True)
        snap.setflags(write=False)
        return snap
    if isinstance(obj, tuple):
        return tuple(_snapshot(v) for v in obj)
    if isinstance(obj, list):
        return [_snapshot(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _snapshot(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return type(obj)(_snapshot(v) for v in obj)
    return copy.deepcopy(obj)


def estimate_nbytes(obj: Any) -> int:
    """Cheap recursive wire-size estimate for object payloads.

    Replaces the old ``len(pickle.dumps(obj))`` pricing: arrays count their
    buffer, scalars their itemsize, strings their length, and containers a
    small per-slot overhead — no serialization work is ever done.
    """
    if obj is None:
        return _NONE_NBYTES
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, dict):
        return sum(
            _CONTAINER_SLOT_NBYTES + estimate_nbytes(k) + estimate_nbytes(v)
            for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_CONTAINER_SLOT_NBYTES + estimate_nbytes(v) for v in obj)
    return _OPAQUE_NBYTES


def make_payload(obj: Any, owned: bool = False) -> Payload:
    """Snapshot ``obj`` into a :class:`Payload`, computing its wire size.

    ``owned=True`` is the framework-internal zero-copy fast path: the
    caller transfers ownership of ``obj`` — it promises not to mutate the
    buffer (or anything reachable from it) until the receiver has consumed
    the message — so no copy is made at all.  User-facing sends leave it
    ``False`` and get full buffered-eager snapshot semantics.
    """
    if obj is None:
        # Control tokens (barrier rounds, acks, handshakes) dominate the
        # message count at many-rank scale; they all share one payload.
        return _NONE_PAYLOAD
    if isinstance(obj, np.ndarray):
        if owned or not obj.flags.writeable:
            snapshot = obj if not obj.flags.writeable else _readonly_view(obj)
        else:
            snapshot = np.array(obj, copy=True)
            snapshot.setflags(write=False)
        return Payload(data=snapshot, nbytes=int(obj.nbytes), is_array=True)
    if np.isscalar(obj) and not isinstance(obj, (str, bytes)):
        nbytes = getattr(obj, "nbytes", None)
        return Payload(
            data=obj,
            nbytes=int(nbytes) if nbytes is not None else int(np.asarray(obj).nbytes),
            is_array=False,
        )
    data = obj if owned else _snapshot(obj)
    return Payload(data=data, nbytes=estimate_nbytes(obj), is_array=False)


#: The shared snapshot of ``None`` (see :func:`make_payload`).
_NONE_PAYLOAD = Payload(data=None, nbytes=_NONE_NBYTES, is_array=False)

