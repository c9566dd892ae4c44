"""Reduction objects: the framework's accumulation data structure.

The paper's reduction object is "a hash table with support for parallel
key-value insertion".  Every pattern's keys form a dense integer range
(cluster IDs, node IDs), so :class:`DenseReductionObject` is one NumPy
array over keys ``[0, num_keys)``; ``insert_many`` uses unbuffered scatter
(``np.bincount`` for float64 sums, ``ufunc.at`` otherwise) so duplicate
keys in one batch combine correctly (the defining property of a
reduction).

Inserts outside ``[0, num_keys)`` are silently dropped.  That range filter
is how the paper's ownership rule is enforced mechanically: "when an edge
is being processed, only the node(s) belonging to the current partition is
updated".

Iterative patterns that scatter through the *same* indirection array every
time step (the irregular-reduction runtime) can precompute the scatter
layout once with :meth:`DenseReductionObject.plan_scatter` — the CPU
analogue of the paper's §III-E reduction localization: for float64 sums at
most one precomputed bin index per key (none when the keys are already the
bins) turns the per-step scatter into one input-order scatter-add per value
column.  Other ops and dtypes plan nothing and take the unplanned
``ufunc.at`` path.  ``insert_many`` recognizes planned key arrays
automatically, so user kernels need no changes to benefit.

Insert counting: every object tracks how many inserts were *attempted*
(``n_inserts``), which the cost model uses to charge atomic operations.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import resolve_op
from repro.util.errors import ValidationError


class ScatterPlan:
    """Precomputed float64-sum scatter layout for one fixed key array.

    Holds everything :meth:`DenseReductionObject.insert_many` needs to
    apply a batch of values against ``keys`` without touching the keys
    again: one bin index per key, applied column by column as an
    ``np.add.at`` into zeroed bins that are then added to the values — no
    filtering at apply time, and no per-(key, column) index.  When every
    key is in range the keys themselves are the bins and the plan stores
    nothing.  When most keys are in range, out-of-range keys are
    redirected to a trailing trash bin; when the in-range subset is small
    (a cross-edge column, mostly remote slots), the plan instead
    precomputes a take-index so the apply gathers just its own values
    first — total scatter work then stays proportional to the in-range
    entries, not the batch.  Bins accumulate in input order either way,
    exactly like the unplanned flat ``np.bincount``, so results stay
    bit-identical.

    A plan keeps a reference to its key array: the array must stay alive
    (and unmodified) for the plan's address-based identity to be valid.
    """

    __slots__ = ("keys", "n_keys", "n_dropped", "take_idx", "bins", "n_bins")

    def __init__(self, keys: np.ndarray, n_range: int) -> None:
        self.keys = keys
        self.n_keys = len(keys)
        valid = (keys >= 0) & (keys < n_range)
        self.n_dropped = int(self.n_keys - valid.sum())
        self.take_idx = None
        self.n_bins = n_range
        if not self.n_dropped:
            self.bins = None  # the keys are the bins
        elif 2 * (self.n_keys - self.n_dropped) < self.n_keys:
            # Sparse ownership: gather just the in-range values, then
            # scatter them by their filtered keys.
            self.take_idx = np.flatnonzero(valid)
            self.bins = keys[self.take_idx]
        else:
            # Dense ownership: a trailing trash bin absorbs the
            # out-of-range keys.
            self.bins = np.where(valid, keys, n_range)
            self.n_bins = n_range + 1


def _keys_token(keys: np.ndarray) -> tuple:
    """Identity of a key array's memory region (pointer, shape, strides).

    Two live arrays share a token only if they view the same data — the
    exact case the plan cache wants: ``edges[:, 0]`` rebuilt every step
    from the same cached edge array hits the plan registered for it.
    """
    return (keys.__array_interface__["data"][0], keys.shape, keys.strides)


class DenseReductionObject:
    """Reduction object over integer keys in ``[0, num_keys)``.

    Values are ``(num_keys, value_width)`` and combine with the named op.
    """

    def __init__(
        self,
        num_keys: int,
        value_width: int = 1,
        op: str = "sum",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if num_keys <= 0 or value_width <= 0:
            raise ValidationError("num_keys and value_width must be > 0")
        self.op = op
        self._ufunc, self._identity = resolve_op(op)
        self.num_keys = int(num_keys)
        self.value_width = int(value_width)
        self.dtype = np.dtype(dtype)
        self.values = np.full((num_keys, value_width), self._identity, dtype=self.dtype)
        # Sum over float64 can use np.bincount instead of ufunc.at: both
        # accumulate in input order, so results are identical, but bincount
        # is ~2x faster on the scatter-heavy emit paths.
        self._fast_sum = self._ufunc is np.add and self.dtype == np.float64
        self._cols = np.arange(self.value_width)
        self._plans: dict[tuple, ScatterPlan] = {}
        self.n_inserts = 0
        self.n_dropped = 0

    def reset(self) -> None:
        """Refill with the identity element, keeping buffers and plans.

        Pooled objects call this between time steps instead of being
        reallocated; registered scatter plans survive because they depend
        only on the key layout, not on accumulated values.
        """
        self.values.fill(self._identity)
        self.n_inserts = 0
        self.n_dropped = 0

    def plan_scatter(self, keys: np.ndarray) -> ScatterPlan | None:
        """Precompute and register the scatter layout for ``keys``.

        Subsequent ``insert_many(keys_view, values)`` calls whose key
        argument views the same memory (same pointer/shape/strides — e.g.
        a column view rebuilt from the same cached edge array) skip
        filtering and indexing entirely and scatter with one input-order
        ``np.add.at`` per value column.  Only float64 sums are planned;
        any other op or dtype registers nothing (returns None), and its
        inserts take the unplanned ``ufunc.at`` path, which gives the same
        values.  The caller must keep ``keys`` unmodified while the plan
        is registered (the plan itself holds a reference, so lifetime is
        guaranteed).
        """
        if not self._fast_sum:
            return None
        keys = np.asarray(keys)
        plan = ScatterPlan(keys, self.num_keys)
        self._plans[_keys_token(keys)] = plan
        return plan

    def insert(self, key: int, value) -> None:
        """Insert one key/value pair (paper's ``obj->insert(&key, &val)``)."""
        self.n_inserts += 1
        if not 0 <= key < self.num_keys:
            self.n_dropped += 1
            return
        self.values[key] = self._ufunc(self.values[key], np.asarray(value, dtype=self.dtype))

    def insert_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Vectorized insert of ``len(keys)`` pairs.

        Duplicate keys within the batch combine correctly and in input
        order (unbuffered scatter), so inserting a batch into a fresh
        object is bit-identical to the per-element loop.  ``values`` may
        be ``(n,)`` when ``value_width == 1`` or ``(n, value_width)``.
        """
        keys = np.asarray(keys)
        values = np.asarray(values, dtype=self.dtype)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape != (len(keys), self.value_width):
            raise ValidationError(
                f"values shape {values.shape} does not match "
                f"({len(keys)}, {self.value_width})"
            )
        self.n_inserts += len(keys)
        if self._plans:
            plan = self._plans.get(_keys_token(keys))
            if plan is not None:
                self._insert_planned(plan, values)
                return
        mask = (keys >= 0) & (keys < self.num_keys)
        if not mask.all():
            self.n_dropped += int((~mask).sum())
            keys = keys[mask]
            values = values[mask]
        if not len(keys):
            return
        if self._fast_sum:
            self._scatter_sum(keys, values)
        else:
            self._ufunc.at(self.values, keys, values)

    def _scatter_sum(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Input-order bincount scatter-add; one pass for any width.

        ``value_width > 1`` flattens to ``idx * width + column`` bins so a
        single ``np.bincount`` covers all columns (each flat bin still
        receives its contributions in input order, so the result is
        bit-identical to the per-column loop it replaces).
        """
        w = self.value_width
        if w == 1:
            self.values[:, 0] += np.bincount(
                idx, weights=values[:, 0], minlength=self.num_keys
            )
        else:
            flat = (idx[:, None] * w + self._cols).ravel()
            sums = np.bincount(flat, weights=values.ravel(), minlength=self.num_keys * w)
            self.values += sums.reshape(self.num_keys, w)

    def _insert_planned(self, plan: ScatterPlan, values: np.ndarray) -> None:
        """Apply a float64-sum batch through a precomputed scatter plan."""
        self.n_dropped += plan.n_dropped
        take = plan.take_idx
        if plan.n_keys == 0 or (take is not None and not len(take)):
            return
        bins = plan.keys if plan.bins is None else plan.bins
        sums = np.empty(plan.n_bins)
        for col in range(self.value_width):
            # Zeroed bins summed in input order, as np.bincount does
            # (1-D ufunc.at also skips bincount's min/max pass).
            sums.fill(0.0)
            np.add.at(sums, bins, values[:, col] if take is None else values[take, col])
            self.values[:, col] += sums[: self.num_keys]

    def merge(self, other: "DenseReductionObject") -> None:
        """Combine another object elementwise (same keys, same op)."""
        if not isinstance(other, DenseReductionObject):
            raise ValidationError("can only merge DenseReductionObject instances")
        if (other.num_keys, other.value_width, other.op) != (
            self.num_keys,
            self.value_width,
            self.op,
        ):
            raise ValidationError(
                "merge requires identical key count, value width, and op "
                f"(got {other.num_keys}x{other.value_width}/{other.op} vs "
                f"{self.num_keys}x{self.value_width}/{self.op})"
            )
        self.values = self._ufunc(self.values, other.values)

    def as_array(self) -> np.ndarray:
        """The ``(num_keys, value_width)`` result array (a live view)."""
        return self.values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DenseReductionObject(num_keys={self.num_keys}, "
            f"width={self.value_width}, op={self.op!r})"
        )

