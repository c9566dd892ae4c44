"""Adaptive device-speed partitioning (paper §III-D).

Irregular reductions and stencils run many time steps over data resident on
each device, so dynamic chunk scheduling would force repeated reloads.
Instead the paper partitions *statically but adaptively*: the first time
step splits the reduction space evenly, the observed per-device speeds
``S_i`` are profiled, and from the second step each device receives
``N * S_i / sum(S_k)`` of the space.

:class:`AdaptivePartitioner` is that mechanism, decoupled from any pattern:
``split`` produces the current allocation, ``observe`` feeds back measured
(simulated) times.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import SchedulingError, ValidationError


class AdaptivePartitioner:
    """Even-first, speed-proportional-after splitter."""

    def __init__(self, n_devices: int) -> None:
        if n_devices <= 0:
            raise ValidationError(f"n_devices must be > 0, got {n_devices}")
        self.n_devices = n_devices
        self._speeds: np.ndarray | None = None
        self._split_cache: tuple[int, np.ndarray] | None = None

    @property
    def profiled(self) -> bool:
        """Whether a profile has been observed (i.e. split is proportional)."""
        return self._speeds is not None

    def split(self, total: int) -> np.ndarray:
        """Per-device element counts summing exactly to ``total``.

        Even before profiling; proportional to observed speeds after.
        Rounding uses largest remainders so the counts always sum to
        ``total`` and no device is starved unless its speed share rounds
        to zero work.
        """
        if total < 0:
            raise ValidationError(f"total must be >= 0, got {total}")
        # Long-running patterns split the same total every time step, and
        # the answer only changes when a new profile is observed — memoize
        # (callers get a copy, so they can't corrupt the cache).
        if self._split_cache is not None and self._split_cache[0] == total:
            return self._split_cache[1].copy()
        if self._speeds is None:
            shares = np.full(self.n_devices, 1.0 / self.n_devices)
        else:
            shares = self._speeds / self._speeds.sum()
        exact = shares * total
        counts = np.floor(exact).astype(np.int64)
        remainder = int(total - counts.sum())
        if remainder > 0:
            order = np.argsort(-(exact - counts))
            counts[order[:remainder]] += 1
        self._split_cache = (total, counts)
        return counts.copy()

    def state_dict(self) -> dict:
        """Checkpointable copy of the profile (speeds + memoized split).

        A crash-restarted rank that rebuilds its runtime gets a *fresh*
        partitioner; without reloading this state it would re-profile from
        an even split while the survivors keep proportional splits, and
        every post-recovery device charge would diverge from an
        uninterrupted run.
        """
        return {
            "speeds": None if self._speeds is None else self._speeds.copy(),
            "split_cache": None
            if self._split_cache is None
            else (self._split_cache[0], self._split_cache[1].copy()),
        }

    def load_state(self, state: dict) -> None:
        """Reinstate a :meth:`state_dict` profile."""
        speeds = state["speeds"]
        cache = state["split_cache"]
        self._speeds = None if speeds is None else np.asarray(speeds, dtype=np.float64).copy()
        self._split_cache = None if cache is None else (int(cache[0]), np.asarray(cache[1]).copy())

    def observe(self, counts: np.ndarray, times: np.ndarray) -> None:
        """Record one time step's (counts, times) profile.

        Devices that received no work keep their previous speed estimate
        (or the mean of observed speeds, if never profiled).
        """
        counts = np.asarray(counts, dtype=np.float64)
        times = np.asarray(times, dtype=np.float64)
        if counts.shape != (self.n_devices,) or times.shape != (self.n_devices,):
            raise ValidationError(
                f"counts/times must both have shape ({self.n_devices},)"
            )
        if np.any(times < 0):
            raise ValidationError("times must be >= 0")
        worked = (counts > 0) & (times > 0)
        if not worked.any():
            raise SchedulingError("observe() called with no device having done work")
        speeds = np.zeros(self.n_devices)
        speeds[worked] = counts[worked] / times[worked]
        fallback = (
            self._speeds if self._speeds is not None else np.full(self.n_devices, speeds[worked].mean())
        )
        speeds[~worked] = fallback[~worked]
        self._speeds = speeds
        self._split_cache = None
