"""Abstract device interface.

A device converts element counts into simulated seconds (via its cost
methods) and owns one or more :class:`~repro.sim.timeline.Timeline` objects
on which the runtimes schedule work.  Devices hold *no* application state;
all data lives with the runtimes, which is what lets a single functional
execution be re-costed for different device mixes.
"""

from __future__ import annotations

import abc

from repro.device.work import WorkModel
from repro.sim.timeline import Timeline


class Device(abc.ABC):
    """One execution resource inside a node (a multi-core CPU or one GPU)."""

    kind: str

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index

    # -- cost model ----------------------------------------------------
    @abc.abstractmethod
    def elem_time(
        self, model: WorkModel, *, localized: bool = True, framework: bool = True
    ) -> float:
        """Seconds per element at full device occupancy.

        ``localized`` selects the reduction-localization atomic rate;
        ``framework`` charges the runtime's per-element bookkeeping
        overhead (hand-written baselines pass ``False``).
        """

    @abc.abstractmethod
    def partition_time(
        self, model: WorkModel, n: float, *, localized: bool = True, framework: bool = True
    ) -> float:
        """Seconds to process a statically-assigned partition of ``n`` elements.

        Includes per-invocation fixed costs (kernel launch on GPUs).
        """

    # -- scheduling ----------------------------------------------------
    @abc.abstractmethod
    def timelines(self) -> list[Timeline]:
        """All busy-interval timelines this device owns (for reports)."""

    @abc.abstractmethod
    def reset(self, start: float = 0.0) -> None:
        """Fresh timelines starting at ``start`` (between runtime launches)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, index={self.index})"
