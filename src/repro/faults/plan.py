"""Deterministic fault injection plans.

A :class:`FaultPlan` describes *what goes wrong, where, and when* — in
virtual time — for one SPMD run:

- **Message faults** (:class:`MessageFaultRule`): drop, duplicate, or
  extra-delay individual messages with given probabilities, restricted to a
  (src, dst) pair and a virtual-time window.
- **Link degradation** (:class:`LinkDegradation`): scale a link's effective
  bandwidth down (and/or add latency) over a virtual-time window, so every
  message crossing it during the window is charged more wire time.
- **Rank crashes** (:class:`RankCrash`): a rank fails at virtual time ``t``
  and must be recovered from a checkpoint (see
  :mod:`repro.core.checkpoint`).  Crashes are one-shot: once consumed by a
  recovery, the rank runs on.

Determinism: every per-message decision comes from a counter-based RNG
keyed on ``(plan seed, src, dst, per-pair message index)``.  The per-pair
index advances in the *sender's* program order (the fabric consults the
plan from the sending rank), so a given plan + seed always yields the same
faults — which is what makes fault-tolerance tests repeatable.  The plan
keeps its own lock: one plan object may be shared by concurrent runs.
"""

from __future__ import annotations

import dataclasses
import math
import random
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.comm.constants import RELIABLE_ACK_BASE
from repro.util.errors import ValidationError
from repro.util.validate import check_document, check_json, to_wire


@dataclass(frozen=True)
class FaultDecision:
    """The plan's verdict for one message transmission."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0
    bandwidth_factor: float = 1.0
    extra_latency: float = 0.0


#: The all-clear decision, shared to keep the fault-free path allocation-free.
CLEAN_DECISION = FaultDecision()


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class MessageFaultRule:
    """Probabilistic message faults on a (src, dst) pair over a time window.

    ``src``/``dst`` of ``None`` match any rank; the window is half-open
    ``[t_start, t_end)`` in virtual send time.  Probabilities are evaluated
    independently per message (a message can be both delayed and
    duplicated; ``drop`` preempts both).
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay: float = 0.0
    src: int | None = None
    dst: int | None = None
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if f.name.endswith("_prob"):
                _check_prob(f.name, getattr(self, f.name))
        if self.max_delay < 0:
            raise ValidationError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.delay_prob > 0 and self.max_delay == 0:
            raise ValidationError("delay_prob > 0 requires max_delay > 0")
        if self.t_end < self.t_start:
            raise ValidationError("t_end must be >= t_start")

    def matches(self, src: int, dst: int, t: float) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class LinkDegradation:
    """Degrade the (src, dst) link over ``[t_start, t_end)`` virtual time.

    ``bandwidth_factor`` scales effective bandwidth (0.25 = a quarter of
    nominal, so wire time quadruples); ``extra_latency`` adds fixed seconds
    to every affected message.  ``src``/``dst`` of ``None`` match any rank.
    """

    bandwidth_factor: float = 1.0
    extra_latency: float = 0.0
    src: int | None = None
    dst: int | None = None
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValidationError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.extra_latency < 0:
            raise ValidationError(f"extra_latency must be >= 0, got {self.extra_latency}")
        if self.t_end < self.t_start:
            raise ValidationError("t_end must be >= t_start")

    def matches(self, src: int, dst: int, t: float) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        return self.t_start <= t < self.t_end


@dataclass
class RankCrash:
    """Rank ``rank`` fails at virtual time ``at_time`` (one-shot).

    The crash manifests at the first checkpoint-loop iteration boundary
    after the rank's clock passes ``at_time``; ``restart_cost`` virtual
    seconds of recovery are then charged on every rank (coordinated
    rollback to the last checkpoint).  ``consumed`` is runtime state: no
    constructor (and so no wire document) sets it.
    """

    rank: int
    at_time: float
    restart_cost: float = 1.0
    consumed: bool = field(default=False, init=False, compare=False)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValidationError(f"crash rank must be >= 0, got {self.rank}")
        if self.at_time < 0:
            raise ValidationError(f"crash at_time must be >= 0, got {self.at_time}")
        if self.restart_cost < 0:
            raise ValidationError(f"restart_cost must be >= 0, got {self.restart_cost}")


@dataclass
class FaultStats:
    """Counters of what the plan actually did (test/diagnostic hook)."""

    decisions: int = 0
    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    degraded: int = 0
    crashes_consumed: int = 0


#: The entry lists of a plan's wire form, in order, and the type of their entries.
_ENTRY_TYPES: dict[str, type] = {
    "rules": MessageFaultRule,
    "degradations": LinkDegradation,
    "crashes": RankCrash,
}


def _entry_key(entry: Any) -> tuple:
    """An entry's wire fields in declaration order, ``None`` (any rank) as -1."""
    return tuple(-1 if v is None else v for v in to_wire(entry).values())


def _entry_to_dict(entry: Any) -> dict[str, Any]:
    """An entry's wire document; an infinite ``t_end`` is the string "inf"."""
    doc = to_wire(entry)
    if doc.get("t_end") == math.inf:
        doc["t_end"] = "inf"
    return doc


def _entry_from_dict(kind: type, doc: Any, name: str) -> Any:
    """The ``kind`` entry a wire document of plan list ``name`` describes."""
    doc = dict(doc)
    if doc.get("t_end") == "inf":
        doc["t_end"] = math.inf
    check_document(f"fault-plan {name} entry", kind, doc)
    return kind(**doc)


class FaultPlan:
    """A seeded, deterministic schedule of faults for one SPMD run.

    Install on a fabric with :meth:`repro.comm.fabric.Fabric.install_faults`
    (or pass ``fault_plan=`` to :func:`repro.sim.engine.spmd_run`); message
    rules and degradations then apply to every transmission, and crashes
    are consumed by :class:`repro.core.checkpoint.CheckpointManager`.
    """

    def __init__(
        self,
        seed: int = 0,
        rules: list[MessageFaultRule] | None = None,
        degradations: list[LinkDegradation] | None = None,
        crashes: list[RankCrash] | None = None,
    ) -> None:
        self.seed = int(seed)
        self.rules = list(rules or [])
        self.degradations = list(degradations or [])
        self.crashes = list(crashes or [])
        self.stats = FaultStats()
        self._lock = threading.Lock()
        # Per-(src, dst) message index: advances in sender program order.
        self._pair_index: dict[tuple[int, int], int] = {}
        # Sender's most recent decision (read back by ReliableComm, which
        # models its retransmission timer from the known message fate).
        self._last_by_src: dict[int, FaultDecision] = {}

    @classmethod
    def lossy(
        cls,
        seed: int = 0,
        *,
        drop: float = 0.0,
        dup: float = 0.0,
        delay: float = 0.0,
        max_delay: float = 0.0,
        crashes: list[RankCrash] | None = None,
    ) -> "FaultPlan":
        """A plan applying one uniform drop/dup/delay rule to all traffic."""
        rules = []
        if drop > 0 or dup > 0 or delay > 0:
            rules.append(
                MessageFaultRule(
                    drop_prob=drop, dup_prob=dup, delay_prob=delay, max_delay=max_delay
                )
            )
        return cls(seed=seed, rules=rules, crashes=crashes)

    # -- canonical serialization -----------------------------------------
    def canonical_key(self) -> str:
        """A stable, order-independent identity string for this plan.

        Two plans that inject the *same faults* — the same seed and the
        same sets of rules, degradations, and crashes, regardless of the
        order they were listed in — produce the same key; any semantic
        difference changes it.  Runtime state (``stats``, per-pair
        counters, consumed flags) is excluded: the key names what the plan
        *will do*, not what it has done.  The job service hashes this into
        its content-addressed result-cache key
        (:meth:`repro.serve.spec.JobSpec.content_hash`).
        """
        lists = ", ".join(
            f"{name}={sorted(map(_entry_key, getattr(self, name)))!r}" for name in _ENTRY_TYPES
        )
        return f"FaultPlan(seed={self.seed!r}, {lists})"

    def to_dict(self) -> dict:
        """JSON-able description (the job service's wire format).

        Round-trips through :meth:`from_dict`; infinite time windows are
        encoded as the string ``"inf"`` so the document survives strict
        JSON encoders too.
        """
        lists = {name: [_entry_to_dict(e) for e in getattr(self, name)] for name in _ENTRY_TYPES}
        return {"seed": self.seed, **lists}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (validating fields)."""
        if not isinstance(data, dict):
            raise ValidationError(f"fault plan must be a dict, got {type(data).__name__}")
        unknown = set(data) - {"seed", *_ENTRY_TYPES}
        if unknown:
            raise ValidationError(f"unknown fault-plan keys: {sorted(unknown)}")
        check_json("fault-plan seed", data.get("seed", 0), "an integer")
        lists = {}
        for name, kind in _ENTRY_TYPES.items():
            entries = data.get(name, [])
            check_json(f"fault-plan {name}", entries, "a list of objects")
            lists[name] = [_entry_from_dict(kind, entry, name) for entry in entries]
        return cls(seed=data.get("seed", 0), **lists)

    def stats_snapshot(self) -> dict[str, int]:
        """Counter values right now (a job's ``fault_stats`` payload)."""
        with self._lock:
            return dataclasses.asdict(self.stats)

    # -- deterministic RNG ---------------------------------------------
    def _rng(self, src: int, dst: int, index: int) -> random.Random:
        h = (self.seed & 0xFFFFFFFF) or 0x9E3779B9
        for k in (src, dst, index):
            h = (h * 1_000_003) ^ (k & 0xFFFFFFFF)
            h &= 0xFFFFFFFFFFFFFFFF
        return random.Random(h)

    # -- the fabric hook -----------------------------------------------
    def decide(self, src: int, dst: int, tag: int, send_time: float) -> FaultDecision:
        """Verdict for one message; called by the fabric per transmission.

        Deterministic: keyed by the per-(src, dst) message index, which
        advances in the sender's program order, never by wall-clock state.

        Reliable-layer ACK tags (``>= RELIABLE_ACK_BASE``) are exempt from
        message-fault rules (see :data:`repro.comm.constants.RELIABLE_ACK_BASE`)
        but still subject to link degradation.
        """
        bw_factor = 1.0
        extra_latency = 0.0
        for deg in self.degradations:
            if deg.matches(src, dst, send_time):
                bw_factor *= deg.bandwidth_factor
                extra_latency += deg.extra_latency
        rule = None
        if tag < RELIABLE_ACK_BASE:
            for r in self.rules:
                if r.matches(src, dst, send_time):
                    rule = r
                    break
        with self._lock:
            index = self._pair_index.get((src, dst), 0)
            self._pair_index[(src, dst)] = index + 1
            self.stats.decisions += 1
            drop = duplicate = False
            extra_delay = 0.0
            if rule is not None:
                rng = self._rng(src, dst, index)
                drop = rng.random() < rule.drop_prob
                if not drop:
                    duplicate = rng.random() < rule.dup_prob
                    if rng.random() < rule.delay_prob:
                        extra_delay = rng.random() * rule.max_delay
                else:
                    # Keep the draw count fixed so rule probabilities stay
                    # independent of each other across seeds.
                    rng.random()
                    rng.random()
            if drop:
                self.stats.drops += 1
            if duplicate:
                self.stats.duplicates += 1
            if extra_delay > 0:
                self.stats.delays += 1
            if bw_factor != 1.0 or extra_latency != 0.0:
                self.stats.degraded += 1
            if (
                not drop
                and not duplicate
                and extra_delay == 0.0
                and bw_factor == 1.0
                and extra_latency == 0.0
            ):
                decision = CLEAN_DECISION
            else:
                decision = FaultDecision(
                    drop=drop,
                    duplicate=duplicate,
                    extra_delay=extra_delay,
                    bandwidth_factor=bw_factor,
                    extra_latency=extra_latency,
                )
            self._last_by_src[src] = decision
        return decision

    def last_decision(self, src: int) -> FaultDecision:
        """The most recent verdict for a message sent by ``src``.

        Only ``src``'s own thread transmits for ``src``, so reading this
        right after a send is race-free; :class:`ReliableComm` uses it to
        learn a message's fate (modelling its retransmission timeout in
        virtual time instead of wall-clock waiting).
        """
        with self._lock:
            return self._last_by_src.get(src, CLEAN_DECISION)

    # -- crashes --------------------------------------------------------
    def crash_pending(self, rank: int, now: float) -> RankCrash | None:
        """The first unconsumed crash of ``rank`` due at or before ``now``."""
        with self._lock:
            for crash in self.crashes:
                if crash.rank == rank and not crash.consumed and crash.at_time <= now:
                    return crash
        return None

    def consume_crash(self, crash: RankCrash) -> None:
        """Mark a crash handled (idempotent)."""
        with self._lock:
            if not crash.consumed:
                crash.consumed = True
                self.stats.crashes_consumed += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"degradations={len(self.degradations)}, crashes={len(self.crashes)})"
        )
