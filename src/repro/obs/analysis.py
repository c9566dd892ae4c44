"""Post-run analysis: phase attribution, utilization, critical path.

Everything here consumes the per-rank traces of a ``trace=True`` run
(spans, counters, timeline histories) *after* it ends; nothing here runs
during simulation, so analysis can never perturb virtual time.

Phase attribution
    Each rank's clock interval ``[0, T_rank]`` is tiled by a sweep over its
    recorded spans, classifying every instant into exactly one phase —
    ``wait`` (blocked on a message that had not arrived), ``comm``
    (send/receive software overheads), ``fault`` (checkpoint, recovery,
    retransmission backoff), ``compute`` (anything covered by a runtime
    span but none of the above), or ``other`` (clock advance not covered
    by any span).  Overlaps resolve by priority (fault > wait/comm >
    compute): a halo receive inside a stencil step bills to comm, not
    compute.  Because the phases tile the interval, their sums (plus
    ``finish_wait``, the time a rank idles after finishing while the
    slowest rank runs on) reconcile *exactly* to the makespan.

Critical path
    A backward walk over the same tiling, starting from the last segment
    of the slowest rank.  Within a rank the tiling makes predecessors
    contiguous by construction; at a ``wait`` segment the walk jumps
    across the matched message edge (n-th send on a (src, dst, tag)
    stream pairs with the n-th receive — the fabric's per-stream FIFO
    guarantee) to the sender, inserting a ``wire`` link covering the
    network time so the reported chain stays contiguous in virtual time.
    Links carry a ``slack``: 0 for on-path work, and for ``wait`` links
    the binding margin — how much the receiver's own preceding work could
    have grown before the message stopped being the binding dependency.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.sim.trace import Trace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SpmdResult

#: Phase priority: higher wins where spans overlap.  ``fault`` outranks the
#: comm pair (a retransmission backoff is charged to the fault layer, not
#: the send that triggered it); ``wait``/``comm`` never overlap each other
#: (point-to-point calls are serial on a rank's clock) but both outrank the
#: runtime's enclosing compute span.
_PRIORITY = {"fault": 4, "wait": 3, "comm": 3, "compute": 2}

#: Relative tolerance of :meth:`RunReport.verify`'s reconciliations.
_REL_TOL = 1e-9

_EPS = 1e-15


@dataclass(slots=True)
class PhaseBreakdown:
    """Where one rank's share of the makespan went (sums to ``total``)."""

    rank: int
    compute: float
    comm: float
    wait: float
    fault: float
    other: float
    finish_wait: float

    @property
    def total(self) -> float:
        return self.compute + self.comm + self.wait + self.fault + self.other + self.finish_wait

    def to_dict(self) -> dict[str, float]:
        return {
            "rank": self.rank,
            "compute": self.compute,
            "comm": self.comm,
            "wait": self.wait,
            "fault": self.fault,
            "other": self.other,
            "finish_wait": self.finish_wait,
            "total": self.total,
        }


@dataclass(slots=True)
class TimelineStats:
    """Full-run busy/idle accounting for one resource timeline."""

    rank: int
    name: str
    busy: float
    n_intervals: int
    utilization: float
    idle: float
    longest_gap: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "name": self.name,
            "busy": self.busy,
            "n_intervals": self.n_intervals,
            "utilization": self.utilization,
            "idle": self.idle,
            "longest_gap": self.longest_gap,
        }


@dataclass(slots=True)
class PathLink:
    """One link of the critical-path chain (chronological order)."""

    rank: int
    phase: str
    label: str
    start: float
    end: float
    slack: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "phase": self.phase,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "slack": self.slack,
        }


@dataclass
class RunReport:
    """Complete post-run observability report for one SPMD run."""

    makespan: float
    times: list[float]
    phases: list[PhaseBreakdown]
    timelines: list[TimelineStats]
    critical_path: list[PathLink]
    counters: dict[str, float]
    counters_by_rank: list[dict[str, float]]
    gauges_by_rank: list[dict[str, float]]
    n_events: int = 0
    app_makespan: float | None = None  # app-reported (possibly extrapolated)

    @property
    def nranks(self) -> int:
        return len(self.times)

    def verify(self) -> None:
        """Raise ``AssertionError`` unless the report is self-consistent:
        every rank's phase sums reconcile to the makespan, and the critical
        path is contiguous in virtual time and ends at the makespan."""
        scale = max(self.makespan, 1e-30)
        for ph in self.phases:
            if abs(ph.total - self.makespan) > _REL_TOL * scale:
                raise AssertionError(
                    f"rank {ph.rank} phases sum to {ph.total!r}, "
                    f"makespan is {self.makespan!r}"
                )
        if self.critical_path:
            tol = _REL_TOL * scale
            if abs(self.critical_path[-1].end - self.makespan) > tol:
                raise AssertionError(
                    f"critical path ends at {self.critical_path[-1].end!r}, "
                    f"makespan is {self.makespan!r}"
                )
            for a, b in zip(self.critical_path, self.critical_path[1:]):
                if b.start - a.end > tol:
                    raise AssertionError(
                        f"critical path gap: link ending {a.end!r} followed "
                        f"by link starting {b.start!r}"
                    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan": self.makespan,
            "app_makespan": self.app_makespan,
            "nranks": self.nranks,
            "times": list(self.times),
            "phases": [ph.to_dict() for ph in self.phases],
            "timelines": [tl.to_dict() for tl in self.timelines],
            "critical_path": [link.to_dict() for link in self.critical_path],
            "counters": dict(self.counters),
            "counters_by_rank": [dict(c) for c in self.counters_by_rank],
            "gauges_by_rank": [dict(g) for g in self.gauges_by_rank],
            "n_events": self.n_events,
        }


# ----------------------------------------------------------------------
# Span classification
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Span:
    """One attribution span: a clamped, classified slice of a trace event."""

    start: float
    end: float
    phase: str
    event: TraceEvent


def _classify(ev: TraceEvent, horizon: float) -> list[_Span]:
    """Split one trace event into attribution spans on ``[0, horizon]``."""
    start = min(ev.start, horizon)
    end = min(ev.end, horizon)
    if end <= start:
        # Zero-width events (dup-discards, partition markers) carry no time.
        return []
    if ev.category == "comm":
        if ev.label.startswith("send->"):
            # Only the sender-side software overhead is on this rank's
            # clock; the tail of the span (up to arrival) is wire time.
            busy_end = ev.meta.get("busy_end", ev.end)
            busy_end = min(max(busy_end, start), end)
            if busy_end > start:
                return [_Span(start, busy_end, "comm", ev)]
            return []
        if ev.label.startswith("recv<-"):
            arrival = ev.meta.get("arrival", ev.start)
            split = min(max(arrival, start), end)
            out = []
            if split > start:
                out.append(_Span(start, split, "wait", ev))
            if end > split:
                out.append(_Span(split, end, "comm", ev))
            return out
        return [_Span(start, end, "comm", ev)]
    if ev.category == "fault":
        if ev.label == "crash":
            # The crash span marks when the failure happened, back in time
            # over work that was already attributed; the recovery span
            # carries the actual cost.
            return []
        if end > start:
            return [_Span(start, end, "fault", ev)]
        return []
    if ev.category == "partition":
        return []
    return [_Span(start, end, "compute", ev)]


def _tile_rank(
    events: Sequence[TraceEvent], horizon: float
) -> list[_Span]:
    """Tile ``[0, horizon]`` into non-overlapping, classified segments.

    Sweep line over the rank's classified spans: at every boundary the
    highest-priority active span claims the elementary interval; uncovered
    stretches become ``other``.  Ties go to the latest-starting active
    span, so the innermost (most specific) label wins within a phase.
    """
    spans: list[_Span] = []
    for ev in events:
        spans.extend(_classify(ev, horizon))
    if horizon <= 0:
        return []
    bounds: list[tuple[float, int, _Span]] = []
    for sp in spans:
        bounds.append((sp.start, 1, sp))
        bounds.append((sp.end, -1, sp))
    bounds.sort(key=lambda b: b[0])
    tiles: list[_Span] = []
    active: list[_Span] = []
    cursor = 0.0
    i = 0
    n = len(bounds)

    def emit(upto: float) -> None:
        nonlocal cursor
        if upto - cursor <= 0:
            return
        if active:
            best = max(
                active, key=lambda s: (_PRIORITY.get(s.phase, 1), s.start)
            )
            tiles.append(_Span(cursor, upto, best.phase, best.event))
        else:
            tiles.append(_Span(cursor, upto, "other", None))  # type: ignore[arg-type]
        cursor = upto

    while i < n:
        pos = bounds[i][0]
        emit(min(pos, horizon))
        while i < n and bounds[i][0] == pos:
            _, kind, sp = bounds[i]
            if kind == 1:
                active.append(sp)
            else:
                active.remove(sp)
            i += 1
    emit(horizon)
    # Merge adjacent tiles with identical phase+event (sweep boundaries
    # inside one span otherwise fragment it).
    merged: list[_Span] = []
    for t in tiles:
        if merged and merged[-1].phase == t.phase and merged[-1].event is t.event:
            merged[-1].end = t.end
        else:
            merged.append(t)
    return merged


def attribute_phases(
    traces: Sequence[Trace], times: Sequence[float], makespan: float
) -> list[PhaseBreakdown]:
    """Per-rank phase attribution; each row sums exactly to ``makespan``."""
    out = []
    for rank, (tr, t_rank) in enumerate(zip(traces, times)):
        sums = {"compute": 0.0, "comm": 0.0, "wait": 0.0, "fault": 0.0, "other": 0.0}
        for tile in _tile_rank(tr.events, t_rank):
            sums[tile.phase] += tile.end - tile.start
        out.append(
            PhaseBreakdown(
                rank=rank,
                compute=sums["compute"],
                comm=sums["comm"],
                wait=sums["wait"],
                fault=sums["fault"],
                other=sums["other"],
                finish_wait=makespan - t_rank,
            )
        )
    return out


# ----------------------------------------------------------------------
# Timeline utilization
# ----------------------------------------------------------------------
def timeline_stats(traces: Sequence[Trace], makespan: float) -> list[TimelineStats]:
    """Busy/idle accounting per bound timeline."""
    out: list[TimelineStats] = []
    horizon = max(makespan, _EPS)
    for rank, tr in enumerate(traces):
        for name, recs in tr.intervals_by_timeline().items():
            ivs = sorted(((r.start, r.end) for r in recs))
            busy = 0.0
            longest_gap = 0.0
            cover_end = 0.0
            for s, e in ivs:
                if s > cover_end:
                    longest_gap = max(longest_gap, s - cover_end)
                    cover_end = s
                if e > cover_end:
                    busy += e - cover_end
                    cover_end = e
            longest_gap = max(longest_gap, max(0.0, horizon - cover_end))
            out.append(
                TimelineStats(
                    rank=rank,
                    name=name,
                    busy=busy,
                    n_intervals=len(recs),
                    utilization=min(1.0, busy / horizon),
                    idle=max(0.0, horizon - busy),
                    longest_gap=longest_gap,
                )
            )
    return out


# ----------------------------------------------------------------------
# Message-edge matching and critical path
# ----------------------------------------------------------------------
def match_messages(
    traces: Sequence[Trace],
) -> dict[int, tuple[int, TraceEvent]]:
    """Pair receive events with their sends over per-stream FIFOs.

    Returns ``id(recv_event) -> (sender_rank, send_event)``.  The fabric
    delivers per-(src, dst, tag) streams in order, so the n-th send on a
    stream pairs with the n-th receive.  Under fault injection a dropped
    send's record still occupies its slot — the pairing then points at the
    first transmission attempt, which is the correct *causal* origin.
    """
    sends: dict[tuple[int, int, int], list[TraceEvent]] = {}
    for rank, tr in enumerate(traces):
        for ev in tr.events:
            if ev.category == "comm" and ev.label.startswith("send->"):
                key = (rank, ev.meta.get("dst", -1), ev.meta.get("tag", -1))
                sends.setdefault(key, []).append(ev)
    taken: dict[tuple[int, int, int], int] = {}
    edges: dict[int, tuple[int, TraceEvent]] = {}
    for rank, tr in enumerate(traces):
        for ev in tr.events:
            if ev.category == "comm" and ev.label.startswith("recv<-"):
                src = ev.meta.get("src")
                if src is None:
                    continue
                key = (src, rank, ev.meta.get("tag", -1))
                idx = taken.get(key, 0)
                stream = sends.get(key)
                if stream is not None and idx < len(stream):
                    edges[id(ev)] = (src, stream[idx])
                    taken[key] = idx + 1
    return edges


#: Backstop against pathological walks; real chains are far shorter.
_MAX_LINKS = 100_000


def critical_path(
    traces: Sequence[Trace], times: Sequence[float], makespan: float
) -> list[PathLink]:
    """Backward walk from the slowest rank's finish to virtual time zero.

    Returns the chain in chronological order.  Within a rank the phase
    tiling makes consecutive links contiguous; at each ``wait`` link the
    walk crosses the matched message edge, emitting a ``wire`` link for
    the network time so contiguity is preserved across ranks.
    """
    if not times or makespan <= 0:
        return []
    edges = match_messages(traces)
    tilings: list[list[_Span]] = [
        _tile_rank(tr.events, t_rank) for tr, t_rank in zip(traces, times)
    ]
    starts: list[list[float]] = [[sp.start for sp in tiles] for tiles in tilings]

    def seg_at(rank: int, t: float) -> int | None:
        """Index of the segment of ``rank`` containing time ``t``."""
        tiles = tilings[rank]
        if not tiles:
            return None
        i = bisect_right(starts[rank], t) - 1
        if i < 0:
            i = 0
        return min(i, len(tiles) - 1)

    crit_rank = max(range(len(times)), key=lambda r: times[r])
    chain: list[PathLink] = []
    rank = crit_rank
    idx = len(tilings[rank]) - 1 if tilings[rank] else None

    def seg_of_send(rank: int, send: TraceEvent) -> int | None:
        """The sender's segment the walk resumes at: the one holding the
        send's start, or, when the send kept the sender busy for no time
        and another segment starts right there, the one before it (two
        ranks that each send and then wait would otherwise hand the walk
        back and forth)."""
        t = max(send.start, 0.0)
        idx = seg_at(rank, t)
        if idx is not None and send.meta.get("busy_end", send.end) <= send.start:
            tile = tilings[rank][idx]
            if tile.start >= t and tile.event is not send:
                idx = idx - 1 if idx > 0 else None
        return idx

    def link_label(sp: _Span) -> str:
        return sp.event.label if sp.event is not None else "(untraced)"

    while idx is not None and len(chain) < _MAX_LINKS:
        sp = tilings[rank][idx]
        if sp.phase == "wait" and id(sp.event) in edges:
            src_rank, send_ev = edges[id(sp.event)]
            arrival = min(sp.event.meta.get("arrival", sp.end), sp.end)
            chain.append(
                PathLink(
                    rank=rank,
                    phase="wait",
                    label=link_label(sp),
                    start=sp.start,
                    end=sp.end,
                    # Binding margin: how much the receiver's own preceding
                    # work could have grown before the message stopped
                    # being the binding dependency.
                    slack=max(0.0, arrival - sp.start),
                )
            )
            busy_end = send_ev.meta.get("busy_end", send_ev.end)
            chain.append(
                PathLink(
                    rank=src_rank,
                    phase="wire",
                    label=f"wire {src_rank}->{rank}",
                    start=busy_end,
                    end=max(arrival, busy_end),
                )
            )
            rank = src_rank
            idx = seg_of_send(rank, send_ev)
            continue
        chain.append(
            PathLink(
                rank=rank,
                phase=sp.phase,
                label=link_label(sp),
                start=sp.start,
                end=sp.end,
            )
        )
        idx = idx - 1 if idx > 0 else None
    chain.reverse()
    return chain


# ----------------------------------------------------------------------
# Counters and the full report
# ----------------------------------------------------------------------
def aggregate_counters(traces: Iterable[Trace]) -> dict[str, float]:
    """Cluster-wide counter totals (summed across ranks)."""
    out: dict[str, float] = {}
    for tr in traces:
        for name, value in tr.counters.items():
            out[name] = out.get(name, 0.0) + value
    return out


def analyze(result: "SpmdResult", app_makespan: float | None = None) -> RunReport:
    """Build the full :class:`RunReport` from one SPMD run's traces."""
    traces = result.traces
    times = [float(t) for t in result.times]
    makespan = max(times) if times else 0.0
    return RunReport(
        makespan=makespan,
        times=times,
        phases=attribute_phases(traces, times, makespan),
        timelines=timeline_stats(traces, makespan),
        critical_path=critical_path(traces, times, makespan),
        counters=aggregate_counters(traces),
        counters_by_rank=[tr.counters for tr in traces],
        gauges_by_rank=[tr.gauges for tr in traces],
        n_events=sum(len(tr) for tr in traces),
        app_makespan=app_makespan,
    )
