"""Exporters: Chrome-trace/Perfetto JSON and machine-readable report JSON.

The Chrome trace uses the classic ``traceEvents`` format understood by
``chrome://tracing`` and https://ui.perfetto.dev: one *process* per rank,
one *thread track* per resource :class:`~repro.sim.timeline.Timeline`
(CPU cores, GPU copy/compute engines, NIC egress/ingress), plus one track
per span category (``comm``, ``compute``, ``fault``...).  Virtual seconds
become microseconds (``ts``/``dur``), the unit trace viewers expect.

Span events within one category can legitimately overlap in virtual time
(two in-flight sends, per-device phase spans); complete ("X") events on
one track would render garbled, so overlapping events are spread across
numbered overflow lanes (``comm``, ``comm+1``, ...) by a greedy interval
colouring.  Zero-duration events export as instants ("i").
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Sequence

from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SpmdResult

_US = 1e6  # virtual seconds -> trace microseconds


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars (and anything else) into JSON-native types."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, str)) or value is None:
        return value
    for caster in (int, float):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def _assign_lanes(events: list[tuple[float, float, Any]]) -> list[int]:
    """Greedy interval colouring: lane index per event (input order kept)."""
    order = sorted(range(len(events)), key=lambda i: (events[i][0], events[i][1]))
    lane_free: list[float] = []
    lanes = [0] * len(events)
    for i in order:
        start, end, _ = events[i]
        for lane, free_at in enumerate(lane_free):
            if start >= free_at:
                lanes[i] = lane
                lane_free[lane] = max(end, start)
                break
        else:
            lanes[i] = len(lane_free)
            lane_free.append(max(end, start))
    return lanes


def export_chrome_trace(
    traces: Sequence[Trace], makespan: float | None = None
) -> dict[str, Any]:
    """Build a Chrome-trace dict from per-rank traces."""
    events: list[dict[str, Any]] = []
    for rank, tr in enumerate(traces):
        pid = rank
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"rank {rank}"},
            }
        )
        tid_of: dict[str, int] = {}

        def tid_for(track: str, pid=pid, tid_of=tid_of) -> int:
            tid = tid_of.get(track)
            if tid is None:
                tid = len(tid_of)
                tid_of[track] = tid
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
            return tid

        # One track per resource timeline.  Declare every bound timeline
        # up front so idle resources still show.
        for name in tr.timeline_names:  # bind order
            tid_for(name)
        for rec in tr.intervals:
            events.append(
                {
                    "ph": "X",
                    "name": rec.label or rec.timeline,
                    "cat": "resource",
                    "ts": rec.start * _US,
                    "dur": (rec.end - rec.start) * _US,
                    "pid": pid,
                    "tid": tid_for(rec.timeline),
                }
            )

        # Category tracks for span events, with overflow lanes where spans
        # of one category overlap.
        by_cat: dict[str, list] = {}
        for ev in tr.events:
            by_cat.setdefault(ev.category, []).append((ev.start, ev.end, ev))
        for cat in sorted(by_cat):
            cat_events = by_cat[cat]
            lanes = _assign_lanes(cat_events)
            for (start, end, ev), lane in zip(cat_events, lanes):
                track = cat if lane == 0 else f"{cat}+{lane}"
                args = {k: _json_safe(v) for k, v in ev.meta.items()}
                entry: dict[str, Any] = {
                    "name": ev.label,
                    "cat": cat,
                    "ts": start * _US,
                    "pid": pid,
                    "tid": tid_for(track),
                    "args": args,
                }
                if end > start:
                    entry["ph"] = "X"
                    entry["dur"] = (end - start) * _US
                else:
                    entry["ph"] = "i"
                    entry["s"] = "t"
                events.append(entry)

    out: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if makespan is not None:
        out["otherData"] = {"makespan_s": makespan}
    return out


def validate_chrome_trace(obj: Any) -> None:
    """Validate the Chrome-trace JSON schema; raises ``ValueError``.

    Checks the shape viewers actually require: a ``traceEvents`` list whose
    entries have a known phase, a name, integer pid/tid, and — for complete
    events — non-negative numeric ``ts``/``dur``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"trace must be a JSON object, got {type(obj).__name__}")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must have a 'traceEvents' list")
    if "displayTimeUnit" in obj and obj["displayTimeUnit"] not in ("ms", "ns"):
        raise ValueError(f"displayTimeUnit must be 'ms' or 'ns', got {obj['displayTimeUnit']!r}")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where}: event must be an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            raise ValueError(f"{where}: unsupported phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise ValueError(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise ValueError(f"{where}: {key} must be an integer")
        if ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"{where}: metadata event needs args.name")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: dur must be a non-negative number")
    # The whole object must round-trip through JSON (no numpy scalars etc.).
    try:
        json.dumps(obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace is not JSON-serializable: {exc}") from exc


def write_chrome_trace(
    path: str, traces: Sequence[Trace], makespan: float | None = None
) -> dict[str, Any]:
    """Export, validate, and write a Chrome trace; returns the dict."""
    obj = export_chrome_trace(traces, makespan)
    validate_chrome_trace(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return obj
