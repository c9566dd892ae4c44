"""Campaign run tables and paper-figure shapes, rendered for terminals.

A completed campaign is a list of run-table rows (one per expanded
point).  This module turns those rows into the shapes the paper's
evaluation section uses:

- the **run table** itself (markdown-compatible, one row per point),
- **speedup bars** per (app, mix) group — the framework-vs-baseline
  bar-chart shape,
- **scaling curves** — speedup vs node count, one series per device mix,
  per app (the Fig. 5 shape), when the nodes axis has >= 2 values,
- a **fault-overhead table** — faulty vs clean makespan ratios for
  points that differ only in their fault plan.

Everything renders through :mod:`repro.metrics` machinery
(:func:`format_table`, :func:`render_bars`, :func:`render_chart`), so
campaign reports look like the rest of the repo's CI output.
"""

from __future__ import annotations

from typing import Any

from repro.metrics.ascii_chart import render_bars, render_chart
from repro.metrics.reporting import format_table

#: Columns shown in the rendered run table (subset of each row's keys).
TABLE_COLUMNS = (
    "app",
    "preset",
    "nodes",
    "mix",
    "scale",
    "seed",
    "faulty",
    "state",
    "cached",
    "makespan",
    "speedup",
)


def _fmt_rows(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    out = []
    for row in rows:
        r = dict(row)
        for key in ("makespan", "seq_time"):
            if isinstance(r.get(key), float):
                r[key] = f"{r[key]:.4f}"
        if isinstance(r.get("speedup"), float):
            r["speedup"] = f"{r['speedup']:.2f}x"
        if r.get("seed") is None:
            r["seed"] = "-"
        out.append(r)
    return out


def run_table(rows: list[dict[str, Any]], *, title: str = "") -> str:
    """The campaign run table, one row per expanded point."""
    return format_table(_fmt_rows(rows), columns=list(TABLE_COLUMNS), title=title)


def speedup_bars(rows: list[dict[str, Any]]) -> str | None:
    """Mean speedup per (app, mix) group as horizontal bars."""
    groups: dict[str, list[float]] = {}
    for row in rows:
        if row.get("speedup") is None:
            continue
        groups.setdefault(f"{row['app']}/{row['mix']}", []).append(row["speedup"])
    if not groups:
        return None
    items = [(name, sum(v) / len(v)) for name, v in sorted(groups.items())]
    return render_bars(
        items,
        fmt="{:6.2f}x",
        title="mean speedup vs sequential (by app/mix)",
    )


def scaling_charts(rows: list[dict[str, Any]]) -> list[str]:
    """Speedup-vs-nodes curves per app (one series per mix).

    Only apps with >= 2 distinct node counts chart; single-node campaigns
    have no curve to draw.
    """
    charts: list[str] = []
    apps = sorted({r["app"] for r in rows})
    for app in apps:
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            if row["app"] != app or row.get("speedup") is None or row.get("faulty"):
                continue
            series.setdefault(row["mix"], []).append((row["nodes"], row["speedup"]))
        nodes = {x for pts in series.values() for x, _ in pts}
        if len(nodes) < 2:
            continue
        for pts in series.values():
            pts.sort()
        charts.append(
            render_chart(
                series,
                title=f"{app}: speedup vs nodes (markers = device mixes)",
                xlabel="nodes",
                ylabel="speedup",
                height=12,
            )
        )
    return charts


def _clean_key(row: dict[str, Any]) -> tuple:
    return (
        row["app"], row["preset"], row["nodes"], row["mix"], row["scale"], row["seed"],
    )


def fault_overhead(rows: list[dict[str, Any]]) -> str | None:
    """Faulty-vs-clean makespan ratios for otherwise-identical points."""
    clean: dict[tuple, float] = {}
    for row in rows:
        if not row.get("faulty") and row.get("makespan") is not None:
            clean[_clean_key(row)] = row["makespan"]
    out_rows = []
    for row in rows:
        if not row.get("faulty") or row.get("makespan") is None:
            continue
        base = clean.get(_clean_key(row))
        entry = {
            "app": row["app"],
            "nodes": row["nodes"],
            "mix": row["mix"],
            "seed": "-" if row["seed"] is None else row["seed"],
            "faulty_makespan": f"{row['makespan']:.4f}",
            "clean_makespan": "-" if base is None else f"{base:.4f}",
            "overhead": "-" if base is None else f"{row['makespan'] / base:.3f}x",
            "drops": row.get("fault_drops", "-"),
            "crashes": row.get("fault_crashes", "-"),
        }
        out_rows.append(entry)
    if not out_rows:
        return None
    return format_table(out_rows, title="fault overhead (faulty / clean makespan)")


def render_report(doc: dict[str, Any]) -> str:
    """Full terminal report from a :meth:`CampaignResult.to_dict` document."""
    rows = doc.get("rows") or []
    stats = doc.get("stats") or {}
    name = doc.get("campaign", "campaign")
    parts = [run_table(rows, title=f"campaign {name!r} — {len(rows)} point(s)")]
    summary = []
    for key in ("points", "submitted", "deduplicated", "executed",
                "cache_hits", "store_hits", "wall_s"):
        if key in stats:
            summary.append(f"{key}={stats[key]}")
    if summary:
        parts.append("  ".join(summary))
    bars = speedup_bars(rows)
    if bars:
        parts.append(bars)
    parts.extend(scaling_charts(rows))
    faults = fault_overhead(rows)
    if faults:
        parts.append(faults)
    failures = [r for r in rows if r.get("state") != "done"]
    if failures:
        lines = [f"{len(failures)} point(s) did not complete:"]
        for r in failures:
            lines.append(
                f"  - point {r['index']} ({r['app']}/{r['preset']}/n{r['nodes']}): "
                f"{r.get('state')}: {r.get('error')}"
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)
