"""Plain-text rendering of a :class:`~repro.obs.analysis.RunReport`'s
dict form (:meth:`~repro.obs.analysis.RunReport.to_dict`, a traced job
payload's ``report``), so a report renders the same however it arrived.

Built on the repo's existing terminal primitives —
:func:`repro.metrics.reporting.format_table` for the phase / critical-path
tables and :func:`repro.metrics.ascii_chart.render_bars` for per-timeline
utilization — so ``repro profile`` output matches the house style of the
figure and benchmark reports.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any

from repro.metrics.ascii_chart import render_bars
from repro.metrics.reporting import format_table

#: Critical-path links shown; a longer path shows its longest ones.
TOP_LINKS = 12


def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}us"


def _utilization_rows(timelines: list[dict[str, Any]]) -> list[tuple[str, float]]:
    """Chart rows, one per timeline, except a CPU's core lines: those no
    interval touched are not drawn, and a CPU with at most one busy core
    line (a static partition charges its whole split there) is one row
    named for the device."""
    rows: list[tuple[str, float]] = []
    for (rank, device), group in groupby(
        timelines, key=lambda tl: (tl["rank"], tl["name"].partition(".core")[0])
    ):
        lines = list(group)
        if ".core" in lines[0]["name"]:
            lines = [tl for tl in lines if tl["n_intervals"]]
            if len(lines) <= 1:
                rows.append((f"r{rank}:{device}", lines[0]["utilization"] if lines else 0.0))
                continue
        rows.extend((f"r{rank}:{tl['name']}", tl["utilization"]) for tl in lines)
    return rows


def render_text_report(report: dict[str, Any]) -> str:
    """Render the full observability report (its dict form) for terminal output."""
    parts: list[str] = []
    makespan, app_makespan = report["makespan"], report["app_makespan"]
    parts.append(f"makespan: {makespan:.9g} s  ({report['nranks']} ranks)")
    if app_makespan is not None and app_makespan != makespan:
        parts.append(
            f"app-reported makespan: {app_makespan:.9g} s "
            "(extrapolated beyond the simulated steps)"
        )

    parts.append("")
    parts.append(
        format_table(
            report["phases"],
            columns=[
                "rank", "compute", "comm", "wait", "fault", "other",
                "finish_wait", "total",
            ],
            title="Phase attribution (seconds; rows sum to the makespan)",
        )
    )

    if report["timelines"]:
        items = _utilization_rows(report["timelines"])
        parts.append("")
        parts.append(
            render_bars(
                items,
                max_value=1.0,
                title="Timeline utilization (busy fraction of the makespan)",
            )
        )

    if report["critical_path"]:
        shown = report["critical_path"]
        note = ""
        if len(shown) > TOP_LINKS:
            by_dur = sorted(shown, key=lambda link: -link["duration"])[:TOP_LINKS]
            keep = {id(link) for link in by_dur}
            shown = [link for link in shown if id(link) in keep]
            note = (
                f" (longest {TOP_LINKS} of {len(report['critical_path'])} links)"
            )
        parts.append("")
        parts.append(
            format_table(
                [
                    {
                        "rank": link["rank"],
                        "phase": link["phase"],
                        "label": link["label"],
                        "start": _fmt_us(link["start"]),
                        "duration": _fmt_us(link["duration"]),
                        "slack": _fmt_us(link["slack"]),
                    }
                    for link in shown
                ],
                title="Critical path (chronological)" + note,
            )
        )

    if report["counters"]:
        parts.append("")
        parts.append(
            format_table(
                [
                    {"counter": name, "cluster_total": value}
                    for name, value in sorted(report["counters"].items())
                ],
                title="Counters (summed across ranks)",
            )
        )

    gauges = [
        {"rank": rank, "gauge": name, "value": value}
        for rank, gd in enumerate(report["gauges_by_rank"])
        for name, value in sorted(gd.items())
    ]
    if gauges:
        parts.append("")
        parts.append(format_table(gauges, title="Gauges (latest value per rank)"))

    parts.append("")
    parts.append(f"events recorded: {report['n_events']}")
    return "\n".join(parts)
