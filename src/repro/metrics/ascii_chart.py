"""Terminal line charts for benchmark series (Fig. 5-style curves).

The environment this reproduction targets has no display; these render
log-log speedup curves as monospace charts so the figure *shapes* (who
wins, where curves cross, how scaling bends) are visible in CI output and
EXPERIMENTS.md.
"""

from __future__ import annotations

import math

from repro.util.errors import ValidationError

_MARKERS = "ox+*#@%&"

#: Plot columns of every chart.
_WIDTH = 64

#: Cells of every bar.
_BAR_WIDTH = 40


def render_chart(
    series: dict[str, list[tuple[float, float]]],
    *,
    height: int = 18,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render named (x, y) series, all positive, as a log-log ASCII chart.

    >>> print(render_chart({"a": [(1, 1), (2, 2)]}, height=5, title="t"))  # doctest: +SKIP
    """
    if not series or all(not pts for pts in series.values()):
        raise ValidationError("render_chart needs at least one non-empty series")
    if height < 4:
        raise ValidationError("chart too small to be legible")

    def log(v: float) -> float:
        if v <= 0:
            raise ValidationError("a log-log chart requires positive values")
        return math.log10(v)

    xs = [log(x) for pts in series.values() for x, _ in pts]
    ys = [log(y) for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    canvas = [[" "] * _WIDTH for _ in range(height)]
    for (name, pts), marker in zip(series.items(), _MARKERS):
        for x, y in pts:
            col = int(round((log(x) - x_lo) / x_span * (_WIDTH - 1)))
            row = int(round((log(y) - y_lo) / y_span * (height - 1)))
            canvas[height - 1 - row][col] = marker

    raw_lo, raw_hi = 10**y_lo, 10**y_hi
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(canvas):
        label = ""
        if i == 0:
            label = f"{raw_hi:.3g}"
        elif i == height - 1:
            label = f"{raw_lo:.3g}"
        lines.append(f"{label:>8} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * _WIDTH)
    x_raw_lo, x_raw_hi = 10**x_lo, 10**x_hi
    footer = f"{x_raw_lo:.3g}".ljust(_WIDTH // 2) + f"{x_raw_hi:.3g}".rjust(_WIDTH // 2)
    lines.append(" " * 10 + footer)
    if xlabel or ylabel:
        lines.append(" " * 10 + f"x: {xlabel}   y: {ylabel}".strip())
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def render_bars(
    items: list[tuple[str, float]],
    *,
    max_value: float | None = None,
    fmt: str = "{:6.1%}",
    title: str = "",
) -> str:
    """Render labeled values as horizontal ASCII bars (e.g. utilization).

    ``max_value`` sets the full-bar scale (default: the largest value, or
    1.0 if everything is zero).  Values are clamped into [0, max_value].

    >>> print(render_bars([("gpu0", 0.75), ("cpu0", 0.5)], max_value=1.0))
    gpu0  75.0% |##############################          |
    cpu0  50.0% |####################                    |
    """
    if not items:
        raise ValidationError("render_bars needs at least one item")
    scale = max_value if max_value is not None else (max(v for _, v in items) or 1.0)
    if scale <= 0:
        raise ValidationError(f"max_value must be > 0, got {scale}")
    label_w = max(len(name) for name, _ in items)
    lines = [title] if title else []
    for name, value in items:
        filled = int(round(min(max(value, 0.0), scale) / scale * _BAR_WIDTH))
        bar = "#" * filled + " " * (_BAR_WIDTH - filled)
        lines.append(f"{name.ljust(label_w)} {fmt.format(value).strip():>6} |{bar}|")
    return "\n".join(lines)


def fig5_chart(rows: list[dict], app: str) -> str:
    """Fig. 5 sub-plot for one app: speedup-vs-nodes per device mix."""
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row["app"] != app:
            continue
        series.setdefault(row["mix"], []).append((row["nodes"], row["speedup"]))
    if not series:
        raise ValidationError(f"no rows for app {app!r}")
    for pts in series.values():
        pts.sort()
    return render_chart(
        series,
        height=16,
        title=f"Fig. 5 — {app}: speedup over 1 CPU core (log-log)",
        xlabel="nodes",
        ylabel="speedup",
    )
