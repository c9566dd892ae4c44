"""ASCII chart rendering."""

import pytest

from repro.metrics.ascii_chart import fig5_chart, render_bars, render_chart
from repro.util.errors import ValidationError


def test_basic_chart_contains_markers_and_legend():
    text = render_chart(
        {"cpu": [(1, 10), (32, 300)], "gpu": [(1, 30), (32, 900)]},
        title="T", xlabel="nodes", ylabel="speedup",
    )
    assert "T" in text
    assert "o=cpu" in text and "x=gpu" in text
    assert "o" in text and "x" in text
    assert "x: nodes" in text


def test_axis_extremes_labeled():
    text = render_chart({"s": [(1, 10), (32, 1000)]})
    assert "1e+03" in text or "1000" in text
    assert "10" in text
    assert "32" in text


def test_monotone_series_rises_left_to_right():
    text = render_chart({"s": [(1, 1), (2, 10), (4, 100)]}, height=10)
    lines = [l.split("|", 1)[1] for l in text.splitlines() if "|" in l]
    first_col = min(i for line in lines for i, c in enumerate(line) if c == "o")
    top_row = min(r for r, line in enumerate(lines) if "o" in line)
    bottom_row = max(r for r, line in enumerate(lines) if "o" in line)
    assert top_row < bottom_row  # spans vertically
    assert lines[top_row].index("o") > first_col  # higher values further right


def test_validation():
    with pytest.raises(ValidationError):
        render_chart({})
    with pytest.raises(ValidationError):
        render_chart({"s": [(0, 1)]})
    with pytest.raises(ValidationError):
        render_chart({"s": [(1, -1)]})
    with pytest.raises(ValidationError):
        render_chart({"s": [(1, 1)]}, height=3)


def bar(filled):
    return "|" + "#" * filled + " " * (40 - filled) + "|"


def test_render_bars_basic():
    text = render_bars(
        [("gpu0.compute", 0.75), ("cpu0.core0", 0.5)],
        max_value=1.0,
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "gpu0.compute  75.0% " + bar(30)
    assert lines[2] == "cpu0.core0    50.0% " + bar(20)


def test_render_bars_autoscale_and_clamping():
    # Without max_value the largest value spans the full width.
    text = render_bars([("a", 2.0), ("b", 1.0)], fmt="{:.1f}")
    lines = text.splitlines()
    assert bar(40) in lines[0]
    assert bar(20) in lines[1]
    # Values outside [0, max] clamp rather than overflow the bar.
    text = render_bars([("a", 5.0), ("b", -1.0)], max_value=1.0, fmt="{:.0f}")
    assert bar(40) in text.splitlines()[0]
    assert bar(0) in text.splitlines()[1]


def test_render_bars_all_zero_values():
    text = render_bars([("a", 0.0)])
    assert bar(0) in text


def test_render_bars_validation():
    with pytest.raises(ValidationError):
        render_bars([])
    with pytest.raises(ValidationError):
        render_bars([("a", 1.0)], max_value=0.0)


def test_fig5_chart_from_rows():
    rows = [
        {"app": "kmeans", "nodes": 1, "mix": "cpu", "speedup": 11.0},
        {"app": "kmeans", "nodes": 4, "mix": "cpu", "speedup": 44.0},
        {"app": "kmeans", "nodes": 1, "mix": "cpu+2gpu", "speedup": 69.0},
        {"app": "kmeans", "nodes": 4, "mix": "cpu+2gpu", "speedup": 270.0},
        {"app": "other", "nodes": 1, "mix": "cpu", "speedup": 5.0},
    ]
    text = fig5_chart(rows, "kmeans")
    assert "kmeans" in text
    assert "cpu+2gpu" in text
    with pytest.raises(ValidationError):
        fig5_chart(rows, "nonexistent")
