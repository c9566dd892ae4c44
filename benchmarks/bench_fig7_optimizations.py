"""Fig. 7 — effect of overlap (Moldyn, Sobel) and tiling (Sobel) by nodes.

The paper's gains are the ledger's Fig. 7 rows
(``repro.metrics.figures.claims``), printed with the table.
"""

from __future__ import annotations

from repro.metrics import figures, format_table


def test_fig7_optimizations(benchmark, scale, report):
    rows = benchmark.pedantic(figures.fig7_optimizations, args=(scale,), rounds=1, iterations=1)
    table = format_table(rows, title=f"Fig. 7: optimization effects [{scale}]")
    claims = figures.ledger({scale: {"fig7_optimizations": rows}})
    report("fig7_optimizations", table + "\n\n" + format_table(
        claims, figures.LEDGER_COLUMNS, title=f"paper claims measured at {scale}"))
    for r in rows:
        assert r["gain"] >= 0.99, f"optimization should never hurt: {r}"
