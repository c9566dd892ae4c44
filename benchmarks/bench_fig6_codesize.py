"""Fig. 6 — code-size comparison: framework user programs vs MPI baselines.

Counts logical lines (non-blank, non-comment, non-docstring) of the
user-level framework programs in ``examples/`` against the hand-written
per-core MPI implementations in ``repro.apps.baselines``.  The paper's
ratios are the ledger's Fig. 6 rows (``repro.metrics.figures.claims``),
printed with the table.
"""

from __future__ import annotations

from repro.metrics import figures, format_table


def test_fig6_code_sizes(benchmark, report):
    rows = benchmark.pedantic(figures.fig6_code_sizes, rounds=1, iterations=1)
    table = format_table(rows, title="Fig. 6: code sizes (framework vs hand-written MPI)")
    claims = figures.ledger({"quick": {"fig6_code_sizes": rows}})
    report("fig6_codesize", table + "\n\n" + format_table(
        claims, figures.LEDGER_COLUMNS, title="paper claims"))
    for r in rows:
        assert r["ratio"] < 1.0, f"framework {r['app']} should be smaller than MPI version"
