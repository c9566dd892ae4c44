"""Table II — perfect vs. actual intra-node speedups (CPU+1GPU, CPU+2GPU).

The *perfect* columns assume no scheduling/synchronization/communication
overheads (1 + n_gpus * gpu_ratio); the *actual* columns come from the
simulated heterogeneous execution.  The paper's values are the ledger's
Table II and GPU:CPU rows (``repro.metrics.figures.claims``), printed with
the table.
"""

from __future__ import annotations

from repro.metrics import figures, format_table


def test_table2_intranode(benchmark, scale, report):
    rows = benchmark.pedantic(figures.table2_intranode, args=(scale,), rounds=1, iterations=1)
    table = format_table(rows, title=f"Table II: perfect vs actual intra-node speedup [{scale}]")
    claims = figures.ledger({scale: {"table2_intranode": rows}})
    report("table2_intranode", table + "\n\n" + format_table(
        claims, figures.LEDGER_COLUMNS, title=f"paper claims measured at {scale}"))
    for r in rows:
        assert r["actual_1gpu"] <= r["perfect_1gpu"] * 1.02, r
        assert r["actual_2gpu"] <= r["perfect_2gpu"] * 1.02, r
