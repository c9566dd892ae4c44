"""Fig. 8 — single-GPU framework vs hand-written CUDA benchmarks.

Framework Kmeans against the Rodinia kernel (10 M points), framework Sobel
against the texture-memory SDK kernel (8192^2).  The paper's ratios are the
ledger's Fig. 8 rows (``repro.metrics.figures.claims``), printed with the table.
"""

from __future__ import annotations

from repro.metrics import figures, format_table


def test_fig8_gpu_baselines(benchmark, scale, report):
    rows = benchmark.pedantic(figures.fig8_gpu_baselines, args=(scale,), rounds=1, iterations=1)
    table = format_table(rows, title=f"Fig. 8: framework vs hand-written CUDA [{scale}]")
    claims = figures.ledger({scale: {"fig8_gpu_baselines": rows}})
    report("fig8_gpu_baselines", table + "\n\n" + format_table(
        claims, figures.LEDGER_COLUMNS, title=f"paper claims measured at {scale}"))
    for r in rows:
        assert 1.0 <= r["fw_over_cuda"] < 1.35, (
            f"framework should be modestly slower than hand-tuned CUDA: {r}"
        )
