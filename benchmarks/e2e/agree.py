#!/usr/bin/env python3
"""Do two result sets of the same code agree within the benchmark's bounds?

    python3 benchmarks/e2e/agree.py A.json B.json

A result set is what ``run.py --out FILE`` accumulates: one record per run.
Per workload x end-to-end metric this prints both medians, each set's spread
(interquartile range as a share of its median), how much worse B's median is
than A's, and ``pass`` / ``BEYOND-BOUND`` against the bound in
``BENCHMARK.json``.  The timings of the same runs follow with the same
columns and no verdict: they are per-layer metrics and have no bound.  Simulated time must not move between runs of the same
code: for every seed that both sets ran, ``virtual_makespan_s`` must be
``repr``-identical in all its runs, and the sets must share at least one seed
per workload, so take both with the same seed list.
Exit code 1 if any pair is beyond its bound or any makespan moved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a result set, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def spread(values: list[float]) -> float:
    """IQR / median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    beyond = 0
    print(f"{'workload':<15} {'metric':<15} {'n':>5} {'median A':>11} {'median B':>11} "
          f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}")
    for workload in (w["name"] for w in bench["workloads"]):
        runs_a, runs_b = a.get(workload, []), b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:<15} missing from one set")
            beyond += 1
            continue
        timings = [m for m in bench["per_layer"] if m["name"] in runs_a[0].get("timing", {})]
        for metric in bench["end_to_end"] + timings:
            name, bound = metric["name"], metric.get("bound")
            field = "metrics" if bound is not None else "timing"
            va = [r[field][name] for r in runs_a]
            vb = [r[field][name] for r in runs_b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            if bound is None:
                verdict = "    - no bound"
            else:
                # As the driver does: set-up's own spread is not held to the bound.
                steady = name == "setup_s" or max(spread(va), spread(vb)) <= bound
                ok = worse <= bound and steady
                beyond += not ok
                verdict = f"{bound:>5.0%} {'pass' if ok else 'BEYOND-BOUND'}"
            print(f"{workload:<15} {name:<15} {len(va):>2}/{len(vb):<2} {ma:>11.5g} {mb:>11.5g} "
                  f"{spread(va):>9.1%} {spread(vb):>9.1%} {worse:>+8.1%} {verdict}")
        by_seed: dict[int, set[str]] = {}
        for run in runs_a + runs_b:
            by_seed.setdefault(run["seed"], set()).add(run["virtual_makespan_s"])
        shared = {r["seed"] for r in runs_a} & {r["seed"] for r in runs_b}
        moved = {seed: v for seed, v in by_seed.items() if len(v) > 1}
        beyond += bool(moved) or not shared
        if moved:
            verdict = f"MOVED between runs of one seed: {moved}"
        elif not shared:
            verdict = "UNCHECKED: the two sets share no seed"
        else:
            verdict = (f"repr-identical per seed ({len(shared)} seeds ran in both sets, "
                       f"{len(set().union(*by_seed.values()))} distinct values)")
        print(f"{workload:<15} virtual_makespan_s: {verdict}")
        bad = [r["seed"] for r in runs_a + runs_b if not r["correct"]]
        if bad:
            beyond += 1
            print(f"{workload:<15} INCORRECT runs at seeds {bad}")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
