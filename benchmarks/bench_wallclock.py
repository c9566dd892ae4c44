#!/usr/bin/env python
"""Exact-value gate over the functional layer, plus one timed case.

Each row of :data:`ROWS` runs one pinned workload once and yields only
exact values: virtual makespans, an iteration count, the Kmeans emit
checksum, job counts and import facts.  :func:`compare` checks every one
of them by ``repr`` against the committed ``BENCH_wallclock.json``, and
fails unless the record and the baseline list the same cases and keys::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --baseline BENCH_wallclock.json
    PYTHONPATH=src python benchmarks/bench_wallclock.py --out BENCH_wallclock.json

The one host-time measurement is ``obs_overhead``: heat3d with and without
``trace=True``, 21 alternating pairs, their median ratio gated at 5 %
within the run.  Every other host-time number is measured by
``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.apps import heat3d, kmeans, minimd, moldyn, sobel
from repro.apps.baselines import mpi_kmeans
from repro.apps.extra import jacobi2d
from repro.campaign import CampaignRunner, CampaignSpec
from repro.cluster.presets import latency_cluster, ohio_cluster
from repro.core.env import RuntimeEnv
from repro.core.reduction_object import DenseReductionObject
from repro.data.grids import heat3d_initial, synthetic_image
from repro.data.points import clustered_points
from repro.serve import JobSpec, execute_job
from repro.sim.engine import spmd_run

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Shared by the ``kmeans`` app row and the ``kmeans_emit`` checksum.
KMEANS = kmeans.KmeansConfig(functional_points=60_000, iterations=1)

#: Small per-point workloads for the two campaign rows.
CAMPAIGN_PARAMS = {
    "heat3d": {"functional_shape": [24, 24, 24], "simulated_steps": 2},
    "kmeans": {"functional_points": 20_000, "iterations": 1},
}


def _app(mod, config) -> dict:
    """One app run on four ohio nodes."""
    return {"makespan": mod.run(ohio_cluster(4), config).makespan}


def _stencil_steps(mod, config, initial, parameter=None) -> dict:
    """The bare stencil step program: configure, load the grid, run the steps."""

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu+2gpu").get_stencil()
        st.configure(
            mod.make_kernel(ctx.node),
            config.functional_shape,
            model_shape=config.shape,
            parameter=parameter,
        )
        st.set_global_grid(initial(config.functional_shape, seed=config.seed))
        st.run(config.simulated_steps)

    return {"makespan": spmd_run(prog, ohio_cluster(4)).makespan}


def _stencil_converge() -> dict:
    """Jacobi2D's fused stencil+reduce loop; the stop iteration is pinned too."""
    config = jacobi2d.Jacobi2DConfig(shape=(32, 32), tol=1e-3, max_iters=200)
    run = jacobi2d.run(ohio_cluster(4), config, mix="cpu+2gpu")
    return {"makespan": run.makespan, "iterations": run.spmd.values[0]["iterations"]}


def _stencil_timeblock() -> dict:
    """Temporal blocking over k in {1, 2, 4} on the latency-dominated preset.

    A fixed sweep count (the tolerance is out of reach) gives every k the
    same math, and each doubling of k must strictly shrink the makespan.
    """
    config = jacobi2d.Jacobi2DConfig(shape=(48, 48), tol=1e-12, max_iters=24)
    span = {
        k: jacobi2d.run(latency_cluster(2), config, mix="cpu", time_block=k).makespan
        for k in (1, 2, 4)
    }
    if not span[4] < span[2] < span[1]:
        raise AssertionError(
            f"temporal blocking must be monotone on the latency preset: "
            f"k=1 {span[1]!r}, k=2 {span[2]!r}, k=4 {span[4]!r}"
        )
    return {"makespan": span[4], "makespan_k1": span[1], "makespan_k2": span[2]}


def _kmeans_emit() -> dict:
    """Kmeans's emit over the chunk sizes the GR runtime schedules.

    No SPMD machinery: the checksum is the bitwise pin of the emit math and
    the reduction object's insert path.
    """
    points, _ = clustered_points(KMEANS.functional_points, KMEANS.k, KMEANS.dims, seed=KMEANS.seed)
    centers = points[: KMEANS.k].astype(np.float64)
    emit = kmeans.make_emit(KMEANS)
    chunk = max(16, len(points) // 512)
    obj = DenseReductionObject(KMEANS.k, KMEANS.dims + 1, "sum", np.float64)
    for start in range(0, len(points), chunk):
        emit(obj, points[start : start + chunk], start, centers)
    return {"checksum": float(np.sum(obj.as_array()))}


def _obs_overhead() -> dict:
    """The one timed case: heat3d with and without ``trace=True``.

    One untimed run of each arm, then :data:`OBS_PAIRS` plain / traced
    pairs, alternating which arm runs first; the gated ratio is the median
    of the per-pair ratios.  One run of ~60 ms spreads about 8 % from the
    next on a shared 2-vCPU host, so a ratio of best walls (or an arm that
    always runs first) flakes at a 5 % limit, where the median of 21
    adjacent pairs moves by about 1 %.  One rank on a large grid:
    multi-rank runs carry rendezvous jitter far above 5 %, and a sub-10 ms
    run sits in the timer's noise floor.
    """
    cluster = ohio_cluster(1)
    config = heat3d.Heat3DConfig(functional_shape=(96, 96, 96), simulated_steps=8)
    spans = {}

    def wall(trace: bool) -> float:
        t0 = time.perf_counter()
        spans[trace] = heat3d.run(cluster, config, trace=trace).makespan
        return time.perf_counter() - t0

    wall(False)
    wall(True)
    ratios = []
    for i in range(OBS_PAIRS):
        first = i % 2 == 1
        walls = {first: wall(first)}
        walls[not first] = wall(not first)
        ratios.append(walls[True] / max(walls[False], 1e-9))
    if spans[True] != spans[False]:
        raise AssertionError(
            f"instrumentation changed the virtual makespan: "
            f"{spans[False]!r} -> {spans[True]!r}"
        )
    return {"overhead_ratio": round(statistics.median(ratios), 4), "makespan": spans[True]}


def _pingpong() -> dict:
    """2 000 round trips between two ranks of one node."""

    def prog(ctx, n=2_000):
        peer = 1 - ctx.rank
        for i in range(n):
            if ctx.rank == 0:
                ctx.comm.send(i, peer, tag=1)
                ctx.comm.recv(source=peer, tag=2)
            else:
                ctx.comm.send(ctx.comm.recv(source=peer, tag=1), peer, tag=2)

    return {"makespan": spmd_run(prog, ohio_cluster(1), ranks_per_node=2).makespan}


def _baseline_ranks() -> dict:
    """The hand-written MPI Kmeans at paper scale: 32 nodes x 12 ranks."""
    config = kmeans.KmeansConfig(functional_points=96_000, iterations=2)
    run = mpi_kmeans.run(ohio_cluster(32), config)
    return {"makespan": run.makespan, "ranks": len(run.spmd.values)}


def _campaign(name: str, axes: dict) -> CampaignSpec:
    return CampaignSpec.from_dict(
        {"name": name, "axes": axes, "app_params": CAMPAIGN_PARAMS, "backend": None}
    )


def _job_workers() -> dict:
    """The inline 24-point campaign plus one heat3d@64 job."""
    axes = {"app": ["heat3d", "kmeans"], "nodes": [1, 2], "seed": list(range(6))}
    run = CampaignRunner(_campaign("job-workers", axes), store=None).run()
    if not run.ok:
        raise AssertionError(f"campaign failed: {run.failures()}")
    wide = execute_job(JobSpec(app="heat3d", nodes=64, mix="cpu"))
    spans = [row["makespan"] for row in run.rows]
    return {"campaign_points": len(spans), "makespan": spans + [wide["makespan"]]}


def _campaign_throughput() -> dict:
    """The 8-point campaign, cold then warm over one fresh result store.

    ``jobs`` is what the cold run executed; ``warm_rerun_executed`` must be
    0, since the store answers every repeated point.
    """
    axes = {
        "app": ["heat3d", "kmeans"],
        "preset": "laptop",
        "mix": "cpu",
        "nodes": [1, 2],
        "seed": [0, 1],
    }
    campaign = _campaign("bench", axes)
    with tempfile.TemporaryDirectory() as store:
        cold = CampaignRunner(campaign, store=store, rank_budget=64).run()
        warm = CampaignRunner(campaign, store=store, rank_budget=64).run()
    if not cold.ok:
        raise AssertionError(f"campaign failed: {cold.failures()}")
    return {
        "jobs": cold.stats["executed"],
        "warm_rerun_executed": warm.stats["executed"],
        "warm_store_hits": warm.stats["store_hits"],
        "makespan": [row["makespan"] for row in cold.rows],
    }


#: One served job in a fresh interpreter, reporting whether scipy got loaded.
_COLD_START_JOB = """
import json, sys
from repro.serve import JobSpec, execute_job
payload = execute_job(JobSpec(app="%s", nodes=2, preset="laptop", mix="cpu"))
print(json.dumps({
    "makespan": payload["makespan"],
    "scipy_loaded": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
}))
"""


def _cold_start() -> dict:
    """A heat3d job and a moldyn job, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

    def job(app: str) -> dict:
        done = subprocess.run(
            [sys.executable, "-c", _COLD_START_JOB % app],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])

    heat, md = job("heat3d"), job("moldyn")
    return {
        "makespan": heat["makespan"],
        "scipy_loaded": heat["scipy_loaded"],
        "scipy_loaded_after_moldyn": md["scipy_loaded"],
    }


#: Case name -> the run that yields its values.  ``obs_overhead`` runs
#: before the 384-thread row so that row's thread churn cannot perturb it.
ROWS = {
    "kmeans": lambda: _app(kmeans, KMEANS),
    "sobel": lambda: _app(sobel, sobel.SobelConfig(functional_shape=(384, 384), simulated_steps=3)),
    "heat3d": lambda: _app(
        heat3d, heat3d.Heat3DConfig(functional_shape=(36, 36, 36), simulated_steps=3)
    ),
    "minimd": lambda: _app(minimd, minimd.MiniMDConfig(functional_cells=8, simulated_steps=3)),
    "moldyn": lambda: _app(moldyn, moldyn.MoldynConfig(functional_nodes=4_000, simulated_steps=3)),
    "sobel_steps": lambda: _stencil_steps(
        sobel, sobel.SobelConfig(functional_shape=(384, 384), simulated_steps=8), synthetic_image
    ),
    "heat3d_steps": lambda: _stencil_steps(
        heat3d,
        heat3d.Heat3DConfig(functional_shape=(36, 36, 36), simulated_steps=8),
        heat3d_initial,
        parameter=heat3d.ALPHA,
    ),
    "stencil_converge": _stencil_converge,
    "stencil_timeblock": _stencil_timeblock,
    "moldyn_steps": lambda: _app(moldyn, moldyn.MoldynConfig(simulated_steps=8)),
    "minimd_steps": lambda: _app(minimd, minimd.MiniMDConfig(simulated_steps=8)),
    "kmeans_emit": _kmeans_emit,
    "obs_overhead": _obs_overhead,
    "fabric_pingpong": _pingpong,
    "baseline_ranks": _baseline_ranks,
    "job_workers": _job_workers,
    "campaign_throughput": _campaign_throughput,
    "cold_start": _cold_start,
}


def collect() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": _git_rev(),
        "cases": {name: row() for name, row in ROWS.items()},
    }


def _git_rev() -> str:
    """Short HEAD revision, with a ``-dirty`` suffix for unclean trees.

    The committed baseline's ``git`` field names the commit whose code
    produced its values; :func:`compare` rejects a ``-dirty`` or
    ``unknown`` stamp, so refresh the JSON after committing the change.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        rev, status = git("rev-parse", "--short", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{rev}-dirty" if status else rev


#: The timed value: gated within the run, never against the baseline.
TIMED = ("obs_overhead", "overhead_ratio")
OBS_OVERHEAD_LIMIT = 1.05
#: Plain / traced pairs the timed case runs (odd: the median is one pair's).
OBS_PAIRS = 21

#: Values a refreshed baseline may not change.
REQUIRED = {
    ("campaign_throughput", "warm_rerun_executed"): 0,
    ("cold_start", "scipy_loaded"): False,
    ("cold_start", "scipy_loaded_after_moldyn"): False,
}


def compare(record: dict, baseline_path: Path) -> int:
    """Print a ``FAIL`` line per broken gate; return 1 if there is any.

    Every value but the timed one must equal the baseline's by ``repr``
    (a makespan drift means a change touched simulated physics), and the
    record and the baseline must list the same cases and keys.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    stamp = baseline.get("git", "unknown")
    if stamp == "unknown" or stamp.endswith("-dirty"):
        failures.append(
            f"baseline provenance: git field is {stamp!r}; the committed record "
            "must be stamped with the clean commit that produced it"
        )
    got, want = record["cases"], baseline["cases"]
    if got.keys() != want.keys():
        failures.append(
            f"cases: only in the record {sorted(got.keys() - want.keys())}, "
            f"only in the baseline {sorted(want.keys() - got.keys())}"
        )
    for name in want.keys() & got.keys():
        case, base = got[name], want[name]
        if case.keys() != base.keys():
            failures.append(f"{name}: keys {sorted(case)} against the baseline's {sorted(base)}")
        for key in case.keys() & base.keys():
            if (name, key) != TIMED and repr(case[key]) != repr(base[key]):
                failures.append(f"{name}.{key} drifted: {base[key]!r} -> {case[key]!r}")
    ratio = got.get(TIMED[0], {}).get(TIMED[1], 0.0)
    if ratio > OBS_OVERHEAD_LIMIT:
        failures.append(
            f"obs_overhead: a traced run took {ratio:.3f}x an untraced one "
            f"(limit {OBS_OVERHEAD_LIMIT:.2f}x)"
        )
    for (name, key), value in REQUIRED.items():
        if key in got.get(name, {}) and got[name][key] != value:
            failures.append(f"{name}.{key} is {got[name][key]!r}, must be {value!r}")
    for f in sorted(failures):
        print(f"FAIL {f}")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=None, help="write the JSON record here")
    ap.add_argument(
        "--baseline", type=Path, default=None, help="check every value against this record"
    )
    args = ap.parse_args()

    record = collect()
    print(json.dumps(record, indent=2))
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    if args.baseline:
        return compare(record, args.baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
