#!/usr/bin/env python3
"""End-to-end service benchmark: one run of one workload.

    python3 benchmarks/e2e/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

Prints a table of every metric by name and unit, the operation counts and
the correctness verdict, and as the last line of stdout one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer
ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no product source at {ROOT / 'src' / 'repro'}; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

# Pin BLAS/OpenMP pools before NumPy loads: the in-process gate and probes
# must not fan out over cores the server child is being measured on.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
for _name in ("REPRO_SPMD_BACKEND", "REPRO_SPMD_WORKERS"):
    os.environ.pop(_name, None)
os.environ["REPRO_STORE"] = str(ROOT / ".bench_tmp" / "default-store")

import harness  # noqa: E402
import probes  # noqa: E402
import workloads as wl  # noqa: E402

#: A run must end well inside the driver's 180 s limit, whatever happens.
WATCHDOG_SECONDS = 170

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

#: Host-time metrics every round measures.  They are per-layer metrics, with
#: no bound: on a shared VM their run-to-run spread is 5-17 %, so none holds
#: the 0.10 a bound may be at most (README.md, "Why the timings have no bound").
TIMING = ("jobs_per_s", "job_p50_ms", "job_p90_ms", "cpu_ms_per_job")

APPS = ("heat3d", "sobel", "kmeans", "moldyn", "minimd", "jacobi2d")


def _abort(signum, frame):
    raise SystemExit(f"benchmarks/e2e: stopped by signal {signum}")


def git_rev() -> str:
    """Short HEAD rev, ``-dirty`` if the tree has changes, else ``unknown``."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else ""

    try:
        rev = git("rev-parse", "--short", "HEAD")
        return rev + ("-dirty" if git("status", "--porcelain") else "") if rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def env_stamp() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus": harness.HOST_CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {name: os.environ.get(name) for name in harness.THREAD_PINS},
        "git_rev": git_rev(),
    }


def host_load() -> dict:
    """Load average and hypervisor steal so far: a run taken on a busy host
    is recognisable after the fact."""
    cpu = Path("/proc/stat").read_text().splitlines()[0].split()
    return {"loadavg": os.getloadavg(), "steal_ticks": int(cpu[8]) if len(cpu) > 8 else 0}


# -- correctness gate --------------------------------------------------------
def _comparable(payload: dict) -> dict:
    """A result payload without the host wall times some apps report in
    ``metrics`` (``wall_steps``): those are measurements, not results."""
    metrics = {k: v for k, v in payload["metrics"].items() if not k.startswith("wall")}
    return {**payload, "metrics": metrics}


def gate(workload: wl.Workload, rounds: list[dict]) -> list[str]:
    """Re-execute one served job per class (and per traced/untraced server)
    in-process; the served ``makespan`` and ``result_digest`` must be
    repr-equal to ``execute_job``'s, and the whole payload equal."""
    from repro.campaign import CampaignSpec
    from repro.serve import JobSpec, execute_job

    errors: list[str] = []
    checked: set[tuple] = set()
    for rnd in rounds:
        for (kind, doc), rec in zip(rnd["ops"], rnd["records"]):
            if not rec["ok"]:
                errors.append(f"{kind}: {rec.get('error')}")
                continue
            if workload.campaign_ops:
                specs = CampaignSpec.from_dict(doc).expand()
                for spec, row in zip(specs, rec["rows"]):
                    key = (rnd["traced"], spec.app, spec.nodes)
                    if key in checked:
                        continue
                    checked.add(key)
                    direct = execute_job(spec)
                    for name in ("makespan", "seq_time", "speedup"):
                        if repr(row[name]) != repr(direct[name]):
                            errors.append(
                                f"{spec.app}@{spec.nodes}: served {name} "
                                f"{row[name]!r} != direct {direct[name]!r}"
                            )
                continue
            key = (rnd["traced"], kind)
            if key in checked:
                continue
            checked.add(key)
            direct = execute_job(JobSpec.from_dict(doc))
            for name in ("makespan", "result_digest"):
                if repr(rec[name]) != repr(direct[name]):
                    errors.append(
                        f"{kind}: served {name} {rec[name]!r} != direct {direct[name]!r}"
                    )
            if _comparable(rec["payload"]) != _comparable(json.loads(json.dumps(direct))):
                errors.append(f"{kind}: served payload differs from execute_job's")
    errors += [f"warm pass: {r['warm_failed']} job(s) failed" for r in rounds if r["warm_failed"]]
    return errors


def virtual_makespan(rounds: list[dict]) -> float:
    """``math.fsum`` of every job's makespan in spec order (a plain ``sum``
    in completion order drifts in the 13th digit between identical runs)."""
    spans: list[float] = []
    for rnd in rounds:
        for rec in rnd["records"]:
            if rec["ok"]:
                spans += rec["makespans"] if "makespans" in rec else [rec["makespan"]]
    return math.fsum(spans)


def hygiene_check(shm_before: set[str]) -> None:
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = None
    if pid is not None:
        raise RuntimeError("child processes remain after the run")
    leaked = set(os.listdir("/dev/shm")) - shm_before if os.path.isdir("/dev/shm") else set()
    if leaked:
        raise RuntimeError(f"new /dev/shm segments remain: {sorted(leaked)[:5]}")
    if harness.TMP_ROOT.exists():
        if any(harness.TMP_ROOT.iterdir()):
            raise RuntimeError(f"temp dirs remain under {harness.TMP_ROOT}")
        harness.TMP_ROOT.rmdir()


# -- metric assembly -----------------------------------------------------------
def run_values(names, rounds: list[dict]) -> dict[str, float]:
    """The run's value of each named per-round metric (``harness.run_value``)."""
    out = {}
    for name in names:
        values = [r[name] for r in rounds if name in r]
        if values:
            better = (E2E.get(name) or PER_LAYER[name])["better"]
            out[name] = harness.run_value(name, values, better)
    return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measured_spans(traced: list[dict]) -> dict[str, dict]:
    """Server-side spans of the measured loop's jobs (not the warm pass's)."""
    spans: dict[str, dict] = {}
    for rnd in traced:
        wanted = set()
        for rec in rnd["records"]:
            if rec["ok"]:
                wanted.update(
                    [row["spec_hash"] for row in rec["rows"]] if "rows" in rec
                    else [rec["spec_hash"]]
                )
        spans.update({h: s for h, s in rnd["spans"].items() if h in wanted})
    return spans


#: Per-layer metrics that exist only for single-job ops / only for campaign
#: ops; each reads 0 on workloads of the other kind.
JOB_ONLY = (
    "serve.queue_wait_ms", "client.poll_lag_ms", "client.status_calls_per_job",
    "trace.tree_residual_pct",
)
CAMPAIGN_ONLY = (
    "client.stats_ms", "campaign.extend_op_ms", "campaign.replay_op_ms",
    "campaign.http_requests_per_point",
)


def job_client_spans(records: list[dict]) -> dict[str, float]:
    """Medians of the per-job span tree: sent -> admitted -> started ->
    finished -> seen done -> result in hand, which partitions ``client.job``."""
    tree = ("submit_ms", "queue_wait_ms", "run_ms", "poll_lag_ms", "fetch_result_ms")
    residual = [r["latency_ms"] - sum(r[k] for k in tree) for r in records]
    return {
        "client.submit_ms": _median(r["submit_ms"] for r in records),
        "client.submit_rtt_ms": _median(r["submit_rtt_ms"] for r in records),
        "serve.queue_wait_ms": _median(r["queue_wait_ms"] for r in records),
        "serve.run_ms": _median(r["run_ms"] for r in records),
        "client.poll_lag_ms": _median(r["poll_lag_ms"] for r in records),
        "client.fetch_result_ms": _median(r["fetch_result_ms"] for r in records),
        "client.self_ms": _median(residual),
        "trace.tree_residual_pct": _median(
            abs(res) / r["latency_ms"] * 100 for res, r in zip(residual, records)
        ),
        "client.status_calls_per_job": _median(r["status_calls"] for r in records),
        "client.wait_ms": _median(
            r["latency_ms"] - r["submit_rtt_ms"] - r["fetch_result_ms"] for r in records
        ),
    }


def campaign_client_spans(records: list[dict], job: float) -> dict[str, float]:
    """Where a ``CampaignRunner.run()`` spent its time, by client method;
    self is what is left: expansion, hashing, row building."""
    parts = {
        "client.submit_ms": _median(r["submit_ms"] for r in records),
        "client.wait_ms": _median(r["wait_many_ms"] for r in records),
        "client.fetch_result_ms": _median(r["result_ms"] for r in records),
        "client.stats_ms": _median(r["stats_ms"] for r in records),
    }
    out = dict(parts)
    out["client.submit_rtt_ms"] = parts["client.submit_ms"]
    out["client.self_ms"] = job - sum(parts.values())
    for kind in ("extend", "replay"):
        out[f"campaign.{kind}_op_ms"] = _median(
            r["latency_ms"] for r in records if r["class"] == kind
        )
    out["campaign.http_requests_per_point"] = _median(
        r["http_requests"] / wl.CAMPAIGN_POINTS for r in records
    )
    return out


def per_layer(workload: wl.Workload, rounds: list[dict], probe_values: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run (rounds alternate untraced/traced)."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    records = [rec for r in traced for rec in r["records"] if rec["ok"]]
    spans = measured_spans(traced)
    out = dict(probe_values)

    out["client.job_ms"] = job = _median(r["latency_ms"] for r in records)
    if workload.campaign_ops:
        out.update(campaign_client_spans(records, job))
        out["serve.run_ms"] = _median(
            s["build_ms"] + s["apps_run_ms"] + s["digest_ms"] for s in spans.values()
        )
        out.update(dict.fromkeys(JOB_ONLY, 0.0))
    else:
        out.update(job_client_spans(records))
        out.update(dict.fromkeys(CAMPAIGN_ONLY, 0.0))
    out["share.client_side_of_job"] = (
        out["client.poll_lag_ms"] + out["client.submit_ms"] + out["client.fetch_result_ms"]
    ) / job

    out["serve.spec.build_ms"] = _median(s["build_ms"] for s in spans.values())
    out["apps.run_ms"] = _median(s["apps_run_ms"] for s in spans.values())
    out["serve.spec.digest_ms"] = _median(s["digest_ms"] for s in spans.values())
    for app in APPS:
        out[f"apps.run_ms.{app}"] = _median(
            s["apps_run_ms"] for s in spans.values() if s["app"] == app
        )
    out["share.apps_run_of_serve_run"] = _median(
        s["apps_run_ms"] / (s["build_ms"] + s["apps_run_ms"] + s["digest_ms"])
        for s in spans.values()
    )

    def delta(rnd: dict, *path: str) -> float:
        a, b = rnd["stats_before"], rnd["stats_after"]
        for key in path:
            a, b = a[key], b[key]
        return b - a

    out["serve.sched.pass_overs"] = _median(delta(r, "fairness", "pass_overs") for r in traced)
    out["serve.sched.reservations"] = _median(delta(r, "fairness", "reservations") for r in traced)
    out["serve.sched.utilization_avg"] = _median(
        r["stats_after"]["utilization"]["average"] for r in traced
    )
    out["serve.cache.hits"] = _median(delta(r, "cache", "hits") for r in traced)
    out["serve.cache.store_hits"] = _median(delta(r, "cache", "store_hits") for r in traced)
    out["serve.executed"] = _median(delta(r, "executed") for r in traced)
    spawned = _median(r["stats_after"]["rank_pool"]["spawned"] for r in traced)
    launched = _median(sum(s["nodes"] for s in r["spans"].values()) for r in traced)
    out["sim.rank_pool.spawned"] = spawned
    out["sim.rank_pool.reused"] = launched - spawned
    for name in ("serve.http.healthz_ms", "serve.http.cached_submit_ms"):
        out[name] = _median(r["server_probes"][name] for r in traced)

    out["setup.spawn_s"] = _median(r["spawn_s"] for r in rounds)
    out["setup.warm_pass_s"] = _median(r["warm_pass_s"] for r in rounds)
    out["setup.first_job_penalty_ms"] = _median(r["first_job_penalty_ms"] for r in traced)
    out["trace.overhead_ratio"] = _median(r["jobs_per_s"] for r in traced) / _median(
        r["jobs_per_s"] for r in plain
    )
    out.update(run_values(TIMING, rounds))
    for name in (*TIMING, *E2E):
        values = [r[name] for r in rounds if name in r]
        out[f"rounds.{name}_median"] = _median(values)
        out[f"rounds.{name}_iqr"] = harness.iqr(values)
    out["host.calib_ms"] = _median(r["host_calib_ms"] for r in rounds)
    out["virtual_makespan_s"] = virtual_makespan(plain)
    out["ops.refused"] = float(sum(r["refused"] for r in rounds))
    latencies = [rec["latency_ms"] for r in rounds for rec in r["records"] if rec["ok"]]
    out["job_p95_pooled_ms"] = harness.percentile(latencies, 95)
    return out


def class_table(rounds: list[dict]) -> list[dict]:
    """Per job class, over the traced rounds: where a job's time went."""
    traced = [r for r in rounds if r["traced"]]
    spans = measured_spans(traced)
    by_class: dict[str, list[dict]] = {}
    for rnd in traced:
        for rec in rnd["records"]:
            if rec["ok"]:
                by_class.setdefault(rec["class"], []).append(rec)
    rows = []
    for name, recs in by_class.items():
        # A campaign op has no single server-side run; the time it waited
        # for its points stands in.
        run_ms = [r["run_ms"] if "run_ms" in r else r["wait_many_ms"] for r in recs]
        runs = [spans[r["spec_hash"]] for r in recs if r.get("spec_hash") in spans]
        rows.append({
            "class": name,
            "jobs": len(recs),
            "job_p50_ms": _median(r["latency_ms"] for r in recs),
            "run_p50_ms": _median(run_ms),
            "run_p90_ms": harness.percentile(run_ms, 90),
            "apps_run_share": _median(s["apps_run_ms"] for s in runs) / (_median(run_ms) or 1.0),
            "status_calls": statistics.mean(r["status_calls"] for r in recs),
            "polls": dict(sorted(Counter(r["status_calls"] for r in recs).items())),
        })
    return rows


def print_table(title: str, metrics: dict[str, float], meta: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {meta[name]['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(wl.NOMINAL_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's full record to a JSON result set")
    parser.add_argument("--dump-workload", action="store_true",
                        help="print the generated op list and exit")
    parser.add_argument("--self-check", action="store_true",
                        help="assert the generator's determinism contract and exit")
    args = parser.parse_args()

    if args.self_check:
        wl.self_check(args.seconds)
        print("workload generator self-check OK")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = wl.WORKLOADS[args.workload]
    if args.dump_workload:
        json.dump(wl.dump(workload, args.seed, args.seconds), sys.stdout, indent=1)
        print()
        return 0

    harness.pin_harness()
    signal.signal(signal.SIGTERM, _abort)
    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(WATCHDOG_SECONDS)
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    load_start = host_load()
    started = time.time()

    traced_run = bool(args.trace)
    n_rounds = 4 if traced_run else wl.ROUNDS
    # Probes first, while this process has started no thread of its own.
    probe_values = probes.run_all() if traced_run else {}
    rounds = [
        harness.run_round(
            workload, args.seed, r, args.seconds,
            traced=traced_run and r % 2 == 1,
            server_probes=probes.server_probes if traced_run and r % 2 == 1 else None,
        )
        for r in range(n_rounds)
    ]
    # What confining the server to one CPU costs or hides: one more untraced
    # round whose child may use every CPU.  It counts for correctness and
    # for nothing else.
    unpinned = [
        harness.run_round(workload, args.seed, n_rounds, args.seconds, traced=False, pinned=False)
    ] if traced_run else []
    served = rounds + unpinned
    errors = gate(workload, served)
    attempted = sum(r["attempted"] for r in served)
    failed = attempted - sum(r["succeeded"] for r in served)

    if traced_run:
        metrics = per_layer(workload, rounds, probe_values)
        metrics["host.unpinned_jobs_per_s_ratio"] = unpinned[0].get("jobs_per_s", 0.0) / (
            _median(r["jobs_per_s"] for r in rounds if not r["traced"] and "jobs_per_s" in r)
            or 1.0
        )
        meta = PER_LAYER
    else:
        metrics = run_values(E2E, rounds)
        meta = E2E
    timing = {} if traced_run else run_values(TIMING, rounds)
    missing = sorted(set(meta) - set(metrics))
    if missing:
        errors.append(f"metrics not measured: {missing}")
    metrics = {name: metrics[name] for name in meta if name in metrics}
    hygiene_check(shm_before)
    signal.alarm(0)

    print_table(
        f"{workload.name}  seed={args.seed}  {'per-layer (traced)' if traced_run else 'end-to-end'}"
        f"  rounds={n_rounds}",
        metrics, meta,
    )
    if timing:
        print_table("  timings of the same rounds (per-layer metrics, no bound)", timing, PER_LAYER)
    classes = class_table(rounds) if traced_run else []
    for row in classes:
        print("  class {class:<16} jobs={jobs:<3} job_p50={job_p50_ms:7.1f} ms  "
              "run_p50={run_p50_ms:7.1f} ms  run_p90={run_p90_ms:7.1f} ms  "
              "apps.run/serve.run={apps_run_share:.2f}  polls/job={status_calls:.2f} {polls}"
              .format(**row))
    refused = sum(r["refused"] for r in served)
    print(f"  operations: attempted={attempted} succeeded={attempted - failed} "
          f"failed={failed - refused} refused={refused}")
    print(f"  virtual_makespan_s = {virtual_makespan(rounds)!r}")
    for err in errors[:10]:
        print(f"  INCORRECT: {err}")
    correct = not errors
    print(f"  correct: {correct}")

    if args.out:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env_stamp(),
            "started": started,
            "elapsed_s": time.time() - started,
            "host_start": load_start,
            "host_end": host_load(),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "virtual_makespan_s": repr(virtual_makespan(rounds)),
            "metrics": metrics,
            "timing": timing,
            "classes": classes,
            "rounds": [
                {k: r[k] for k in (*E2E, *TIMING, "spawn_s", "warm_pass_s", "wall_s", "traced",
                              "host_calib_ms")
                 if k in r}
                for r in rounds
            ],
        }
        path = Path(args.out)
        runs = json.loads(path.read_text())["runs"] if path.exists() else []
        path.write_text(json.dumps({"runs": runs + [record]}, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": meta[name]["unit"]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
