"""Command-line interface: run apps and regenerate experiments.

``run``, ``profile`` and ``submit`` describe a job with one flag per
:class:`repro.serve.spec.JobSpec` field — ``app``, ``--nodes``, ``--mix``,
``--preset``, ``--scale``, ``--param K=V``, ``--option K=V`` and
``--fault-plan JSON`` — and the spec is executed by
:func:`repro.serve.spec.execute_job` wherever it lands; the three commands
print its payload through one renderer (:func:`render_payload`).  The same
spec, three ways (same virtual time, to the bit)::

    python -m repro run heat3d --nodes 4 --scale quick --option time_block=2
    python -m repro submit heat3d --nodes 4 --option time_block=2
    python -m repro campaign run one.json --store none  # a one-point sweep,
        # {"name": "one", "axes": {"app": ["heat3d"], "nodes": [4]}, "options": {"time_block": 2}}

More examples::

    python -m repro info --devices
    python -m repro run heat3d --nodes 8 --mix cpu --option overlap=false --trace-out trace.json
    python -m repro profile heat3d --option reliable=true --option checkpoint_every=2 --fault-plan PLAN
        # PLAN: '{"seed": 7, "rules": [{"drop_prob": 0.2}], "crashes": [{"rank": 1, "at_time": 0.005}]}'
    python -m repro figure table2 --scale quick
    python -m repro serve --port 8642 --store ~/.cache/repro/results
    python -m repro submit --batch jobs.json
    python -m repro jobs --stats
    python -m repro campaign run sweep.json --out run.json --report
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
from collections import Counter
from pathlib import Path

from repro import __version__, metrics
from repro.apps.registry import APPS
from repro.cluster.presets import ohio_cluster
from repro.core.env import DEVICE_MIXES
from repro.metrics import fig5_chart, format_table
from repro.serve.spec import (
    BACKENDS, CLUSTER_PRESETS, JobSpec, execute_job, usable_cpus, use_one_heap,
)
from repro.util.errors import ReproError, ValidationError
from repro.util.units import fmt_seconds

_FIGURES = {
    "fig5": lambda scale: _fig5_text(scale),
    "fig6": lambda scale: format_table(
        metrics.figures.fig6_code_sizes(), title="Fig. 6"
    ),
    "table2": lambda scale: format_table(
        metrics.figures.table2_intranode(scale), title=f"Table II [{scale}]"
    ),
    "fig7": lambda scale: format_table(
        metrics.figures.fig7_optimizations(scale), title=f"Fig. 7 [{scale}]"
    ),
    "fig8": lambda scale: format_table(
        metrics.figures.fig8_gpu_baselines(scale), title=f"Fig. 8 [{scale}]"
    ),
    "ablations": lambda scale: format_table(
        metrics.figures.ablations(scale), title=f"Ablations [{scale}]"
    ),
}


def _fig5_text(scale: str) -> str:
    rows = metrics.figures.fig5_scalability(scale)
    parts = []
    if len({r["nodes"] for r in rows}) > 1:
        for app in sorted({r["app"] for r in rows}):
            parts.append(fig5_chart(rows, app))
    parts.append(
        format_table(
            rows,
            columns=["app", "nodes", "mix", "speedup", "makespan_s"],
            title=f"Fig. 5 [{scale}]",
        )
    )
    return "\n\n".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pattern framework for heterogeneous clusters (IPDPS'15 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    info_p = sub.add_parser("info", help="describe the simulated platform")
    info_p.add_argument(
        "--devices",
        action="store_true",
        help="print per-device roofline parameters and the timeline inventory",
    )
    info_p.add_argument(
        "--backends",
        action="store_true",
        help="print this process's usable CPUs and what backend 'auto' resolves to",
    )

    def add_job_args(p: argparse.ArgumentParser, *, scale: str, app_nargs=None) -> None:
        """The flags that describe a run, one per ``JobSpec`` field, declared
        once for run/profile/submit (:func:`_job_spec` reads them).  An
        omitted ``--nodes`` / ``--mix`` is 4 / cpu+2gpu, or what the app's
        registry row allows (a CUDA baseline: 1 / 1gpu)."""
        p.add_argument("app", nargs=app_nargs, choices=sorted(APPS))
        p.add_argument("--nodes", type=int, help="cluster nodes (default: 4, or the app's limit)")
        p.add_argument("--mix", choices=sorted(DEVICE_MIXES), help="device mix per node")
        p.add_argument(
            "--preset", choices=CLUSTER_PRESETS, default="ohio", help="cluster preset to build"
        )
        p.add_argument(
            "--scale",
            choices=["quick", "full"],
            default=scale,
            help="quick: small CI-sized inputs; full: the app's paper-sized defaults",
        )
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="K=V",
            help="config override (repeatable), e.g. --param simulated_steps=2 "
            "--param 'functional_shape=[24,24,24]'; values parse as JSON, "
            "falling back to strings",
        )
        p.add_argument(
            "--option",
            action="append",
            default=[],
            metavar="K=V",
            help="run-function keyword (repeatable), e.g. --option time_block=2 "
            "--option until_tol=1e-3; an option the app's run() does not take is an error",
        )
        p.add_argument(
            "--fault-plan",
            default=None,
            metavar="JSON",
            help="the fault plan's wire document, e.g. '{\"seed\": 7, \"rules\": "
            "[{\"drop_prob\": 0.2}], \"crashes\": [{\"rank\": 1, \"at_time\": 0.005}]}'; "
            "messages it loses are resent only under --option reliable=true",
        )

    run_p = sub.add_parser("run", help="run one application on the simulated cluster")
    add_job_args(run_p, scale="full")

    prof_p = sub.add_parser(
        "profile", help="run one application under observation and report on it"
    )
    add_job_args(prof_p, scale="quick")
    prof_p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format on stdout (text report or machine-readable JSON)",
    )
    for p in (run_p, prof_p):
        p.add_argument(
            "--trace-out",
            metavar="PATH",
            default=None,
            help="record the run and write a Chrome-trace/Perfetto JSON here",
        )

    fig_p = sub.add_parser("figure", help="regenerate one paper table/figure")
    fig_p.add_argument("which", choices=sorted(_FIGURES))
    fig_p.add_argument("--scale", choices=["quick", "full"], default="quick")

    def add_backend_arg(p: argparse.ArgumentParser) -> None:
        """Where a job executes, for the commands that hand their jobs to a
        scheduler (``run``/``profile`` call :func:`repro.serve.spec.execute_job`
        in their own process)."""
        p.add_argument(
            "--backend",
            choices=BACKENDS,
            default=None,
            help="threads: in the executing process (the default); processes: in one "
            "of its job worker processes (same result; see 'repro info --backends')",
        )

    def add_url_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url",
            default=None,
            metavar="URL",
            help="job-server address (default: REPRO_SERVE_URL, else "
            "http://127.0.0.1:8642)",
        )

    serve_p = sub.add_parser(
        "serve", help="run the multi-tenant job server (HTTP, foreground)"
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument("--port", type=int, default=8642, help="bind port (0 = ephemeral)")
    serve_p.add_argument(
        "--rank-budget",
        type=int,
        default=64,
        metavar="N",
        help="max simulated ranks in flight across all running jobs",
    )
    serve_p.add_argument(
        "--cache-size",
        type=int,
        default=128,
        metavar="N",
        help="content-addressed result cache entries",
    )
    serve_p.add_argument(
        "--max-queued", type=int, default=1024, metavar="N", help="queue bound; finished jobs kept"
    )
    serve_p.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve_p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result store directory (survives restarts; "
        "'none' disables, default: in-memory cache only)",
    )

    sub_p = sub.add_parser("submit", help="submit job(s) to a running job server")
    add_job_args(sub_p, scale="quick", app_nargs="?")
    add_backend_arg(sub_p)
    sub_p.add_argument(
        "--batch",
        default=None,
        metavar="FILE.json",
        help="submit a JSON list of job specs in one round trip instead of "
        "a single app (one outcome per spec; a bad spec never fails the batch)",
    )
    sub_p.add_argument(
        "--priority", type=int, default=0, help="scheduling priority (higher runs first)"
    )
    sub_p.add_argument(
        "--trace", action="store_true", help="record the run (fetch via the /trace endpoint)"
    )
    add_url_arg(sub_p)
    sub_p.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without polling for completion",
    )
    sub_p.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="max seconds to wait for completion (with waiting enabled)",
    )

    jobs_p = sub.add_parser("jobs", help="list a running job server's jobs")
    add_url_arg(jobs_p)
    jobs_p.add_argument(
        "--stats", action="store_true", help="print server/scheduler/cache statistics instead"
    )

    camp_p = sub.add_parser(
        "campaign", help="expand and run a declarative sweep (the campaign engine)"
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_command", required=True)

    def add_store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="persistent result store (default: REPRO_STORE, else "
            "~/.cache/repro/results; 'none' disables persistence)",
        )

    camp_run = camp_sub.add_parser(
        "run", help="execute every point of a campaign spec at max throughput"
    )
    camp_run.add_argument("spec", metavar="SPEC.json", help="campaign spec file")
    add_store_arg(camp_run)
    add_url_arg(camp_run)
    add_backend_arg(camp_run)
    camp_run.add_argument(
        "--rank-budget",
        type=int,
        default=64,
        metavar="N",
        help="in-process scheduler rank budget (ignored with --url)",
    )
    camp_run.add_argument(
        "--timeout", type=float, default=3600.0, metavar="S", help="sweep deadline"
    )
    camp_run.add_argument(
        "--out", default=None, metavar="FILE.json", help="write the run document here"
    )
    camp_run.add_argument(
        "--report",
        action="store_true",
        help="render the full report (speedup bars, scaling curves, fault tables)",
    )

    camp_status = camp_sub.add_parser(
        "status", help="expand a campaign and probe the store — no execution"
    )
    camp_status.add_argument("spec", metavar="SPEC.json", help="campaign spec file")
    add_store_arg(camp_status)

    camp_report = camp_sub.add_parser(
        "report", help="render the report from a saved run document"
    )
    camp_report.add_argument(
        "doc", metavar="RUN.json", help="document written by 'campaign run --out'"
    )
    return parser


def cmd_info(args: argparse.Namespace) -> str:
    cluster = ohio_cluster()
    node = cluster.node
    gpu = node.gpus[0]
    lines = [
        f"repro {__version__} — simulating the paper's evaluation platform:",
        f"  nodes:   {cluster.num_nodes} ({cluster.total_cores} cores, "
        f"{cluster.total_gpus} GPUs)",
        f"  cpu:     {node.cpu.name}, {node.cpu.cores} cores, "
        f"{node.cpu.total_flops / 1e9:.0f} GFLOP/s peak",
        f"  gpu:     {gpu.name} x{node.num_gpus}, {gpu.flops / 1e9:.0f} GFLOP/s, "
        f"{gpu.mem_bandwidth / 1e9:.0f} GB/s, {gpu.shared_mem_per_sm / 1024:.0f} KiB shared/SM",
        f"  network: {cluster.network.name}, {cluster.network.latency * 1e6:.1f} us, "
        f"{cluster.network.bandwidth / 1e9:.1f} GB/s",
        f"  apps:    {', '.join(sorted(APPS))}",
        f"  mixes:   {', '.join(sorted(DEVICE_MIXES))}",
    ]
    if args.devices:
        lines += ["", _device_details(cluster)]
    if args.backends:
        lines += ["", _backend_details()]
    return "\n".join(lines)


def _backend_details() -> str:
    """Usable CPUs here and what a campaign's ``backend: "auto"`` becomes."""
    from repro.campaign.spec import resolve_campaign_backend

    auto = resolve_campaign_backend("auto") or "threads"
    where = "job worker processes" if auto == "processes" else "the executing process"
    return (
        f"Job execution (--backend {'|'.join(BACKENDS)} on submit / campaign run):\n"
        f"  usable CPUs : {usable_cpus()}\n"
        f"  'auto'      : {auto} (campaign jobs run in {where})"
    )


def _device_details(cluster) -> str:
    """Roofline parameters per device plus the per-rank timeline inventory."""
    from repro.device.cpu import CPUDevice
    from repro.device.gpu import GPUDevice

    node = cluster.node
    cpu, gpu = node.cpu, node.gpus[0]
    lines = [
        "Device roofline parameters (per node):",
        f"  {cpu.name}:",
        f"    cores            : {cpu.cores}",
        f"    flops/core       : {cpu.core_flops / 1e9:.1f} GFLOP/s "
        f"({cpu.total_flops / 1e9:.0f} GFLOP/s total)",
        f"    mem bandwidth    : {cpu.mem_bandwidth / 1e9:.1f} GB/s (shared by all cores)",
        f"    cache            : {cpu.cache_bytes / 2**20:.1f} MiB",
        f"  {gpu.name} (x{node.num_gpus}):",
        f"    SMs              : {gpu.sms}",
        f"    flops            : {gpu.flops / 1e9:.0f} GFLOP/s",
        f"    mem bandwidth    : {gpu.mem_bandwidth / 1e9:.0f} GB/s",
        f"    shared mem/SM    : {gpu.shared_mem_per_sm / 1024:.0f} KiB",
        f"    device memory    : {gpu.device_mem / 2**30:.1f} GiB",
        f"    PCIe             : {gpu.pcie_bandwidth / 1e9:.1f} GB/s, "
        f"{gpu.pcie_latency * 1e6:.1f} us latency",
        f"    kernel launch    : {gpu.kernel_launch_overhead * 1e6:.1f} us",
        f"    atomic insert    : {gpu.atomic_cost * 1e9:.1f} ns global, "
        f"{gpu.shared_atomic_cost * 1e9:.2f} ns shared/localized",
        "",
        "Timeline inventory (per rank; tracks in `repro profile --trace-out`):",
    ]
    names: list[str] = []
    dev_cpu = CPUDevice(cpu)
    names.extend(t.name for t in dev_cpu.workers)
    for i in range(node.num_gpus):
        names.extend(t.name for t in GPUDevice(gpu, i).timelines())
    names.extend(("nic{rank}.egress", "nic{rank}.ingress"))
    lines.append("  " + ", ".join(names))
    return "\n".join(lines)


def _kv_pairs(pairs: list[str], flag: str) -> dict:
    """Parse repeated ``K=V`` flags; values decode as JSON, else stay strings."""
    out = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValidationError(f"{flag} expects K=V, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except ValueError:
            out[key] = raw
    return out


def _job_spec(args: argparse.Namespace, **fields) -> JobSpec:
    """The ``JobSpec`` the job flags describe, or a clean exit: the same
    document a job spec file holds, checked by :meth:`JobSpec.from_dict`."""
    try:
        plan = None if args.fault_plan is None else json.loads(args.fault_plan)
        row = APPS[args.app]
        return JobSpec.from_dict({
            "app": args.app, "mix": args.mix or (row.mixes or ("cpu+2gpu",))[0],
            "nodes": min(4, row.max_nodes or 4) if args.nodes is None else args.nodes,
            "preset": args.preset, "scale": args.scale,
            "params": _kv_pairs(args.param, "--param"),
            "options": _kv_pairs(args.option, "--option"),
            "fault_plan": plan,
            **fields,
        })
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid job spec: --fault-plan is not JSON: {exc}") from None
    except ReproError as exc:
        raise SystemExit(f"invalid job spec: {exc}") from None


def render_payload(
    spec: JobSpec, payload: dict, *, profile: bool = False, trace: str | None = None
) -> list[str]:
    """The lines ``run``, ``profile`` and ``submit`` print under their
    heading for one job payload, the same however the payload arrived.

    The result block is the simulated time, sequential time and speedup,
    then what else the spec asked for: convergence (``until_tol``, read
    from the payload's ``metrics``), the time block and the faults
    injected.  ``profile`` prints the payload's report and then those
    extra lines instead.  ``trace`` says where the run's trace went.
    """
    m, stats, tol = payload["metrics"], payload["fault_stats"], spec.options.get("until_tol")
    rows = [] if profile else [
        ("simulated time", fmt_seconds(payload["makespan"])),
        ("sequential time", f"{fmt_seconds(payload['seq_time'])} (modeled, 1 core)"),
        ("speedup", f"{payload['speedup']:.1f}x"),
    ]
    if tol is not None:
        state = "converged" if m["converged"] else "hit the iteration cap"
        rows.append(("convergence", f"{m['iterations']} iteration(s), residual "
                     f"{m['final_residual']:.3e} (tol {tol:.3e}, {state})"))
    if spec.options.get("time_block") is not None:
        rows.append(("time block", f"k={spec.options['time_block']}"))
    if stats is not None:
        rows.append(("faults", f"seed={spec.fault_plan.get('seed', 0)} drops={stats['drops']} "
                     f"dups={stats['duplicates']} delays={stats['delays']} "
                     f"crashes={stats['crashes_consumed']}"))
    if not profile:
        rows.append(("trace", trace))
        return [f"  {label:<15}: {text}" for label, text in rows if text is not None]
    from repro.obs.report import render_text_report

    tail = [] if trace is None else [f"trace written to {trace}"]
    return ["", render_text_report(payload["report"])] + [f"{k}: {v}" for k, v in rows] + tail


def cmd_run(args: argparse.Namespace) -> str:
    """``repro run`` and ``repro profile``: execute the spec in this process
    and render its payload; ``profile`` traces the run and prints its report."""
    profile = args.command == "profile"
    spec = _job_spec(args, trace=profile or args.trace_out is not None)
    try:
        payload = execute_job(spec)
    except ReproError as exc:  # an option value the app refuses: a failed job
        raise SystemExit(f"{spec.app} failed: {exc}") from None
    trace = None
    if args.trace_out is not None:
        from repro.obs.export import validate_chrome_trace

        validate_chrome_trace(payload["trace"])
        Path(args.trace_out).write_text(json.dumps(payload["trace"]), encoding="utf-8")
        events = len(payload["trace"]["traceEvents"])
        trace = f"{args.trace_out} ({events} events; open in ui.perfetto.dev)"
    if profile and args.format == "json":
        return json.dumps(payload["report"], indent=2)
    head = f"{spec.app} on {spec.nodes} node(s), {spec.mix}"
    head += f" [{spec.scale}]" if profile else ":"
    return "\n".join([head, *render_payload(spec, payload, profile=profile, trace=trace)])


def _serve_url(args: argparse.Namespace) -> str:
    from repro.serve import DEFAULT_URL

    return args.url or os.environ.get("REPRO_SERVE_URL") or DEFAULT_URL


def _resolve_store(arg: str | None, *, default_on: bool = False):
    """``--store`` flag -> store directory | None ('none' always disables)."""
    from repro.serve import default_store_root

    if arg is None:
        return default_store_root() if default_on else None
    return None if arg.lower() == "none" else arg


def cmd_serve(args: argparse.Namespace) -> None:  # pragma: no cover - blocks forever
    from repro.serve import JobServer, served_app_names

    store_dir = _resolve_store(args.store)
    server = JobServer(
        host=args.host,
        port=args.port,
        rank_budget=args.rank_budget,
        cache_size=args.cache_size,
        max_queued=args.max_queued,
        verbose=args.verbose,
        store_dir=store_dir,
    )
    with server:
        print(f"repro job server listening on {server.url}")
        print(f"  apps        : {', '.join(served_app_names())}")
        print(f"  rank budget : {args.rank_budget} | cache: {args.cache_size} "
              f"| queue: {args.max_queued}")
        if store_dir is not None:
            print(f"  store       : {store_dir}")
        print("  submit with : python -m repro submit <app> "
              f"--url {server.url}  (Ctrl-C stops)")
        # SIGTERM stops the server as Ctrl-C does, so its shutdown and the
        # job pool's exit hook (repro.serve.jobpool.shutdown_pool) both run.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")


def _cmd_submit_batch(args: argparse.Namespace) -> str:
    from repro.serve import ServeClient, ServeError

    try:
        data = json.loads(Path(args.batch).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read batch file {args.batch}: {exc}") from None
    if isinstance(data, dict):
        data = data.get("jobs")
    if not isinstance(data, list) or not data:
        raise SystemExit(
            f"{args.batch} must hold a non-empty JSON list of job specs "
            "(or {'jobs': [...]})"
        )
    client = ServeClient(_serve_url(args))
    try:
        entries = client.submit_many(data)
    except ServeError as exc:
        raise SystemExit(f"batch submit failed: {exc}") from None
    accepted = [e for e in entries if "id" in e]
    lines = [
        f"batch of {len(entries)} spec(s): {len(accepted)} accepted, "
        f"{len(entries) - len(accepted)} rejected"
    ]
    for e in entries:
        if "id" not in e:
            lines.append(f"  [{e['index']}] rejected: {e['error']}")
        else:
            cached = " (cached)" if e.get("cached") else ""
            lines.append(f"  [{e['index']}] {e['id']}  {e['state']}{cached}")
    pending = [e["id"] for e in accepted if e["state"] not in ("done", "failed", "cancelled")]
    if args.no_wait or not pending:
        if pending:
            lines.append(f"  poll with: python -m repro jobs --url {client.url}")
        return "\n".join(lines)
    done = client.wait_many(pending, timeout=args.timeout)
    states = Counter(status["state"] for status in done.values())
    lines.append("  finished: " + ", ".join(f"{n} {s}" for s, n in sorted(states.items())))
    return "\n".join(lines)


def cmd_submit(args: argparse.Namespace) -> str:
    from repro.serve import ServeClient, ServeError

    if args.batch is not None and args.app is not None:
        raise SystemExit("give either an app or --batch FILE, not both")
    if args.batch is not None:
        return _cmd_submit_batch(args)
    if args.app is None:
        raise SystemExit("submit needs an app (or --batch FILE)")

    spec = _job_spec(args, trace=args.trace, priority=args.priority, backend=args.backend)
    client = ServeClient(_serve_url(args))
    try:
        job = client.submit(spec)
    except ServeError as exc:
        raise SystemExit(f"submit failed: {exc}") from None
    lines = [
        f"job {job['id']} [{spec.app} x{spec.nodes} {spec.mix}] "
        f"{'cache hit' if job.get('cached') else job['state']} "
        f"(spec {spec.content_hash()[:12]})"
    ]
    if args.no_wait and job["state"] not in ("done", "failed"):
        lines.append(f"  poll with      : python -m repro jobs --url {client.url}")
        return "\n".join(lines)
    done = client.wait(job["id"], timeout=args.timeout)
    if done["state"] != "done":
        detail = done.get("error") or done["state"]
        raise SystemExit(f"job {job['id']} {done['state']}: {detail}")
    trace = f"GET {client.url}/jobs/{job['id']}/trace" if spec.trace else None
    lines += render_payload(spec, client.result(job["id"])["result"], trace=trace)
    return "\n".join(lines)


def cmd_jobs(args: argparse.Namespace) -> str:
    from repro.serve import ServeClient, ServeError

    client = ServeClient(_serve_url(args))
    try:
        if args.stats:
            return json.dumps(client.stats(), indent=2, sort_keys=True)
        jobs = client.jobs()
    except ServeError as exc:
        raise SystemExit(f"cannot reach job server at {client.url}: {exc}") from None
    if not jobs:
        return f"no jobs on {client.url}"
    lines = [f"{len(jobs)} job(s) on {client.url}:"]
    for job in jobs:
        tag = f"{job['app']} x{job['ranks']}"
        cached = " (cached)" if job.get("cached") else ""
        lines.append(f"  {job['id']}  {job['state']:<9} {tag}{cached}")
    return "\n".join(lines)


def cmd_campaign(args: argparse.Namespace) -> str:
    from repro.campaign import CampaignRunner, CampaignSpec, render_report, run_table

    if args.campaign_command == "report":
        try:
            doc = json.loads(Path(args.doc).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read run document {args.doc}: {exc}") from None
        return render_report(doc)

    try:
        spec = CampaignSpec.load(args.spec)
    except ValidationError as exc:
        raise SystemExit(f"invalid campaign: {exc}") from None
    store = _resolve_store(args.store, default_on=True)

    if args.campaign_command == "status":
        status = CampaignRunner(spec, store=store).status()
        lines = [
            f"campaign {status['campaign']!r}: {status['points']} point(s), "
            f"{status['stored']} stored, {status['missing']} to run",
            f"  store: {status['store'] or '(none)'}",
        ]
        for row in status["rows"]:
            mark = "done " if row["stored"] else "todo "
            seed = "-" if row["seed"] is None else row["seed"]
            lines.append(
                f"  {mark} {row['app']}/{row['preset']} n{row['nodes']} "
                f"{row['mix']} {row['scale']} seed={seed}"
                f"{' +faults' if row['faulty'] else ''}  {row['spec_hash'][:12]}"
            )
        return "\n".join(lines)

    # campaign run
    if args.backend is not None:
        spec = dataclasses.replace(spec, backend=args.backend)
    client = None
    if args.url is not None:
        from repro.serve import ServeClient

        client = ServeClient(_serve_url(args))
    runner = CampaignRunner(
        spec,
        store=None if client is not None else store,
        client=client,
        rank_budget=args.rank_budget,
        timeout=args.timeout,
    )
    try:
        result = runner.run()
    except ValidationError as exc:
        raise SystemExit(f"campaign failed: {exc}") from None
    doc = result.to_dict()
    out_lines = []
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2), encoding="utf-8")
        out_lines.append(f"run document written to {args.out}")
    if args.report:
        out_lines.append(render_report(doc))
    else:
        out_lines.append(run_table(doc["rows"], title=f"campaign {result.name!r}"))
        s = result.stats
        out_lines.append(
            f"points={s['points']} executed={s['executed']} "
            f"cache_hits={s['cache_hits']} store_hits={s['store_hits']} "
            f"wall={s['wall_s']}s"
        )
    if not result.ok:
        out_lines.append(f"WARNING: {len(result.failures())} point(s) did not complete")
    return "\n".join(out_lines)


#: The commands that print what they return (``serve`` blocks instead).
_COMMANDS = {
    "info": cmd_info, "run": cmd_run, "profile": cmd_run, "submit": cmd_submit,
    "jobs": cmd_jobs, "campaign": cmd_campaign,
    "figure": lambda args: _FIGURES[args.which](args.scale),
}


def main(argv: list[str] | None = None) -> int:
    use_one_heap()  # before any command starts a rank, job or server thread
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        cmd_serve(args)
    else:
        print(_COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
