"""Experiment drivers, one per table/figure of the paper's evaluation, and the
paper-claims ledger (:func:`claims`) their rows are checked against.

Every driver returns row dicts (for :func:`repro.metrics.reporting.format_table`),
used by ``benchmarks/`` and ``examples/generate_experiments_md.py``. Every figure
number is a row of an in-process :class:`~repro.campaign.CampaignSpec` sweep
(:func:`_sweep`), the path ``repro campaign run`` takes — the hand-written MPI and
CUDA baselines included, as the registry apps ``<app>-mpi`` / ``<app>-cuda`` — and
the sweeps read and write the default :class:`~repro.serve.store.ResultStore`, so a
regeneration on unchanged code re-executes nothing. Only the two ablations that
reach below an app's ``run`` are direct calls. A driver's ``scale`` ("quick" for CI,
"full" for EXPERIMENTS.md) sets only the functional array sizes and the node counts
swept: both charge the cost model at the paper's workload sizes.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from importlib import import_module
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.campaign import CampaignRunner, CampaignSpec
from repro.cluster.presets import ohio_cluster
from repro.metrics.codesize import code_size_table
from repro.serve.spec import JobSpec
from repro.serve.store import ResultStore, default_store_root
from repro.util.errors import ReproError, ValidationError

#: Device mixes plotted in Fig. 5 (per node).
FIG5_MIXES = ["cpu", "1gpu", "2gpu", "cpu+1gpu", "cpu+2gpu"]

#: Where each source's claims are measured: claim-id prefix -> (source, scale, nodes).
_WHERE = {"gpu-cpu": ("§IV-C", "quick", 1), "fw-mpi": ("§IV-C", "quick", 4),
          "table2": ("Table II", "quick", 1), "fig5": ("Fig. 5", "full", 32),
          "fig6": ("Fig. 6", "quick", 1), "fig7": ("Fig. 7", "quick", 4),
          "fig8": ("Fig. 8", "quick", 1)}

#: The known deviations: claim ids -> (declared status, one-sentence reason).
_DEVIATIONS = {
    "table2.kmeans.cpu+1gpu table2.kmeans.cpu+2gpu table2.sobel.cpu+1gpu table2.sobel.cpu+2gpu"
    " table2.heat3d.cpu+2gpu": ("above band", "The model omits intra-node costs the paper's runs"
    " pay (pinned-memory staging, ECC, driver jitter), so CPU+GPU runs keep more of perfect."),
    "table2.moldyn.cpu+1gpu table2.moldyn.cpu+2gpu table2.minimd.cpu+2gpu fig5.overall.moldyn": (
        "below band", "Splitting the reduction space across devices duplicates cross-partition"
        " edges, and every GPU re-uploads the rank's node array each step."),
    "fw-mpi.kmeans": ("below band", "The paper credits its Kmeans lead over MPI to light-weight"
    " threads instead of MPI processes, a process cost the model does not charge."),
    "fw-mpi.minimd fw-mpi.heat3d": ("below band", "The lead over blocking MPI code comes from"
    " overlapping exchange with compute, a small share of a CPU-only step at 4 nodes."),
    "fig7.overlap.sobel": ("below band", "On QDR-class links Sobel's halo traffic is tiny next to"
    " its compute, so overlap has little to hide."),
    "fig5.scaling.kmeans fig5.scaling.sobel fig5.scaling.heat3d fig5.overall.kmeans": (
        "above band", "Their exchange (Kmeans' 40-key combine, the stencils' halos) is a small"
        " share of a step and the model charges no OS noise, so they scale almost ideally."),
    "fig5.scaling.minimd fig5.overall.minimd": ("below band", "Ghost-atom pairs are computed on"
    " both ranks at functional scale, so thin 32-node slabs repeat most of the pair work."),
}


#: One row of the ledger; ``status`` is the declared one, with ``why`` unless "in band".
Claim = namedtuple("Claim", "id source scale nodes paper band status why",
                   defaults=("in band", ""))


def _near(paper: float, ref: float = 1.0, tol: float = 0.5) -> tuple[float, float]:
    """The values whose factor over ``ref`` is the paper's raised to 1 - tol .. 1 + tol."""
    ends = (ref * (paper / ref) ** (1 - tol), ref * (paper / ref) ** (1 + tol))
    return min(ends), max(ends)


@functools.cache
def claims() -> tuple[Claim, ...]:
    """The paper-claims ledger: one row per claim of the paper's §IV, each
    paper number written here once (the GPU:CPU ratios are each app's
    ``PAPER_GPU_CPU_RATIO``, the model's calibration input).

    A band is the paper's range where it gives one. Else it keeps the
    paper's effect, as a factor over no effect (1, or Table II's perfect
    speedup), in direction and within a power of 1 ± 0.5 (± 0.1 for the
    calibrated ratios). A band is never widened to take in a deviation.
    """
    apps = _SCALE_PARAMS["quick"]
    gpu = {app: import_module(f"repro.apps.{app}").PAPER_GPU_CPU_RATIO for app in apps}
    rows = {f"gpu-cpu.{app}": (v, _near(v, tol=0.1)) for app, v in gpu.items()}
    lead = gpu["kmeans"] / max(v for app, v in gpu.items() if app != "kmeans")
    rows["gpu-cpu.kmeans-leads"] = (lead, _near(lead, tol=0.1))
    table2 = {"kmeans": (3.23, 5.16), "moldyn": (2.31, 3.79), "minimd": (2.15, 3.89),
              "sobel": (2.94, 4.68), "heat3d": (3.2, 5.5)}
    for n in (1, 2):
        for app, actual in table2.items():
            said = actual[n - 1]
            rows[f"table2.{app}.cpu+{n}gpu"] = (said, _near(said, 1 + n * gpu[app]))
        mean = sum(a[n - 1] / (1 + n * gpu[app]) for app, a in table2.items()) / len(table2)
        rows[f"table2.mean.cpu+{n}gpu"] = (mean, _near(mean))
    fig6 = {"kmeans": 0.53, "minimd": 0.37, "sobel": 0.40, "heat3d": 0.28}
    fig6["mean"] = sum(fig6.values()) / len(fig6)
    ratios = {"fw-mpi.kmeans": 1.05, "fw-mpi.minimd": 1.17, "fw-mpi.sobel": 0.89,
              "fw-mpi.heat3d": 1.08, "fig7.overlap.moldyn": 1.37, "fig7.overlap.sobel": 1.11,
              "fig7.tiling.sobel": 1.20, "fig8.kmeans": 1.06, "fig8.sobel": 1.15}
    ratios |= {f"fig6.{app}": v for app, v in fig6.items()}
    rows |= {key: (v, _near(v)) for key, v in ratios.items()}
    for claim, span in (("scaling", (20, 26)), ("overall", (562, 1760))):
        rows |= {f"fig5.{claim}.{app}": (span, span) for app in apps}
    declared = {key: v for keys, v in _DEVIATIONS.items() for key in keys.split()}
    return tuple(
        Claim(key, *_WHERE[key.split(".")[0]], said, band, *declared.get(key, ()))
        for key, (said, band) in rows.items()
    )


def paper(claim_id: str) -> float:
    """One claim's paper value (what a driver's ``paper_*`` column shows)."""
    return next(c.paper for c in claims() if c.id == claim_id)


def _measured(rows: Mapping[str, list[dict]]) -> dict[tuple[str, int], float]:
    """``{(claim id, nodes): value}`` for the claims the drivers' ``rows`` (of every app) give."""
    table2, fig6 = rows.get("table2_intranode", []), rows.get("fig6_code_sizes", [])
    ratio = {r["app"]: r["gpu_vs_cpu"] for r in table2}
    got = {(f"gpu-cpu.{app}", 1): v for app, v in ratio.items()}
    got |= {(f"fig6.{r['app']}", 1): r["ratio"] for r in fig6}
    if table2:
        got["gpu-cpu.kmeans-leads", 1] = ratio.pop("kmeans") / max(ratio.values())
        for n in (1, 2):
            got |= {(f"table2.{r['app']}.cpu+{n}gpu", 1): r[f"actual_{n}gpu"] for r in table2}
            effs = [r[f"actual_{n}gpu"] / r[f"perfect_{n}gpu"] for r in table2]
            got[f"table2.mean.cpu+{n}gpu", 1] = sum(effs) / len(effs)
    if fig6:
        got["fig6.mean", 1] = sum(r["ratio"] for r in fig6) / len(fig6)
    fig5 = rows.get("fig5_scalability", [])
    speed = {(r["app"], r["mix"], r["nodes"]): r["speedup"] for r in fig5}
    for (app, mix, n), v in speed.items():
        if mix == "cpu":
            got[f"fig5.scaling.{app}", n] = v / speed[app, mix, 1]
        elif mix == "mpi-handwritten":
            got[f"fw-mpi.{app}", n] = speed[app, "cpu", n] / v
        elif mix == "cpu+2gpu":
            got[f"fig5.overall.{app}", n] = v
    for r in rows.get("fig7_optimizations", []):
        got[f"fig7.{r['optimization']}.{r['app']}", r["nodes"]] = r["gain"]
    for r in rows.get("fig8_gpu_baselines", []):
        got[f"fig8.{r['app'].split()[0]}", 1] = r["fw_over_cuda"]
    return got


LEDGER_COLUMNS = ["id", "source", "paper", "band", "scale", "nodes", "measured", "status"]


def ledger(rows: Mapping[str, Mapping[str, list[dict]]]) -> list[dict]:
    """Each claim ``rows[its scale]`` (driver name -> rows) measures: ``status`` is where
    its measured value falls, ``declared`` the ledger's."""
    measured = {scale: _measured(by_driver) for scale, by_driver in rows.items()}
    span = lambda v: "–".join(f"{x:.4g}" for x in v) if isinstance(v, tuple) else f"{v:.4g}"
    out = []
    for c in claims():
        value = measured.get(c.scale, {}).get((c.id, c.nodes))
        if value is not None:
            lo, hi = c.band
            status = ("below" if value < lo else "above" if value > hi else "in") + " band"
            out.append(c._asdict() | {"paper": span(c.paper), "band": span(c.band),
                       "measured": value, "status": status, "declared": c.status})
    return out


#: Apps with a hand-written MPI comparator (registry app ``<app>-mpi``).
MPI_APPS = ("kmeans", "minimd", "sobel", "heat3d")

#: Per-app functional sizes at each figure scale, as overrides of the app's
#: paper-sized config (functional sizes grow a little at full scale).
_SCALE_PARAMS: dict[str, dict[str, dict[str, Any]]] = {
    "quick": {
        "kmeans": {"functional_points": 48_000},
        "moldyn": {"functional_nodes": 6_000, "functional_degree": 14},
        "minimd": {"functional_cells": 8},
        "sobel": {"functional_shape": (384, 384)},
        "heat3d": {"functional_shape": (36, 36, 36)},
    },
    "full": {
        "kmeans": {"functional_points": 384_000},
        "moldyn": {},
        "minimd": {},
        "sobel": {"functional_shape": (768, 768)},
        "heat3d": {},
    },
}


def _scale_params(scale: str, apps: list[str] | None = None) -> dict[str, dict[str, Any]]:
    """``{app: config overrides}`` for the paper apps (or ``apps``) at ``scale``."""
    if scale not in _SCALE_PARAMS:
        raise ValidationError(f"scale must be 'quick' or 'full', got {scale!r}")
    params = _SCALE_PARAMS[scale]
    return {app: params[app] for app in apps or params}


def _node_counts(scale: str) -> list[int]:
    return [1, 4] if scale == "quick" else [1, 2, 4, 8, 16, 32]


def _config(app: str, params: Mapping[str, Any]) -> Any:
    """The config object a sweep point runs (for the ablations' custom runtimes)."""
    return JobSpec(app=app, scale="full", params=params).build_config()


@functools.cache
def result_store(root: Path) -> ResultStore:
    """The store the sweeps over ``root`` share in this process; its
    ``stats()`` count every sweep's reads and writes."""
    return ResultStore(root)


def _sweep(
    name: str,
    app_params: Mapping[str, Mapping[str, Any]],
    *,
    nodes: Sequence[int] = (1,),
    mixes: Sequence[str] = ("cpu+2gpu",),
    presets: Sequence[str] = ("ohio",),
    options: Mapping[str, Any] | None = None,
    points: Sequence[JobSpec] = (),
) -> list[dict]:
    """Run app x preset x nodes x mix, then ``points``, in-process; run-table
    rows in that order.

    One campaign is one admission, so its points share their inputs.
    Points are read from and written to the default result store; a stored
    result made by other code is stale and re-executed.
    """
    campaign = CampaignSpec(
        name=name,
        axes={"app": list(app_params), "preset": presets, "nodes": nodes, "mix": mixes,
              "scale": "full"},
        app_params=app_params,
        options=options or {},
        backend=None,
        points=[spec.to_dict() for spec in points],
    )
    widest = max(spec.ranks for spec in campaign.expand())
    store = result_store(default_store_root())
    result = CampaignRunner(campaign, store=store, rank_budget=widest).run()
    if not result.ok:
        bad = result.failures()[0]
        raise ReproError(
            f"{name}: {bad['app']} x{bad['nodes']} {bad['mix']} {bad['state']}: {bad['error']}"
        )
    return result.rows


def fig5_scalability(scale: str = "quick", apps: list[str] | None = None) -> list[dict]:
    """Fig. 5: speedup over one CPU core for every app/mix/node-count.

    Also emits the hand-written MPI rows (CPU-only comparator, mix
    ``mpi-handwritten``) for the four apps that have one, reproducing the
    §IV-C text comparisons.
    """
    app_params = _scale_params(scale, apps)
    node_counts = _node_counts(scale)
    hand_written = [
        JobSpec(app=f"{app}-mpi", nodes=n, mix="cpu", scale="full", params=app_params[app])
        for app in app_params if app in MPI_APPS for n in node_counts
    ]
    swept = _sweep("fig5", app_params, nodes=node_counts, mixes=FIG5_MIXES, points=hand_written)
    n_framework = len(swept) - len(hand_written)
    mpi = {(r["app"].removesuffix("-mpi"), r["nodes"]): r for r in swept[n_framework:]}
    rows = []
    for r in swept[:n_framework]:
        app, nodes = r["app"], r["nodes"]
        rows.append({"app": app, "nodes": nodes, "mix": r["mix"], "speedup": r["speedup"],
                     "makespan_s": r["makespan"]})
        if r["mix"] == FIG5_MIXES[-1] and (app, nodes) in mpi:
            hand = mpi[app, nodes]
            rows.append(rows[-1] | {"mix": "mpi-handwritten", "speedup": hand["speedup"],
                                    "makespan_s": hand["makespan"]})
    return rows


def fig5_summary(rows: list[dict]) -> list[dict]:
    """§IV-C derived numbers at the largest node count: node scaling, framework/MPI ratio."""
    top = max(r["nodes"] for r in rows)
    got = _measured({"fig5_scalability": rows})
    return [
        {"app": app, "nodes": f"1->{top}", "cpu_scaling": got[f"fig5.scaling.{app}", top],
         "fw_over_mpi": got.get((f"fw-mpi.{app}", top)),
         "best_speedup": got[f"fig5.overall.{app}", top]}
        for app in sorted({r["app"] for r in rows})
    ]


def table2_intranode(scale: str = "quick", apps: list[str] | None = None) -> list[dict]:
    """Table II: perfect vs. actual CPU+1GPU / CPU+2GPU speedups over CPU.

    *Perfect* uses the measured single-device ratios (as the paper does);
    *actual* is the simulated heterogeneous run — the gap is the scheduling
    /synchronization/communication overhead the table quantifies.
    """
    app_params = _scale_params(scale, apps)
    swept = _sweep("table2", app_params, mixes=["cpu", "1gpu", "cpu+1gpu", "cpu+2gpu"])
    rows = []
    for app in app_params:
        t = {r["mix"]: r["makespan"] for r in swept if r["app"] == app}
        gpu_ratio = t["cpu"] / t["1gpu"]
        rows.append(
            {
                "app": app,
                "gpu_vs_cpu": gpu_ratio,
                "perfect_1gpu": 1 + gpu_ratio,
                "actual_1gpu": t["cpu"] / t["cpu+1gpu"],
                "perfect_2gpu": 1 + 2 * gpu_ratio,
                "actual_2gpu": t["cpu"] / t["cpu+2gpu"],
                "paper_actual_1gpu": paper(f"table2.{app}.cpu+1gpu"),
                "paper_actual_2gpu": paper(f"table2.{app}.cpu+2gpu"),
            }
        )
    return rows


def fig6_code_sizes(repo_root: str | Path | None = None) -> list[dict]:
    """Fig. 6: code-size ratio of framework user programs vs MPI baselines."""
    root = Path(repo_root) if repo_root else Path(__file__).resolve().parents[3]
    baselines = root / "src" / "repro" / "apps" / "baselines"
    examples = root / "examples"
    programs = {"kmeans": "kmeans_clustering", "minimd": "minimd_atoms", "sobel": "sobel_edges",
                "heat3d": "heat_diffusion"}
    rows = code_size_table({app: (examples / f"{program}.py", baselines / f"mpi_{app}.py")
                            for app, program in programs.items()})
    for row in rows:
        row["paper_ratio"] = paper(f"fig6.{row['app']}")
    return rows


def fig7_optimizations(scale: str = "quick") -> list[dict]:
    """Fig. 7: overlap (Moldyn, Sobel) and tiling (Sobel) effects by nodes."""
    app_params = _scale_params(scale, ["moldyn", "sobel"])
    sobel_params = {"sobel": app_params["sobel"]}
    node_counts = _node_counts(scale)

    def times(name, params, **options):
        swept = _sweep(f"fig7-{name}", params, nodes=node_counts, options=options)
        return {(r["app"], r["nodes"]): r["makespan"] for r in swept}

    base = times("base", app_params)
    without = {
        "overlap": times("no-overlap", app_params, overlap=False),
        "tiling": times("no-tiling", sobel_params, tiling=False),
    }
    return [
        {
            "app": app,
            "optimization": opt,
            "nodes": nodes,
            "with_opt_s": base[app, nodes],
            "without_opt_s": without[opt][app, nodes],
            "gain": without[opt][app, nodes] / base[app, nodes],
        }
        for nodes in node_counts
        for app, opt in (("moldyn", "overlap"), ("sobel", "overlap"), ("sobel", "tiling"))
    ]


def fig8_gpu_baselines(scale: str = "quick") -> list[dict]:
    """Fig. 8: framework (single GPU) vs hand-written CUDA kernels."""
    small = scale == "quick"
    app_params = {
        "kmeans": {"n_points": 10_000_000, "functional_points": 50_000 if small else 200_000},
        "sobel": {"shape": (8192, 8192), "functional_shape": (256, 256) if small else (768, 768)},
    }
    labels = {"kmeans": "kmeans (10M pts)", "sobel": "sobel (8192^2)"}
    both = app_params | {f"{app}-cuda": params for app, params in app_params.items()}
    makespan = {r["app"]: r["makespan"] for r in _sweep("fig8", both, mixes=["1gpu"])}
    return [
        {
            "app": labels[app],
            "framework_s": makespan[app],
            "cuda_s": makespan[f"{app}-cuda"],
            "fw_over_cuda": makespan[app] / makespan[f"{app}-cuda"],
            "paper_fw_over_cuda": paper(f"fig8.{app}"),
        }
        for app in app_params
    ]


def ablations(scale: str = "quick") -> list[dict]:
    """DESIGN.md §5 ablations: the design choices the paper motivates.

    - reduction localization on/off (Kmeans GPU),
    - two-stream pipelining on/off (Kmeans GPU),
    - adaptive vs static-even device partitioning (Moldyn heterogeneous),
    - dynamic chunk size sweep (Kmeans heterogeneous),
    - temporal-blocking factor sweep (Jacobi2D, per cluster preset).
    """
    from repro.sim.engine import spmd_run

    app_params = _scale_params(scale, ["kmeans", "moldyn"])
    kcfg = _config("kmeans", app_params["kmeans"])
    cluster = ohio_cluster(1)
    rows = []

    def add(ablation, setting, app, time_s):
        rows.append({"ablation": ablation, "setting": setting, "app": app, "time_s": time_s})

    def kmeans_time(**knobs):
        return spmd_run(lambda ctx: _kmeans_custom(ctx, kcfg, **knobs), cluster).makespan

    for localized, setting in ((True, "on"), (False, "off")):
        time_s = kmeans_time(localized=localized, streams=2)
        add("reduction-localization", setting, "kmeans/1gpu", time_s)
    for streams in (1, 2, 4):
        time_s = kmeans_time(localized=True, streams=streams)
        add("gpu-streams", str(streams), "kmeans/1gpu", time_s)
    for chunks in (32, 512, 4096):
        chunk_elems = max(4, kcfg.functional_points // chunks)
        time_s = kmeans_time(localized=True, streams=2, mix="cpu+2gpu", chunk_elems=chunk_elems)
        add("chunk-count", str(chunks), "kmeans/cpu+2gpu", time_s)
    moldyn_params = {"moldyn": app_params["moldyn"]}
    (adaptive,) = _sweep("ablation-adaptive", moldyn_params)
    add("adaptive-partitioning", "on", "moldyn/cpu+2gpu", adaptive["makespan"])
    static = _moldyn_static(cluster, _config("moldyn", moldyn_params["moldyn"]))
    add("adaptive-partitioning", "off(static-even)", "moldyn/cpu+2gpu", static)
    rows.extend(_time_block_ablation())
    return rows


def _time_block_ablation() -> list[dict]:
    """Makespan vs temporal-blocking factor, per cluster preset.

    Fixed-iteration Jacobi2D (tol below reach, so every k runs the same 24
    sweeps): on the bandwidth-rich laptop preset blocking barely matters,
    on the latency-dominated preset the per-message alpha amortization
    shows up directly — the Fig. 7-style optimization trade.
    """
    app_params = {"jacobi2d": {"shape": (48, 48), "tol": 1e-12, "max_iters": 24}}
    presets, factors = ["laptop", "latency"], (1, 2, 4)
    times = {
        (r["preset"], k): r["makespan"]
        for k in factors
        for r in _sweep(f"ablation-time-block-{k}", app_params, presets=presets, nodes=[2],
                        mixes=["cpu"], options={"time_block": k})
    }
    return [
        {"ablation": "time-block", "setting": f"k={k}@{preset}", "app": "jacobi2d/cpu",
         "time_s": times[preset, k]}
        for preset in presets
        for k in factors
    ]


def _kmeans_custom(ctx, config, *, localized, streams, mix="1gpu", chunk_elems=None):
    """One Kmeans pass with explicit runtime knobs (ablation helper)."""
    from repro.apps import kmeans
    from repro.core.env import RuntimeEnv
    from repro.core.partition import block_partition
    from repro.data.points import clustered_points

    points, _ = clustered_points(config.functional_points, config.k, config.dims, seed=config.seed)
    centers = points[: config.k].astype("float64")
    env = RuntimeEnv(ctx, mix)
    gr = env.get_GR(localized=localized, gpu_streams=streams, chunk_elems=chunk_elems)
    gr.set_kernel(kmeans.make_kernel(config, ctx.node))
    offs = block_partition(len(points), ctx.size)
    lo, hi = int(offs[ctx.rank]), int(offs[ctx.rank + 1])
    gr.set_input(
        points[lo:hi],
        global_start=lo,
        model_local_elems=config.n_points // ctx.size,
        parameter=centers,
    )
    gr.start()
    gr.get_global_reduction()


def _moldyn_static(cluster, config) -> float:
    """Moldyn's makespan with the adaptive repartitioning disabled (even split)."""
    from repro.apps.common import extrapolated_makespan
    from repro.sim.engine import spmd_run

    result = spmd_run(_moldyn_static_rank, cluster, args=(config,))
    return extrapolated_makespan(result.values, config)


def _moldyn_static_rank(ctx, config) -> dict:
    """One rank of :func:`_moldyn_static`: moldyn's force steps on an even split."""
    from repro.apps import moldyn
    from repro.apps.common import StepLoop
    from repro.core.env import RuntimeEnv

    node_data, edges = moldyn._functional_mesh(config)
    env = RuntimeEnv(ctx, "cpu+2gpu")
    ir = env.get_IR(adaptive=False)
    ir.set_kernel(moldyn.make_cf_kernel(ctx.node, config))
    ir.set_parameter(1.0)
    ir.set_mesh(
        edges,
        node_data,
        model_edges=config.n_edges,
        model_nodes=config.n_nodes,
        device_node_bytes=moldyn.DEVICE_NODE_BYTES,
    )

    def advance(_steps: int) -> None:
        ir.start()
        ir.update_nodedata(ir.get_local_nodes())

    return {"steps": StepLoop(ctx).run(config.simulated_steps, advance)}
