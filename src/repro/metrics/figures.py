"""Experiment drivers — one per table/figure in the paper's evaluation.

Every function returns a list of row dicts (ready for
:func:`repro.metrics.reporting.format_table`) and is used both by the
benchmark suite (``benchmarks/``) and by the EXPERIMENTS.md generator
(``examples/generate_experiments_md.py``).

Framework rows are :class:`~repro.campaign.CampaignSpec` sweeps run
in-process (:func:`_sweep`), the same path ``repro campaign run`` takes;
the hand-written MPI/CUDA baselines and the two ablations that reach
below an app's ``run`` are direct calls, imported where they are used.

Workload knobs: each driver takes a ``scale`` in {"quick", "full"}.
Both charge the cost model at the paper's workload sizes; they differ only
in the functional array sizes (math volume) and the node counts swept, so
"quick" fits in CI while "full" is what EXPERIMENTS.md reports.
"""

from __future__ import annotations

from importlib import import_module
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.campaign import CampaignRunner, CampaignSpec
from repro.cluster.presets import ohio_cluster
from repro.metrics.codesize import code_size_table
from repro.serve.spec import JobSpec
from repro.util.errors import ReproError, ValidationError

#: Device mixes plotted in Fig. 5 (per node).
FIG5_MIXES = ["cpu", "1gpu", "2gpu", "cpu+1gpu", "cpu+2gpu"]

#: Paper values quoted for EXPERIMENTS.md comparisons (from §IV and Table II).
PAPER = {
    "gpu_cpu_ratio": {"kmeans": 2.69, "moldyn": 1.5, "minimd": 1.7, "sobel": 2.24, "heat3d": 2.4},
    "table2_perfect": {
        "kmeans": (3.69, 6.38),
        "moldyn": (2.5, 4.0),
        "minimd": (2.7, 4.4),
        "sobel": (3.24, 5.48),
        "heat3d": (3.4, 5.8),
    },
    "table2_actual": {
        "kmeans": (3.23, 5.16),
        "moldyn": (2.31, 3.79),
        "minimd": (2.15, 3.89),
        "sobel": (2.94, 4.68),
        "heat3d": (3.2, 5.5),
    },
    "mpi_ratio": {"kmeans": 1.05, "minimd": 1.17, "sobel": 0.89, "heat3d": 1.08},
    "fig6_ratio": {"kmeans": 0.53, "minimd": 0.37, "sobel": 0.40, "heat3d": 0.28},
    "fig7_overlap": {"moldyn": 1.37, "sobel": 1.11},
    "fig7_tiling": {"sobel": 1.20},
    "fig8_ratio": {"kmeans": 1.06, "sobel": 1.15},
    "overall_speedup_range": (562, 1760),
}


#: Apps with a hand-written MPI comparator (``repro.apps.baselines.mpi_<app>``).
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
    """The config object a sweep point runs (for baselines and custom runtimes)."""
    return JobSpec(app=app, scale="full", params=params).build_config()


def _sweep(
    name: str,
    app_params: Mapping[str, Mapping[str, Any]],
    *,
    nodes: Sequence[int] = (1,),
    mixes: Sequence[str] = ("cpu+2gpu",),
    presets: Sequence[str] = ("ohio",),
    options: Mapping[str, Any] | None = None,
) -> list[dict]:
    """Run app x preset x nodes x mix in-process; run-table rows in that order.

    No persistent store: a figure must reflect the current code.
    """
    campaign = CampaignSpec(
        name=name,
        axes={
            "app": list(app_params),
            "preset": presets,
            "nodes": nodes,
            "mix": mixes,
            "scale": "full",
        },
        app_params=app_params,
        options=options or {},
        backend=None,
    )
    result = CampaignRunner(campaign, store=None).run()
    if not result.ok:
        bad = result.failures()[0]
        raise ReproError(
            f"{name}: {bad['app']} x{bad['nodes']} {bad['mix']} {bad['state']}: {bad['error']}"
        )
    return result.rows


def fig5_scalability(scale: str = "quick", apps: list[str] | None = None) -> list[dict]:
    """Fig. 5: speedup over one CPU core for every app/mix/node-count.

    Also emits the hand-written MPI rows (CPU-only comparator) for the
    four apps that have one, reproducing the §IV-C text comparisons.
    """
    app_params = _scale_params(scale, apps)
    rows = []

    def add(app, nodes, mix, speedup, makespan):
        rows.append(
            {"app": app, "nodes": nodes, "mix": mix, "speedup": speedup, "makespan_s": makespan}
        )

    for r in _sweep("fig5", app_params, nodes=_node_counts(scale), mixes=FIG5_MIXES):
        app, nodes = r["app"], r["nodes"]
        add(app, nodes, r["mix"], r["speedup"], r["makespan"])
        if r["mix"] == FIG5_MIXES[-1] and app in MPI_APPS:
            mpi = import_module(f"repro.apps.baselines.mpi_{app}")
            run = mpi.run(ohio_cluster(nodes), _config(app, app_params[app]))
            add(app, nodes, "mpi-handwritten", run.speedup, run.makespan)
    return rows


def fig5_summary(rows: list[dict]) -> list[dict]:
    """§IV-C derived numbers: framework-vs-MPI ratio and node scaling."""
    out = []
    apps = sorted({r["app"] for r in rows})
    for app in apps:
        mine = [r for r in rows if r["app"] == app]
        nodes = sorted({r["nodes"] for r in mine})
        first, last = nodes[0], nodes[-1]

        def val(mix, n):
            for r in mine:
                if r["mix"] == mix and r["nodes"] == n:
                    return r["speedup"]
            return None

        cpu_first, cpu_last = val("cpu", first), val("cpu", last)
        best_last = val("cpu+2gpu", last)
        mpi_last = val("mpi-handwritten", last)
        out.append(
            {
                "app": app,
                "nodes": f"{first}->{last}",
                "cpu_scaling": (cpu_last / cpu_first) if cpu_first and cpu_last else None,
                "fw_over_mpi": (cpu_last / mpi_last) if mpi_last and cpu_last else None,
                "best_speedup": best_last,
            }
        )
    return out


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
                "paper_actual_1gpu": PAPER["table2_actual"][app][0],
                "paper_actual_2gpu": PAPER["table2_actual"][app][1],
            }
        )
    return rows


def fig6_code_sizes(repo_root: str | Path | None = None) -> list[dict]:
    """Fig. 6: code-size ratio of framework user programs vs MPI baselines."""
    root = Path(repo_root) if repo_root else Path(__file__).resolve().parents[3]
    baselines = root / "src" / "repro" / "apps" / "baselines"
    examples = root / "examples"
    pairs = {
        "kmeans": (examples / "kmeans_clustering.py", baselines / "mpi_kmeans.py"),
        "minimd": (examples / "minimd_atoms.py", baselines / "mpi_minimd.py"),
        "sobel": (examples / "sobel_edges.py", baselines / "mpi_sobel.py"),
        "heat3d": (examples / "heat_diffusion.py", baselines / "mpi_heat3d.py"),
    }
    rows = code_size_table(pairs)
    for row in rows:
        row["paper_ratio"] = PAPER["fig6_ratio"][row["app"]]
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
        "kmeans": {
            "n_points": 10_000_000,
            "functional_points": 50_000 if small else 200_000,
        },
        "sobel": {
            "shape": (8192, 8192),
            "functional_shape": (256, 256) if small else (768, 768),
        },
    }
    labels = {"kmeans": "kmeans (10M pts)", "sobel": "sobel (8192^2)"}
    rows = []
    for r in _sweep("fig8", app_params, mixes=["1gpu"]):
        app = r["app"]
        cuda = import_module(f"repro.apps.baselines.cuda_{app}")
        cu = cuda.run(ohio_cluster(1), _config(app, app_params[app]))
        rows.append(
            {
                "app": labels[app],
                "framework_s": r["makespan"],
                "cuda_s": cu.makespan,
                "fw_over_cuda": r["makespan"] / cu.makespan,
                "paper_fw_over_cuda": PAPER["fig8_ratio"][app],
            }
        )
    return rows


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

    for localized in (True, False):
        add(
            "reduction-localization",
            "on" if localized else "off",
            "kmeans/1gpu",
            kmeans_time(localized=localized, streams=2),
        )
    for streams in (1, 2, 4):
        time_s = kmeans_time(localized=True, streams=streams)
        add("gpu-streams", str(streams), "kmeans/1gpu", time_s)
    for chunks in (32, 512, 4096):
        add(
            "chunk-count",
            str(chunks),
            "kmeans/cpu+2gpu",
            kmeans_time(
                localized=True,
                streams=2,
                mix="cpu+2gpu",
                chunk_elems=max(4, kcfg.functional_points // chunks),
            ),
        )
    moldyn_params = {"moldyn": app_params["moldyn"]}
    (adaptive,) = _sweep("ablation-adaptive", moldyn_params)
    add("adaptive-partitioning", "on", "moldyn/cpu+2gpu", adaptive["makespan"])
    static = _moldyn_static(cluster, _config("moldyn", moldyn_params["moldyn"]))
    add("adaptive-partitioning", "off(static-even)", "moldyn/cpu+2gpu", static.makespan)
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
        for r in _sweep(
            f"ablation-time-block-{k}",
            app_params,
            presets=presets,
            nodes=[2],
            mixes=["cpu"],
            options={"time_block": k},
        )
    }
    return [
        {
            "ablation": "time-block",
            "setting": f"k={k}@{preset}",
            "app": "jacobi2d/cpu",
            "time_s": times[preset, k],
        }
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
    return None


def _moldyn_static(cluster, config):
    """Moldyn with the adaptive repartitioning disabled (even split)."""
    from repro.apps import moldyn
    from repro.apps.common import AppRun, extrapolate_steps, sequential_time
    from repro.sim.engine import spmd_run

    def program(ctx):
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
        times = []
        for _ in range(config.simulated_steps):
            t0 = ctx.clock.now
            ir.start()
            ir.update_nodedata(ir.get_local_nodes())
            times.append(ctx.clock.now - t0)
        return times

    result = spmd_run(program, cluster)
    makespan = max(extrapolate_steps(v, config.iterations) for v in result.values)
    seq = sequential_time(moldyn.base_cf_work(), config.n_edges, cluster.node, config.iterations)
    return AppRun(
        app="moldyn-static", mix="cpu+2gpu", nodes=cluster.num_nodes, makespan=makespan, seq_time=seq
    )
