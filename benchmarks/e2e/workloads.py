"""Deterministic, stratified workload generator for the service benchmark.

A workload is a list of *rounds*; every round of a workload holds the same
multiset of job classes, so rounds are comparable with each other and a run
can report an order statistic across them.  ``--seed`` decides only two
things: the ``seed`` config param of every job (which makes each spec's
content hash unique, so nothing outside ``campaign_rerun`` is ever answered
from the result cache) and the shuffle order inside a round.

Class sizes were chosen against the client's 50 ms poll quantum: a job is
seen done at the first poll after it finishes, so a class whose server time
sits next to a multiple of ~52 ms flips between two latencies from run to
run.  The classes that carry ``job_p50_ms`` / ``job_p90_ms`` sit mid-quantum
on the reference host (see README.md, "Choosing class sizes").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

#: ``--seconds`` value the per-round class counts below are sized for.
NOMINAL_SECONDS = 20

#: Rounds per untraced run (the run reports the second-best round).
ROUNDS = 6

#: Points of one ``campaign_rerun`` campaign: 3 apps x 2 node counts x 4 seeds.
CAMPAIGN_APPS = ("heat3d", "sobel", "kmeans")
CAMPAIGN_NODES = (2, 4)
CAMPAIGN_SEEDS = 4
CAMPAIGN_POINTS = len(CAMPAIGN_APPS) * len(CAMPAIGN_NODES) * CAMPAIGN_SEEDS

#: A replay re-runs the campaign of this many extend ops earlier, by which
#: time all its points have aged out of the server's 64-entry LRU.
REPLAY_DISTANCE = 12

#: Small per-app configs for campaign points, so an extend op is dominated by
#: the serve/campaign layers rather than by kernels.
CAMPAIGN_APP_PARAMS = {
    "heat3d": {"functional_shape": [12, 12, 12], "simulated_steps": 2},
    "sobel": {"functional_shape": [96, 96], "simulated_steps": 2},
    "kmeans": {"functional_points": 8000},
}


# The lossy reliable + checkpointed heat3d spec of examples/serve_smoke.py,
# with enough loss that retransmission and the rank-1 crash really happen.
_LOSSY_PLAN = {
    "seed": 7,
    "rules": [
        {"drop_prob": 0.1, "dup_prob": 0.02, "delay_prob": 0.05, "max_delay": 1e-4}
    ],
    "crashes": [{"rank": 1, "at_time": 0.001, "restart_cost": 0.5}],
}


#: The small cluster of examples/serve_smoke.py: one CPU device per rank.
_SMALL = {"preset": "laptop", "mix": "cpu"}


@dataclass(frozen=True)
class JobClass:
    """One stratum of a workload: a spec template and its count per round."""

    name: str
    count: int
    spec: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rank_budget: int
    classes: tuple[JobClass, ...]
    clients: int = 1  # closed-loop client threads of the generator
    cache_size: int = 128  # JobServer's default
    use_store: bool = False
    campaign_ops: int = 0  # > 0: ops are CampaignRunner.run() calls


def _job(app: str, nodes: int, **rest: Any) -> dict[str, Any]:
    return {"app": app, "nodes": nodes, **rest}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_small",
            why="tiny jobs: HTTP, validation, hashing, dispatch, spmd set-up, "
            "digest and the client's 50 ms poll are the latency; kernels do "
            "almost nothing",
            rank_budget=64,
            clients=2,
            classes=(
                # 85 % tiny, 15 % sobel@4: with two clients every class still
                # finishes inside the first 50 ms poll sleep, and job_p90_ms
                # falls inside the sobel@4 class, 5 points from its boundary.
                JobClass("heat3d@2", 26, _job("heat3d", 2, **_SMALL)),
                JobClass("sobel@2", 19, _job("sobel", 2, **_SMALL)),
                JobClass(
                    "kmeans@2",
                    19,
                    _job("kmeans", 2, params={"functional_points": 3000, "k": 8}, **_SMALL),
                ),
                JobClass("heat3d@4", 19, _job("heat3d", 4, **_SMALL)),
                JobClass(
                    "heat3d@2-lossy",
                    2,
                    _job(
                        "heat3d",
                        2,
                        params={"functional_shape": [12, 12, 12], "simulated_steps": 6},
                        options={"reliable": True, "checkpoint_every": 2},
                        fault_plan=_LOSSY_PLAN,
                        **_SMALL,
                    ),
                ),
                JobClass("sobel@4", 15, _job("sobel", 4, **_SMALL)),
            ),
        ),
        Workload(
            name="kernel_heavy",
            why="2-node jobs with real arrays: NumPy kernels, the core "
            "runtimes and device cost charging do the work; a serve or "
            "engine change must read 'no change' here",
            rank_budget=64,
            classes=(
                JobClass(
                    "heat3d-64^3x10",
                    5,
                    _job(
                        "heat3d",
                        2,
                        params={"functional_shape": [64, 64, 64], "simulated_steps": 10},
                    ),
                ),
                JobClass(
                    "sobel-672^2x15",
                    5,
                    _job(
                        "sobel",
                        2,
                        params={"functional_shape": [672, 672], "simulated_steps": 15},
                    ),
                ),
                JobClass(
                    "kmeans-75kx3",
                    5,
                    _job(
                        "kmeans",
                        2,
                        params={"functional_points": 75_000, "iterations": 3},
                    ),
                ),
                JobClass(
                    "moldyn-6500x5",
                    5,
                    _job(
                        "moldyn",
                        2,
                        params={"functional_nodes": 6500, "simulated_steps": 5},
                    ),
                ),
                JobClass(
                    "minimd-10x9",
                    5,
                    _job(
                        "minimd", 2, params={"functional_cells": 10, "simulated_steps": 9}
                    ),
                ),
            ),
        ),
        Workload(
            name="rank_scale",
            why="many ranks, tiny per-rank payloads, one device per rank: the "
            "rank-thread pool, fabric matching, lock/cv waits, collectives "
            "and GIL hand-offs dominate",
            rank_budget=256,
            classes=(
                # Sorted by latency, the 20 16-rank jobs (~70 ms) hold positions
                # 0-19 of 30 and the eight heat3d@24 (~75 ms) 20-27, so
                # job_p50_ms and job_p90_ms each fall well inside one group.
                # The 64- and 128-rank jobs run 120-320 ms +-25 %: too few and
                # too uneven to carry a percentile, they weigh on jobs_per_s.
                JobClass("heat3d@16", 14, _job("heat3d", 16, mix="cpu")),
                JobClass(
                    "jacobi2d@16",
                    3,
                    # tol below reach: a fixed 6 iterations, one allreduce each.
                    _job("jacobi2d", 16, mix="cpu", params={"tol": 1e-12, "max_iters": 6}),
                ),
                JobClass(
                    "kmeans@16",
                    3,
                    _job("kmeans", 16, mix="cpu", params={"functional_points": 4000}),
                ),
                JobClass("heat3d@24", 8, _job("heat3d", 24, mix="cpu")),
                JobClass("heat3d@64", 1, _job("heat3d", 64, mix="cpu")),
                JobClass("heat3d@128", 1, _job("heat3d", 128, mix="cpu")),
            ),
        ),
        Workload(
            name="campaign_rerun",
            why="sliding 24-point campaigns over a 64-entry LRU and an on-disk "
            "store: batch admission, dedup, wait_many, per-point result "
            "GETs, store promotion and spec hashing do the work",
            rank_budget=64,
            cache_size=64,
            use_store=True,
            campaign_ops=24,
            classes=tuple(
                JobClass(f"{app}@{nodes}", 0, _job(app, nodes, params=CAMPAIGN_APP_PARAMS[app]))
                for app in CAMPAIGN_APPS
                for nodes in CAMPAIGN_NODES
            ),
        ),
    )
}

def _seed_base(run_seed: int, round_index: int) -> int:
    """Disjoint ``seed``-param ranges per (run seed, round)."""
    return run_seed * 10_000_000 + round_index * 100_000


def _with_seed(spec: dict[str, Any], seed: int) -> dict[str, Any]:
    return {**spec, "params": {**spec.get("params", {}), "seed": seed}}


def scaled_count(count: int, seconds: float) -> int:
    """Class count for a ``--seconds`` other than the nominal one."""
    return max(1, round(count * seconds / NOMINAL_SECONDS)) if count else 0


def job_round(
    workload: Workload, run_seed: int, round_index: int, seconds: float
) -> list[tuple[str, dict[str, Any]]]:
    """The measured ``(class name, spec document)`` list of one round."""
    base = _seed_base(run_seed, round_index)
    jobs: list[tuple[str, dict[str, Any]]] = []
    for cls in workload.classes:
        for _ in range(scaled_count(cls.count, seconds)):
            jobs.append((cls.name, _with_seed(cls.spec, base + len(jobs))))
    random.Random(f"{workload.name}:{run_seed}:{round_index}").shuffle(jobs)
    return jobs


def warm_pass(
    workload: Workload, run_seed: int, round_index: int, repeat: int = 0
) -> list[tuple[str, dict[str, Any]]]:
    """One job per class, with seeds no measured job uses."""
    base = _seed_base(run_seed, round_index) + 90_000 + repeat * 1000
    return [
        (cls.name, _with_seed(cls.spec, base + i))
        for i, cls in enumerate(workload.classes)
    ]


def campaign_doc(name: str, first_seed: int) -> dict[str, Any]:
    """The 24-point campaign whose seed window starts at ``first_seed``."""
    return {
        "name": name,
        "axes": {
            "app": list(CAMPAIGN_APPS),
            "nodes": list(CAMPAIGN_NODES),
            "seed": list(range(first_seed, first_seed + CAMPAIGN_SEEDS)),
        },
        "app_params": CAMPAIGN_APP_PARAMS,
        "backend": None,
    }


def campaign_round(
    workload: Workload, run_seed: int, round_index: int, seconds: float
) -> list[tuple[str, dict[str, Any]]]:
    """The ``(kind, campaign document)`` op list of one round.

    *Extend* ops slide the seed window by one (6 new points, 18 already in
    memory).  Every 5th op, once ``REPLAY_DISTANCE`` extend ops exist, is a
    *replay* of the campaign from ``REPLAY_DISTANCE`` extend ops earlier.
    """
    base = _seed_base(run_seed, round_index)
    n_ops = max(REPLAY_DISTANCE + 3, scaled_count(workload.campaign_ops, seconds))
    ops: list[tuple[str, dict[str, Any]]] = []
    extends = 0
    for i in range(n_ops):
        if extends >= REPLAY_DISTANCE and i % 5 == 4:
            target = extends - REPLAY_DISTANCE
            ops.append(("replay", campaign_doc(f"replay-{target}", base + target)))
        else:
            ops.append(("extend", campaign_doc(f"extend-{extends}", base + extends)))
            extends += 1
    return ops


def dump(workload: Workload, run_seed: int, seconds: float, rounds: int = ROUNDS) -> list:
    """Every round's op list, as ``--dump-workload`` prints it."""
    make = campaign_round if workload.campaign_ops else job_round
    return [make(workload, run_seed, r, seconds) for r in range(rounds)]


def self_check(seconds: float = NOMINAL_SECONDS) -> None:
    """Assert the generator's contract; raises ``AssertionError`` otherwise.

    Same seed -> identical list; different seed -> same class counts; and no
    spec hash occurs twice within a run outside ``campaign_rerun``.
    """
    from collections import Counter

    from repro.campaign import CampaignSpec
    from repro.serve import JobSpec

    for workload in WORKLOADS.values():
        a = dump(workload, 1, seconds)
        assert a == dump(workload, 1, seconds), f"{workload.name}: not deterministic"
        b = dump(workload, 2, seconds)
        for ra, rb in zip(a, b):
            assert Counter(k for k, _ in ra) == Counter(k for k, _ in rb), (
                f"{workload.name}: class counts differ between seeds"
            )
            assert Counter(k for k, _ in ra) == Counter(k for k, _ in a[0]), (
                f"{workload.name}: class counts differ between rounds"
            )
        if workload.campaign_ops:
            windows = [
                {s.content_hash() for _, doc in rnd for s in CampaignSpec.from_dict(doc).expand()}
                for rnd in a + b
            ]
        else:
            windows = []
            for r, rnd in enumerate(a + b):
                seed = 1 if r < len(a) else 2
                docs = [doc for _, doc in rnd]
                docs += [doc for _, doc in warm_pass(workload, seed, r % len(a))]
                docs += [doc for _, doc in warm_pass(workload, seed, r % len(a), 1)]
                hashes = [JobSpec.from_dict(doc).content_hash() for doc in docs]
                assert len(set(hashes)) == len(hashes), (
                    f"{workload.name}: duplicate spec hash inside a round"
                )
                windows.append(set(hashes))
        for i, wi in enumerate(windows):
            for wj in windows[i + 1 :]:
                assert not (wi & wj), f"{workload.name}: spec hashes shared between rounds"
