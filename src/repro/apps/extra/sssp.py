"""Single-source shortest paths via Bellman-Ford relaxation.

Exercises the irregular-reduction pattern with the **min** operator: per
round every undirected edge ``(u, v, w)`` proposes ``dist[u] + w`` to ``v``
and ``dist[v] + w`` to ``u``; the reduction object keeps the minimum
proposal per node, and the host takes ``min(dist, proposals)``.  Rounds
repeat until an allreduce reports no distance changed (at most |V| - 1
rounds).  Verified against networkx's Dijkstra in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import IRKernel
from repro.core.env import DeviceConfig, RuntimeEnv
from repro.data.meshes import geometric_mesh
from repro.device.work import WorkModel
from repro.sim.engine import RankContext
from repro.util.errors import ConfigurationError, ValidationError


@dataclass(frozen=True)
class SsspConfig:
    """SSSP workload (functional scale only)."""

    n_nodes: int = 300
    degree: float = 8.0
    source: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.source < self.n_nodes:
            raise ValidationError("source must be a valid node id")


def relax_work(n_nodes: int) -> WorkModel:
    return WorkModel(
        name="sssp.relax",
        flops_per_elem=4.0,
        bytes_per_elem=40.0,
        cpu_mem_efficiency=0.7,
        atomics_per_elem=2.0,
        num_reduction_keys=n_nodes,
    )


def relax_batch(obj, edges: np.ndarray, weights: np.ndarray, nodes: np.ndarray, _p) -> None:
    """ir_edge_compute_fp: propose relaxed distances to both endpoints."""
    du = nodes[edges[:, 0], 0]
    dv = nodes[edges[:, 1], 0]
    obj.insert_many(edges[:, 1], du + weights)
    obj.insert_many(edges[:, 0], dv + weights)


def generate_graph(config: SsspConfig):
    positions, edges = geometric_mesh(config.n_nodes, config.degree, seed=config.seed)
    weights = np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
    return edges, weights


def rank_program(
    ctx: RankContext, config: SsspConfig, mix: str | DeviceConfig = "cpu"
) -> dict:
    edges, weights = generate_graph(config)
    n = config.n_nodes
    dist = np.full((n, 1), np.inf)
    dist[config.source, 0] = 0.0

    env = RuntimeEnv(ctx, mix)
    ir = env.get_IR()
    ir.set_kernel(IRKernel(relax_batch, "min", 1, relax_work(n)))
    ir.set_mesh(edges, dist, weights)
    lo, hi = ir.local_node_range

    rounds = 0
    for _ in range(n - 1):
        ir.start()
        proposals = ir.get_local_reduction()[:, 0]
        local = ir.get_local_nodes()
        improved = proposals < local[:, 0]
        rounds += 1
        changed = ctx.comm.allreduce(float(improved.any()), "max")
        if changed == 0.0:
            break
        local[improved, 0] = proposals[improved]
        ir.update_nodedata(local)

    env.finalize()
    return {"range": (lo, hi), "dist": ir.get_local_nodes()[:, 0], "rounds": rounds}


def sequential_reference(config: SsspConfig) -> np.ndarray:
    """Dijkstra via networkx (an entirely independent oracle).

    networkx is a test-only dependency: ``pip install -e '.[test]'``.
    """
    try:
        import networkx as nx
    except ImportError:
        raise ConfigurationError(
            "the SSSP reference oracle needs networkx, which ships with the "
            "'test' extra: pip install -e '.[test]'"
        ) from None

    edges, weights = generate_graph(config)
    graph = nx.Graph()
    graph.add_nodes_from(range(config.n_nodes))
    graph.add_weighted_edges_from(
        (int(u), int(v), float(w)) for (u, v), w in zip(edges, weights)
    )
    lengths = nx.single_source_dijkstra_path_length(graph, config.source)
    dist = np.full(config.n_nodes, np.inf)
    for node, d in lengths.items():
        dist[node] = d
    return dist
