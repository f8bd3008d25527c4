"""Seeded random instances: connected graphs, compositions and whole problems.

Every draw comes from the generator passed in, in a fixed order, so one seed
always gives the same instance.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, Topology, build_graph
from .partition import Layout, ProblemInstance, partition_columns, partition_rows


def random_connected_graph(rng: np.random.Generator, node_count: int, extra_edge_prob: float = 0.5) -> Graph:
    """Random spanning tree plus independent extra edges."""
    edges = []
    order = rng.permutation(node_count)
    for idx in range(1, node_count):
        parent = order[int(rng.integers(0, idx))]
        edges.append((int(order[idx]), int(parent)))
    for a in range(node_count):
        for b in range(a + 1, node_count):
            if rng.random() < extra_edge_prob:
                edges.append((a, b))
    return build_graph(node_count, edges)


def random_composition(rng: np.random.Generator, total: int, parts: int) -> list:
    """Split total into `parts` positive integers."""
    if not 1 <= parts <= total:
        raise ValueError(f"cannot split {total} into {parts} positive parts")
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [total]))).tolist()


def random_instance(
    rng: np.random.Generator,
    scheme: str,
    max_dim: int,
    *,
    tall: bool = False,
    min_sigma: float = 0.0,
    max_clusters: int = 4,
    max_agents: int = 4,
    extra_edge_prob: float = 0.5,
) -> tuple:
    """Random consistent instance (A uniform in [-1, 1], b = A x_true) with a
    random connected two-layer topology.

    tall=True forces m >= n so the solution is unique; min_sigma redraws A
    until its smallest singular value clears the bound.  Clusters split the
    outer size (rows under the row scheme, columns under the column scheme)
    and each cluster's agents split the inner one.
    """
    if tall:
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(n, max_dim + 1))
    else:
        m = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_dim + 1))
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    while min_sigma > 0.0 and np.linalg.svd(a, compute_uv=False)[-1] < min_sigma:
        a = rng.uniform(-1.0, 1.0, size=(m, n))
    x_true = rng.uniform(-1.0, 1.0, size=n)
    b = a @ x_true
    outer, inner = (m, n) if scheme == "row" else (n, m)
    c = int(rng.integers(min(2, outer), min(max_clusters, outer) + 1))
    cluster_sizes = random_composition(rng, outer, c)
    agent_sizes = [
        random_composition(rng, inner, int(rng.integers(1, min(max_agents, inner) + 1)))
        for _ in range(c)
    ]
    topo = Topology(
        cluster_graph=random_connected_graph(rng, c, extra_edge_prob),
        agent_graphs=tuple(
            random_connected_graph(rng, len(row), extra_edge_prob) for row in agent_sizes
        ),
    )
    layout = Layout(scheme=scheme, cluster_sizes=cluster_sizes, agent_sizes=agent_sizes)
    inst = ProblemInstance(a=a, b=b, topology=topo, layout=layout)
    part = partition_rows(inst) if scheme == "row" else partition_columns(inst)
    return inst, part
