"""Connected bidirectional graphs for both network layers.

Edges are stored as canonical pairs and self-pairs never are; adjacent()
lists a node's strict neighbors.  Connectivity is validated eagerly so
everything downstream may assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DisconnectedGraphError(ValueError):
    """Raised when a layer graph does not connect all of its nodes."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph with canonical (lo, hi) edge pairs."""

    node_count: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        for pair in self.edges:
            a, b = pair
            if not (0 <= a < b < self.node_count):
                raise ValueError(
                    f"edge {pair!r} out of range for {self.node_count} nodes"
                )
        if not self._connected():
            raise DisconnectedGraphError(
                f"graph on {self.node_count} nodes with {len(self.edges)} "
                "edges is not connected"
            )

    @cached_property
    def _adjacency(self) -> tuple:
        """Sorted strict neighbors of every node, built once."""
        adj = [[] for _ in range(self.node_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def _connected(self) -> bool:
        adj = self._adjacency
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == self.node_count

    def adjacent(self, i: int) -> tuple:
        """Strict neighbors of node i, sorted."""
        if not 0 <= i < self.node_count:
            raise ValueError(f"node {i} out of range")
        return self._adjacency[i]


def build_graph(node_count: int, edges) -> Graph:
    """Build a validated graph.

    Duplicate pairs (in either orientation) collapse silently; self-pairs are
    dropped, since the update laws difference a node only against others.
    """
    canon = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            continue
        canon.add((min(a, b), max(a, b)))
    return Graph(node_count, frozenset(canon))


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian: degree matrix minus adjacency."""
    lap = np.zeros((g.node_count, g.node_count))
    for a, b in g.edges:
        lap[a, a] += 1.0
        lap[b, b] += 1.0
        lap[a, b] -= 1.0
        lap[b, a] -= 1.0
    return lap


def lifted_laplacian(g: Graph, block_dim: int) -> np.ndarray:
    """Laplacian acting blockwise on stacked block_dim-vectors: L (x) I.

    The dense reference of one spectral.Lift term, which builds the same
    np.kron only on request."""
    if block_dim < 1:
        raise ValueError("block_dim must be >= 1")
    return np.kron(laplacian(g), np.eye(block_dim))


@dataclass(frozen=True)
class Topology:
    """Cluster-layer graph plus one agent-layer graph per cluster."""

    cluster_graph: Graph
    agent_graphs: tuple

    def __post_init__(self):
        object.__setattr__(self, "agent_graphs", tuple(self.agent_graphs))
        if len(self.agent_graphs) != self.cluster_graph.node_count:
            raise ValueError(
                f"{len(self.agent_graphs)} agent graphs for "
                f"{self.cluster_graph.node_count} clusters"
            )

    @property
    def cluster_count(self) -> int:
        return self.cluster_graph.node_count

    @property
    def agent_counts(self) -> tuple:
        return tuple(g.node_count for g in self.agent_graphs)
