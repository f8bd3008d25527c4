"""Per-agent update laws for both partition schemes.

Row scheme, agent j of cluster i (block A_ij is m_i x n_ij):

    dx_ij = -A_ij.T (A_ij x_ij - b_ij - sum_{k in N_ij} (z_ij - z_ik))
            - sum_{l in N_i} (x_ij - E_ij X_l)
    dz_ij =  A_ij x_ij - b_ij - sum_{k in N_ij} (z_ij - z_ik)

Column scheme, agent j of cluster i (block A_ij is m_ij x n_i):

    dx_ij = -A_ij.T (A_ij x_ij - b_ij - sum_{l in N_i} (z_ij - E_ij Z_l))
            - sum_{k in N_ij} (x_ij - x_ik)
    dz_ij =  A_ij x_ij - b_ij - sum_{l in N_i} (z_ij - E_ij Z_l)

N_ij are the agent's in-cluster neighbors, N_i the cluster's neighbors, X_l /
Z_l a neighboring cluster's stacked solution / coordination state (relayed by
the cluster layer, never computed on), and E_ij cuts agent j's own band out
of it.  Self-differences vanish, so the sums run over strict neighbors.
Every agent reads only its own block, its own states, in-cluster neighbor
states, and the stacked states of neighboring clusters; nothing else can
change its derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graph import Topology
from .linalg import as_vector
from .partition import check_topology


class ShapeMismatchError(ValueError):
    """State shapes do not match the partition's block sizes."""


def flat_slices(part) -> tuple:
    """Slices of the flat state [x; z] for every agent, plus dimensions.

    The flat vector is the package's one state representation.  Each agent's
    x takes as many entries as its block has columns and its z as many as
    the block has rows.  The x block stacks clusters in order, agents in
    order within a cluster; the z block repeats that order.  This matches
    the stacked drift form.
    """
    slices, pos = [], 0
    for axis in (1, 0):
        for row in part.blocks:
            cur = []
            for a in row:
                cur.append(slice(pos, pos + a.shape[axis]))
                pos += a.shape[axis]
            slices.append(tuple(cur))
    x_slices, z_slices = slices[: part.cluster_count], slices[part.cluster_count :]
    return tuple(x_slices), tuple(z_slices), z_slices[0][0].start, pos


def as_flat_state(part, y) -> np.ndarray:
    """y as a float (dim,) flat [x; z] state of the partition.

    Raises ShapeMismatchError for any other shape.
    """
    y = np.asarray(y, dtype=float)
    dim = part.x_dim + part.z_dim
    if y.shape != (dim,):
        raise ShapeMismatchError(f"flat state has shape {y.shape}, expected ({dim},)")
    return y


def tiled_reference(part, x_star) -> np.ndarray:
    """x_star laid out like the x block of the flat state.

    Row scheme: one copy of x_star per cluster.  Column scheme: each
    cluster's slice of x_star, once per agent of that cluster.
    """
    x_star = as_vector(x_star)
    if x_star.shape[0] != part.total_cols:
        raise ValueError(
            f"reference has {x_star.shape[0]} entries, expected {part.total_cols}"
        )
    if part.scheme == "row":
        return np.tile(x_star, part.cluster_count)
    pieces, start = [], 0
    for n_i, agents in zip(part.cluster_cols, part.agent_counts):
        pieces.append(np.tile(x_star[start : start + n_i], agents))
        start += n_i
    return np.concatenate(pieces)


class DerivativePlan:
    """The per-agent update law precompiled for repeated evaluation.

    Both schemes give every agent the same affine map of its local inputs
    (own x, own z, the z-like neighbor inputs it differences against, and the
    x-like neighbor inputs it averages toward):

        r  = A x - b - q z + sum_k zin_k
        dx = -A.T r - p x + sum_k xin_k
        dz = r

    with q / p the respective neighbor counts.  Row scheme: zin are the
    in-cluster neighbors' coordination states and xin are this agent's bands
    of neighboring clusters' stacked states.  Column scheme: zin are this
    agent's bands of neighboring clusters' stacked coordination states and
    xin are the in-cluster neighbors' solution states.

    Each agent's map is written block by block into one affine operator on
    the flat state.  Row-scheme bands are the agent's own columns cut from
    each neighboring cluster's stacked x, column-scheme bands its own rows
    cut from the neighbors' stacked z.  Columns outside an agent's inputs
    stay exactly zero, so nothing else can influence its derivative;
    evaluation is one matrix-vector product.
    """

    def __init__(self, part, topo: Topology):
        check_topology(part.cluster_count, part.agent_counts, topo)
        x_slices, z_slices, _, self.dim = flat_slices(part)
        row = part.scheme == "row"
        stacked, peer = (x_slices, z_slices) if row else (z_slices, x_slices)
        self.matrix = mat = np.zeros((self.dim, self.dim))
        self.shift = np.zeros(self.dim)
        for i, blocks in enumerate(part.blocks):
            base = stacked[i][0].start
            for j, a in enumerate(blocks):
                lo, hi = stacked[i][j].start - base, stacked[i][j].stop - base
                band = [
                    slice(stacked[k][0].start + lo, stacked[k][0].start + hi)
                    for k in topo.cluster_graph.adjacent(i)
                ]
                peers = [peer[i][k] for k in topo.agent_graphs[i].adjacent(j)]
                zin, xin = (peers, band) if row else (band, peers)
                sx, sz = x_slices[i][j], z_slices[i][j]
                nz, nx = a.shape
                q, p = len(zin), len(xin)
                # += onto the zeros, not =, stores the -0.0 entries of these
                # blocks as +0.0
                mat[sx, sx] += -a.T @ a - p * np.eye(nx)
                mat[sz, sx] += a
                mat[sx, sz] += q * a.T
                mat[sz, sz] += -q * np.eye(nz)
                for sl in zin:
                    mat[sx, sl] += -a.T
                    mat[sz, sl] += np.eye(nz)
                for sl in xin:
                    mat[sx, sl] += np.eye(nx)
                self.shift[sx] = a.T @ part.offsets[i][j]
                self.shift[sz] = -part.offsets[i][j]

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Derivative of the flat state [x; z] under the per-agent law."""
        return self.matrix @ y + self.shift


def reassembled_solution(part, y) -> np.ndarray:
    """Collapse the flat state y into one n-vector.

    Row scheme: average of the clusters' stacked solution states.  Column
    scheme: concatenation of each cluster's agent-average.  Both sum left to
    right, one cluster or agent at a time.
    """
    y = as_flat_state(part, y)
    x_slices, _, dim_x, _ = flat_slices(part)
    if part.scheme == "row":
        stacked = y[:dim_x].reshape(part.cluster_count, part.total_cols)
        return reduce(np.add, stacked) / part.cluster_count
    means = [reduce(np.add, [y[sl] for sl in row]) / len(row) for row in x_slices]
    return np.concatenate(means)


@dataclass(frozen=True)
class ResidualReport:
    """Constraint residuals of one flat state.

    Row scheme: conservation[i] = ||sum_j (A_ij x_ij - b_ij)|| per cluster;
    consensus holds the pairwise distances between clusters' stacked states.
    Column scheme: consensus[i] = max pairwise distance inside cluster i;
    conservation is the single norm ||sum_i (A_i xbar_i - b_i)|| built from
    cluster agent-averages, which is the same quantity as overall.
    overall = ||A x - b|| for the reassembled x.
    """

    scheme: str
    conservation: tuple
    consensus: tuple
    overall: float

    @property
    def max_conservation(self) -> float:
        return max(self.conservation) if self.conservation else 0.0

    @property
    def max_consensus(self) -> float:
        return max(self.consensus) if self.consensus else 0.0


def sample_residuals(part, ys: np.ndarray) -> tuple:
    """Residual norms of a block of stacked [x; z] states, one row each.

    ys has shape (S, dim).  Returns (conservation, consensus, overall) with
    shapes (S, k), (S, p) and (S,), in the order ResidualReport lists them:
    row scheme k = clusters and p = cluster pairs (i < l, row-major); column
    scheme k = 1 and p = clusters.  Under the column scheme conservation is
    ||A xbar - b|| for the concatenated agent-averages xbar, which is the
    same quantity as overall, so its single column is overall itself.
    """
    ys = np.asarray(ys, dtype=float)
    dim_x = part.x_dim
    dim = dim_x + part.z_dim
    if ys.ndim != 2 or ys.shape[1] != dim:
        raise ShapeMismatchError(f"stacked states have shape {ys.shape}, expected (S, {dim})")
    count = ys.shape[0]
    xs = ys[:, :dim_x]
    a_full, b_full = part.reassemble()
    if part.scheme == "row":
        clusters = part.cluster_count
        xc = xs.reshape(count, clusters, part.total_cols)
        bounds = np.cumsum((0,) + part.cluster_rows)
        conservation = np.empty((count, clusters))
        # b_full's band i is reduce(np.add, part.offsets[i]), bit for bit
        for i in range(clusters):
            lo, hi = bounds[i], bounds[i + 1]
            band = xc[:, i] @ a_full[lo:hi].T - b_full[lo:hi]
            conservation[:, i] = np.linalg.norm(band, axis=1)
        # pairs (i, l > i) in row-major order, built one first cluster i at a
        # time so no temporary holds every pair at once
        consensus = np.concatenate(
            [np.linalg.norm(xc[:, i, None] - xc[:, i + 1 :], axis=2) for i in range(clusters)],
            axis=1,
        )
        solution = xc.sum(axis=1) / clusters
        overall = np.linalg.norm(solution @ a_full.T - b_full, axis=1)
        return conservation, consensus, overall
    means = []
    consensus = np.empty((count, part.cluster_count))
    pos = 0
    for i, (n_i, agents) in enumerate(zip(part.cluster_cols, part.agent_counts)):
        xi = xs[:, pos : pos + agents * n_i].reshape(count, agents, n_i)
        pos += agents * n_i
        first, second = np.triu_indices(agents, 1)
        gaps = np.linalg.norm(xi[:, first] - xi[:, second], axis=2)
        consensus[:, i] = np.max(gaps, axis=1, initial=0.0)
        means.append(xi.sum(axis=1) / agents)
    solution = np.concatenate(means, axis=1)
    overall = np.linalg.norm(solution @ a_full.T - b_full, axis=1)
    return overall[:, None], consensus, overall


def residuals(part, topo: Topology, y) -> ResidualReport:
    """Conservation, consensus, and overall residual norms of the flat state y.

    One sample_residuals row; under the column scheme the single
    conservation entry equals overall.
    """
    check_topology(part.cluster_count, part.agent_counts, topo)
    conservation, consensus, overall = sample_residuals(part, as_flat_state(part, y)[None])
    return ResidualReport(
        scheme=part.scheme,
        conservation=tuple(conservation[0].tolist()),
        consensus=tuple(consensus[0].tolist()),
        overall=float(overall[0]),
    )
