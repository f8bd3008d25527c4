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
from .partition import TopologyMismatchError


class ShapeMismatchError(ValueError):
    """State shapes do not match the partition's block sizes."""


def _state_sizes(part) -> tuple:
    """Per-agent (x size, z size) nested like the partition."""
    if part.scheme == "row":
        xs = part.agent_cols
        zs = tuple(
            tuple(m_i for _ in row) for m_i, row in zip(part.cluster_rows, part.agent_cols)
        )
    else:
        xs = tuple(
            tuple(n_i for _ in row) for n_i, row in zip(part.cluster_cols, part.agent_rows)
        )
        zs = part.agent_rows
    return xs, zs


def flat_slices(part) -> tuple:
    """Slices of the flat state [x; z] for every agent, plus dimensions.

    The flat vector is the package's one state representation.  The x block
    stacks clusters in order, agents in order within a cluster; the z block
    repeats that order.  This matches the stacked drift form.
    """
    xs, zs = _state_sizes(part)
    x_slices, pos = [], 0
    for row in xs:
        cur = []
        for size in row:
            cur.append(slice(pos, pos + size))
            pos += size
        x_slices.append(tuple(cur))
    dim_x = pos
    z_slices = []
    for row in zs:
        cur = []
        for size in row:
            cur.append(slice(pos, pos + size))
            pos += size
        z_slices.append(tuple(cur))
    return tuple(x_slices), tuple(z_slices), dim_x, pos


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


def _check_counts(part, topo: Topology) -> None:
    if part.cluster_count != topo.cluster_count:
        raise TopologyMismatchError(
            f"partition has {part.cluster_count} clusters, "
            f"topology has {topo.cluster_count}"
        )
    if part.agent_counts != topo.agent_counts:
        raise TopologyMismatchError(
            f"partition agent counts {part.agent_counts} != "
            f"topology agent counts {topo.agent_counts}"
        )


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

    Each agent's map is folded into one matrix over its gathered inputs at
    build time, then scattered into a single affine operator on the flat
    state.  Columns outside an agent's inputs stay exactly zero, so nothing
    else can influence its derivative; evaluation is one matrix-vector
    product.
    """

    def __init__(self, part, topo: Topology):
        _check_counts(part, topo)
        self.part = part
        x_slices, z_slices, dim_x, dim = flat_slices(part)
        self.dim_x = dim_x
        self.dim = dim
        if part.scheme == "row":
            starts = [np.concatenate(([0], np.cumsum(row))) for row in part.agent_cols]
            seg_offsets = [row[0].start for row in x_slices]
        else:
            starts = [np.concatenate(([0], np.cumsum(row))) for row in part.agent_rows]
            seg_offsets = [row[0].start for row in z_slices]
        self.matrix = np.zeros((dim, dim))
        self.shift = np.zeros(dim)
        for i in range(part.cluster_count):
            cluster_nbrs = topo.cluster_graph.adjacent(i)
            agent_nbrs = topo.agent_graphs[i].adjacent
            for j in range(part.agent_counts[i]):
                lo = int(starts[i][j])
                hi = int(starts[i][j + 1])
                band = [
                    slice(seg_offsets[k] + lo, seg_offsets[k] + hi)
                    for k in cluster_nbrs
                ]
                if part.scheme == "row":
                    zin = [z_slices[i][k] for k in agent_nbrs(j)]
                    xin = band
                else:
                    zin = band
                    xin = [x_slices[i][k] for k in agent_nbrs(j)]
                self._fold_agent(
                    part.blocks[i][j],
                    part.offsets[i][j],
                    x_slices[i][j],
                    z_slices[i][j],
                    zin,
                    xin,
                )

    def _fold_agent(self, block, offset, sl_x, sl_z, zin, xin):
        a = np.ascontiguousarray(block)
        nz, nx = a.shape
        q = len(zin)
        p = len(xin)
        gathers = [sl_x]
        cols = [nx]
        if q:
            gathers.append(sl_z)
            cols.append(nz)
        gathers.extend(zin)
        cols.extend([nz] * q)
        gathers.extend(xin)
        cols.extend([nx] * p)
        u_dim = sum(cols)
        mat = np.zeros((nx + nz, u_dim))
        pos = 0
        mat[:nx, pos : pos + nx] = -a.T @ a - p * np.eye(nx)
        mat[nx:, pos : pos + nx] = a
        pos += nx
        if q:
            mat[:nx, pos : pos + nz] = q * a.T
            mat[nx:, pos : pos + nz] = -q * np.eye(nz)
            pos += nz
        for _ in range(q):
            mat[:nx, pos : pos + nz] = -a.T
            mat[nx:, pos : pos + nz] = np.eye(nz)
            pos += nz
        for _ in range(p):
            mat[:nx, pos : pos + nx] = np.eye(nx)
            pos += nx
        bounds = np.concatenate(([0], np.cumsum(cols)))
        for k, sl in enumerate(gathers):
            cut = mat[:, int(bounds[k]) : int(bounds[k + 1])]
            self.matrix[sl_x, sl] += cut[:nx]
            self.matrix[sl_z, sl] += cut[nx:]
        self.shift[sl_x] = a.T @ offset
        self.shift[sl_z] = -offset

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
    _, _, dim_x, dim = flat_slices(part)
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
        first, second = np.triu_indices(clusters, 1)
        consensus = np.linalg.norm(xc[:, first] - xc[:, second], axis=2)
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
    _check_counts(part, topo)
    conservation, consensus, overall = sample_residuals(part, as_flat_state(part, y)[None])
    return ResidualReport(
        scheme=part.scheme,
        conservation=tuple(conservation[0].tolist()),
        consensus=tuple(consensus[0].tolist()),
        overall=float(overall[0]),
    )
