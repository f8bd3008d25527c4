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

    The whole law is the affine map y -> M y + shift of the flat state, and
    the plan stores each agent's own rows of it: the agent's row indices
    (its x, then its z), the column indices of its inputs in ascending
    order, and the dense rows x inputs block of its law.  Row-scheme bands
    are the agent's own columns cut from each neighboring cluster's stacked
    x, column-scheme bands its own rows cut from the neighbors' stacked z.
    No other column enters an agent's rows, so nothing else can influence
    its derivative.  Agents whose blocks share a shape form a group; rows,
    cols and blocks hold every group's indices and entries back to back,
    and groups holds each group's (rows, cols, blocks) as views shaped
    (G, r), (G, c) and (G, r, c), so the plan holds no dim x dim array and
    evaluation is one batched product per group.  norm is ||M||_inf, and
    inputs the most inputs one agent reads.
    """

    def __init__(self, part, topo: Topology):
        check_topology(part.cluster_count, part.agent_counts, topo)
        x_slices, z_slices, _, self.dim = flat_slices(part)
        row = part.scheme == "row"
        stacked, peer = (x_slices, z_slices) if row else (z_slices, x_slices)
        self.shift = np.zeros(self.dim)
        self.norm = 0.0
        index = np.arange(self.dim)
        shapes: dict = {}
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
                # the agent's rows of M laid out dense; += onto the zeros,
                # not =, stores the -0.0 entries of these blocks as +0.0
                dense = np.zeros((nx + nz, self.dim))
                dx, dz = dense[:nx], dense[nx:]
                eye_x, eye_z = np.eye(nx), np.eye(nz)
                dx[:, sx] += -a.T @ a - p * eye_x
                dz[:, sx] += a
                dx[:, sz] += q * a.T
                dz[:, sz] += -q * eye_z
                for sl in zin:
                    dx[:, sl] += -a.T
                    dz[:, sl] += eye_z
                for sl in xin:
                    dx[:, sl] += eye_x
                inputs = sorted([sx, sz, *zin, *xin], key=lambda sl: sl.start)
                cols = np.concatenate([index[sl] for sl in inputs])
                rows = np.concatenate((index[sx], index[sz]))
                block = dense[:, cols]
                # ||M||_inf sums each whole row, zeros included, since numpy's
                # pairwise sum groups a row's entries by their positions in
                # it: so norm, and the auto step it sets, has the bits of the
                # dense M's row sums
                self.norm = max(self.norm, float(np.abs(dense, out=dense).sum(axis=1).max()))
                shapes.setdefault(block.shape, []).append((rows, cols, block))
                self.shift[sx] = a.T @ part.offsets[i][j]
                self.shift[sz] = -part.offsets[i][j]
        agents = [agent for group in shapes.values() for agent in group]
        self.rows, self.cols, self.blocks = (
            np.concatenate([agent[k].ravel() for agent in agents]) for k in range(3)
        )
        self.groups = []
        r_at = c_at = b_at = 0
        for (r, c), group in shapes.items():
            g = len(group)
            self.groups.append(
                (
                    self.rows[r_at : r_at + g * r].reshape(g, r),
                    self.cols[c_at : c_at + g * c].reshape(g, c),
                    self.blocks[b_at : b_at + g * r * c].reshape(g, r, c),
                )
            )
            r_at, c_at, b_at = r_at + g * r, c_at + g * c, b_at + g * r * c
        self.inputs = max(blocks.shape[2] for _, _, blocks in self.groups)

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Derivative under the per-agent law of a flat state [x; z], or of
        each row of an (S, dim) block of them.

        Each agent's rows are its block times its inputs plus shift: a flat
        state takes one batched matrix-vector product per group, and a block
        is product(y.T), batched matrix-matrix products a few agents at a
        time.  The two may differ in the last bits, since the products sum
        in different orders.
        shift is added in place into the products, so no second result is
        allocated.
        """
        if y.ndim == 1:
            d = np.empty_like(y)
            for rows, cols, blocks in self.groups:
                d[rows] = np.matmul(blocks, y[cols][:, :, None])[:, :, 0]
        else:
            d = self.product(y.T).T
        d += self.shift
        return d

    def product(self, x: np.ndarray) -> np.ndarray:
        """M @ x for a dense (dim, k) x, a few agents at a time.

        Each agent's rows are its block times its input rows of x.  The
        agents' gathered inputs and products take at most about half a
        dim x k array at a time, beside x and the result, which is laid out
        like x.
        """
        out = np.empty_like(x)
        for rows, cols, blocks in self.groups:
            g, r, c = blocks.shape
            step = max(1, self.dim // (2 * (r + c)))
            for lo in range(0, g, step):
                out[rows[lo : lo + step]] = np.matmul(blocks[lo : lo + step], x[cols[lo : lo + step]])
        return out


def reassembled_solution(part, y) -> np.ndarray:
    """Collapse the flat state y into one n-vector, or each row of an
    (S, dim) block of them into one row of an (S, n) array.

    Row scheme: average of the clusters' stacked solution states.  Column
    scheme: concatenation of each cluster's agent-average.  Either mean is
    one sum over the cluster or agent axis, written once for a state and a
    block.  Raises ShapeMismatchError for any other shape.
    """
    y = _as_state_block(part, y) if np.ndim(y) == 2 else as_flat_state(part, y)
    lead = y.shape[:-1]
    xs = y[..., : part.x_dim]
    if part.scheme == "row":
        stacked = xs.reshape(*lead, part.cluster_count, part.total_cols)
        return stacked.sum(axis=-2) / part.cluster_count
    means, pos = [], 0
    for n_i, agents in zip(part.cluster_cols, part.agent_counts):
        xi = xs[..., pos : pos + agents * n_i].reshape(*lead, agents, n_i)
        pos += agents * n_i
        means.append(xi.sum(axis=-2) / agents)
    return np.concatenate(means, axis=-1)


def _as_state_block(part, ys) -> np.ndarray:
    """ys as a float (S, dim) block of flat states; ShapeMismatchError otherwise."""
    ys = np.asarray(ys, dtype=float)
    dim = part.x_dim + part.z_dim
    if ys.ndim != 2 or ys.shape[1] != dim:
        raise ShapeMismatchError(f"stacked states have shape {ys.shape}, expected (S, {dim})")
    return ys


def _pair_distances(stack: np.ndarray) -> np.ndarray:
    """||v_i - v_l|| for the pairs i < l of an (S, k, w) stack, shape (S, pairs).

    Pairs run in row-major order and are built one first index i at a time,
    so no temporary holds every pair at once.
    """
    gaps = (stack[:, i, None] - stack[:, i + 1 :] for i in range(stack.shape[1]))
    return np.concatenate([np.linalg.norm(gap, axis=2) for gap in gaps], axis=1)


def sample_residuals(part, ys: np.ndarray) -> tuple:
    """Residual norms of a block of stacked [x; z] states, one row each.

    ys has shape (S, dim).  Returns (conservation, consensus, overall) with
    shapes (S, k), (S, p) and (S,): row scheme k = clusters, with
    conservation[:, i] = ||sum_j (A_ij x_ij - b_ij)|| per cluster, and
    p = cluster pairs (i < l, row-major), the distances between clusters'
    stacked states; column scheme k = 1 and p = clusters, consensus[:, i]
    the largest distance between two agents of cluster i.  overall is
    ||A x - b|| for the reassembled_solution x.  Under the column scheme
    conservation is ||sum_i (A_i xbar_i - b_i)|| for the cluster
    agent-averages xbar_i, which is the same quantity as overall, so its
    single column is overall itself.  These are the columns integrate
    records for every sample.
    """
    ys = _as_state_block(part, ys)
    a_full, b_full = part.reassemble()
    overall = np.linalg.norm(reassembled_solution(part, ys) @ a_full.T - b_full, axis=1)
    count = ys.shape[0]
    xs = ys[:, : part.x_dim]
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
        return conservation, _pair_distances(xc), overall
    consensus = np.empty((count, part.cluster_count))
    pos = 0
    for i, (n_i, agents) in enumerate(zip(part.cluster_cols, part.agent_counts)):
        xi = xs[:, pos : pos + agents * n_i].reshape(count, agents, n_i)
        pos += agents * n_i
        consensus[:, i] = np.max(_pair_distances(xi), axis=1, initial=0.0)
    return overall[:, None], consensus, overall
