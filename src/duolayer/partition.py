"""Block partitions of (A, b) over clusters and agents.

Two schemes are supported.  Under the "row" scheme cluster i owns a band of
rows of A and its agents split the columns of that band, so every agent holds
an (m_i x n_ij) block plus an offset share b_ij with sum_j b_ij = b_i.  Under
the "column" scheme cluster i owns a band of columns and its agents split the
rows, so every agent holds an (m_ij x n_i) block and the offset rows that go
with it; the cluster-level shares satisfy sum_i b_i = b.

Agent blocks cover contiguous column (row scheme) or row (column scheme)
ranges in order, so an agent's slice of a neighboring cluster's stacked
state is the same contiguous range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .graph import Topology
from .linalg import as_matrix, as_vector


class LayoutMismatchError(ValueError):
    """Block sizes do not add up to the dimensions they must cover."""


class TopologyMismatchError(ValueError):
    """Layout and topology disagree on cluster or agent counts."""


@dataclass(frozen=True)
class Layout:
    """Block sizes for one partition scheme.

    scheme "row":    cluster_sizes are per-cluster row counts m_i and
                     agent_sizes[i] are per-agent column counts (summing to n).
    scheme "column": cluster_sizes are per-cluster column counts n_i and
                     agent_sizes[i] are per-agent row counts (summing to m).
    """

    scheme: str
    cluster_sizes: tuple
    agent_sizes: tuple

    def __post_init__(self):
        if self.scheme not in ("row", "column"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(
            self, "cluster_sizes", tuple(int(s) for s in self.cluster_sizes)
        )
        object.__setattr__(
            self,
            "agent_sizes",
            tuple(tuple(int(s) for s in row) for row in self.agent_sizes),
        )
        if len(self.cluster_sizes) != len(self.agent_sizes):
            raise LayoutMismatchError(
                f"{len(self.cluster_sizes)} cluster sizes but "
                f"{len(self.agent_sizes)} agent size lists"
            )
        if not self.cluster_sizes:
            raise LayoutMismatchError("layout needs at least one cluster")
        flat = [s for row in self.agent_sizes for s in row] + list(self.cluster_sizes)
        if any(s < 1 for s in flat):
            raise LayoutMismatchError("zero or negative block sizes are not allowed")
        if any(len(row) == 0 for row in self.agent_sizes):
            raise LayoutMismatchError("every cluster needs at least one agent")


@dataclass(frozen=True)
class ProblemInstance:
    """A linear system A x = b plus the network and layout that split it."""

    a: np.ndarray
    b: np.ndarray
    topology: Topology
    layout: Layout

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a))
        object.__setattr__(self, "b", as_vector(self.b))
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError(
                f"A has {self.a.shape[0]} rows but b has {self.b.shape[0]} entries"
            )


def _equal_shares(v: np.ndarray, parts: int) -> list:
    """Split v into `parts` near-equal shares that sum back to v bit-exactly.

    The last share absorbs the rounding left over by the first parts-1 equal
    shares, so a sequential left-to-right re-sum returns v exactly.
    """
    share = v / parts
    shares = [share.copy() for _ in range(parts - 1)]
    acc = np.zeros_like(v)
    for s in shares:
        acc = acc + s
    shares.append(v - acc)
    return shares


def check_topology(cluster_count: int, agent_counts, topo: Topology) -> None:
    """Raise TopologyMismatchError unless topo has these cluster and agent counts."""
    if cluster_count != topo.cluster_count:
        raise TopologyMismatchError(
            f"partition has {cluster_count} clusters, topology has {topo.cluster_count}"
        )
    for i, (agents, nodes) in enumerate(zip(agent_counts, topo.agent_counts)):
        if agents != nodes:
            raise TopologyMismatchError(
                f"cluster {i}: partition lists {agents} agents, "
                f"agent graph has {nodes} nodes"
            )


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _offset_sum_ok(total: np.ndarray, target: np.ndarray) -> bool:
    scale = 1.0 + float(np.max(np.abs(target), initial=0.0))
    return bool(np.max(np.abs(total - target), initial=0.0) <= 1e-12 * scale)


@dataclass(frozen=True)
class RowPartition:
    """Scheme "row": clusters take row bands of A, agents split the columns."""

    cluster_rows: tuple  # m_i
    agent_cols: tuple  # n_ij, one tuple per cluster
    blocks: tuple  # A_ij with shape (m_i, n_ij)
    offsets: tuple  # b_ij with shape (m_i,)

    scheme = "row"

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_rows)

    @property
    def agent_counts(self) -> tuple:
        return tuple(len(row) for row in self.agent_cols)

    @property
    def total_rows(self) -> int:
        return sum(self.cluster_rows)

    @property
    def total_cols(self) -> int:
        return sum(self.agent_cols[0])

    @property
    def x_dim(self) -> int:
        return self.cluster_count * self.total_cols

    @property
    def z_dim(self) -> int:
        return sum(c * m for c, m in zip(self.agent_counts, self.cluster_rows))

    @cached_property
    def _reassembled(self) -> tuple:
        a = np.vstack([np.hstack(row) for row in self.blocks])
        b = np.concatenate([reduce(np.add, row) for row in self.offsets])
        return _read_only(a, b)

    def reassemble(self) -> tuple:
        """Recover (A, b); exact by construction for default offsets.

        Built on the first call; every call returns the same read-only
        arrays.
        """
        return self._reassembled


@dataclass(frozen=True)
class ColumnPartition:
    """Scheme "column": clusters take column bands of A, agents split the rows."""

    cluster_cols: tuple  # n_i
    agent_rows: tuple  # m_ij, one tuple per cluster
    blocks: tuple  # A_ij with shape (m_ij, n_i)
    offsets: tuple  # b_ij with shape (m_ij,)

    scheme = "column"

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_cols)

    @property
    def agent_counts(self) -> tuple:
        return tuple(len(row) for row in self.agent_rows)

    @property
    def total_rows(self) -> int:
        return sum(self.agent_rows[0])

    @property
    def total_cols(self) -> int:
        return sum(self.cluster_cols)

    @property
    def x_dim(self) -> int:
        return sum(c * n for c, n in zip(self.agent_counts, self.cluster_cols))

    @property
    def z_dim(self) -> int:
        return self.cluster_count * self.total_rows

    def cluster_share(self, i: int) -> np.ndarray:
        """The cluster-level offset b_i, reassembled from its agents' rows."""
        return np.concatenate(self.offsets[i])

    @cached_property
    def _reassembled(self) -> tuple:
        a = np.hstack([np.vstack(row) for row in self.blocks])
        b = reduce(np.add, [self.cluster_share(i) for i in range(self.cluster_count)])
        return _read_only(a, b)

    def reassemble(self) -> tuple:
        """Recover (A, b); A exact, b exact for default shares.

        Built on the first call; every call returns the same read-only
        arrays.
        """
        return self._reassembled


def partition_rows(inst: ProblemInstance, b_offsets=None) -> RowPartition:
    """Split (A, b) for the row scheme.

    Offsets default to a compensated equal split of each cluster's b_i across
    its agents; explicit b_offsets (per cluster, per agent) must sum back to
    b_i within 1e-12 relative.
    """
    layout = inst.layout
    if layout.scheme != "row":
        raise LayoutMismatchError(f"layout scheme is {layout.scheme!r}, expected 'row'")
    check_topology(len(layout.cluster_sizes), map(len, layout.agent_sizes), inst.topology)
    m, n = inst.a.shape
    if sum(layout.cluster_sizes) != m:
        raise LayoutMismatchError(
            f"cluster row counts {layout.cluster_sizes} do not sum to m={m}"
        )
    for i, cols in enumerate(layout.agent_sizes):
        if sum(cols) != n:
            raise LayoutMismatchError(
                f"cluster {i}: agent column counts {cols} do not sum to n={n}"
            )
    if b_offsets is not None and len(b_offsets) != len(layout.cluster_sizes):
        raise LayoutMismatchError("b_offsets must list one entry per cluster")

    blocks, offsets = [], []
    row_start = 0
    for i, m_i in enumerate(layout.cluster_sizes):
        a_i = inst.a[row_start : row_start + m_i]
        b_i = inst.b[row_start : row_start + m_i]
        row_start += m_i
        agents = len(layout.agent_sizes[i])
        col_start = 0
        blk_i = []
        for n_ij in layout.agent_sizes[i]:
            blk_i.append(a_i[:, col_start : col_start + n_ij].copy())
            col_start += n_ij
        if b_offsets is None:
            off_i = _equal_shares(b_i, agents)
        else:
            given = [as_vector(v) for v in b_offsets[i]]
            if len(given) != agents:
                raise LayoutMismatchError(
                    f"cluster {i}: {len(given)} offsets for {agents} agents"
                )
            for j, v in enumerate(given):
                if v.shape[0] != m_i:
                    raise LayoutMismatchError(
                        f"cluster {i} agent {j}: offset has {v.shape[0]} entries, "
                        f"expected {m_i}"
                    )
            if not _offset_sum_ok(reduce(np.add, given), b_i):
                raise LayoutMismatchError(
                    f"cluster {i}: offsets do not sum to the cluster's b rows"
                )
            off_i = given
        blocks.append(tuple(blk_i))
        offsets.append(tuple(off_i))
    return RowPartition(
        cluster_rows=layout.cluster_sizes,
        agent_cols=layout.agent_sizes,
        blocks=tuple(blocks),
        offsets=tuple(offsets),
    )


def partition_columns(inst: ProblemInstance, b_offsets=None) -> ColumnPartition:
    """Split (A, b) for the column scheme.

    Cluster shares b_i default to a compensated equal split of b; explicit
    b_offsets (one m-vector per cluster) must sum back to b within 1e-12
    relative.  Each cluster's agents then take the rows of its share that
    match their row bands.
    """
    layout = inst.layout
    if layout.scheme != "column":
        raise LayoutMismatchError(
            f"layout scheme is {layout.scheme!r}, expected 'column'"
        )
    check_topology(len(layout.cluster_sizes), map(len, layout.agent_sizes), inst.topology)
    m, n = inst.a.shape
    if sum(layout.cluster_sizes) != n:
        raise LayoutMismatchError(
            f"cluster column counts {layout.cluster_sizes} do not sum to n={n}"
        )
    for i, rows in enumerate(layout.agent_sizes):
        if sum(rows) != m:
            raise LayoutMismatchError(
                f"cluster {i}: agent row counts {rows} do not sum to m={m}"
            )
    c = len(layout.cluster_sizes)
    if b_offsets is None:
        shares = _equal_shares(inst.b, c)
    else:
        if len(b_offsets) != c:
            raise LayoutMismatchError("b_offsets must list one m-vector per cluster")
        shares = [as_vector(v) for v in b_offsets]
        for i, v in enumerate(shares):
            if v.shape[0] != m:
                raise LayoutMismatchError(
                    f"cluster {i}: share has {v.shape[0]} entries, expected {m}"
                )
        if not _offset_sum_ok(reduce(np.add, shares), inst.b):
            raise LayoutMismatchError("cluster shares do not sum to b")

    blocks, offsets = [], []
    col_start = 0
    for i, n_i in enumerate(layout.cluster_sizes):
        a_i = inst.a[:, col_start : col_start + n_i]
        col_start += n_i
        row_start = 0
        blk_i, off_i = [], []
        for m_ij in layout.agent_sizes[i]:
            blk_i.append(a_i[row_start : row_start + m_ij].copy())
            off_i.append(shares[i][row_start : row_start + m_ij].copy())
            row_start += m_ij
        blocks.append(tuple(blk_i))
        offsets.append(tuple(off_i))
    return ColumnPartition(
        cluster_cols=layout.cluster_sizes,
        agent_rows=layout.agent_sizes,
        blocks=tuple(blocks),
        offsets=tuple(offsets),
    )
