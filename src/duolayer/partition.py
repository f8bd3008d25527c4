"""Block partitions of (A, b) over clusters and agents.

One Partition type serves both schemes.  Clusters cut A into bands along one
axis and each cluster's agents cut their band along the other: under the
"row" scheme cluster i owns the rows of an (m_i x n) submatrix and agent j a
band of its columns, an (m_i x n_ij) block; under the "column" scheme
cluster i owns the columns of an (m x n_i) submatrix and agent j a band of
its rows, an (m_ij x n_i) block.  Only the offsets follow the scheme: row
agents hold shares b_ij of their cluster's rows of b with sum_j b_ij = b_i;
column clusters hold shares b_i of b with sum_i b_i = b, and each agent
holds the rows of b_i that go with its block.

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

# The axis of A that clusters cut into bands; agents cut the other one.
_CLUSTER_AXIS = {"row": 0, "column": 1}
_AXIS_NAMES = ("rows", "columns")


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


def _shares(total: np.ndarray, parts: int, given, where: str) -> list:
    """`parts` vectors that sum to total.

    A compensated equal split when given is None; otherwise the given
    vectors, which must be `parts` vectors of total's length summing back to
    it within 1e-12 relative.
    """
    if given is None:
        return _equal_shares(total, parts)
    shares = [as_vector(v) for v in given]
    if len(shares) != parts:
        raise LayoutMismatchError(f"{where}: expected {parts} shares, got {len(shares)}")
    for k, v in enumerate(shares):
        if v.shape != total.shape:
            raise LayoutMismatchError(
                f"{where}[{k}]: has {v.shape[0]} entries, expected {total.shape[0]}"
            )
    scale = 1.0 + float(np.max(np.abs(total), initial=0.0))
    if not np.max(np.abs(reduce(np.add, shares) - total), initial=0.0) <= 1e-12 * scale:
        raise LayoutMismatchError(f"{where}: the shares do not sum to the rows of b they split")
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


def _bands(v: np.ndarray, sizes, axis: int = 0) -> list:
    """Consecutive bands of v along one axis with the given sizes (views)."""
    return np.split(v, np.cumsum(sizes)[:-1], axis=axis)


@dataclass(frozen=True)
class Partition:
    """(A, b) cut into a block A_ij = blocks[i][j] and an offset
    b_ij = offsets[i][j] for agent j of cluster i.

    Every size attribute derives from the blocks and means the same under
    both schemes: cluster_rows[i] / cluster_cols[i] give the shape of
    cluster i's submatrix of A, (m_i, n) under "row" and (m, n_i) under
    "column"; x_dim / z_dim are the summed block widths / heights.  Under
    "column" np.concatenate(offsets[i]) is cluster i's share b_i.
    """

    scheme: str
    blocks: tuple
    offsets: tuple

    @property
    def cluster_count(self) -> int:
        return len(self.blocks)

    @property
    def agent_counts(self) -> tuple:
        return tuple(len(row) for row in self.blocks)

    def _cluster_extents(self, axis: int) -> tuple:
        """Each cluster's submatrix size along one axis of A."""
        if axis == _CLUSTER_AXIS[self.scheme]:
            return tuple(row[0].shape[axis] for row in self.blocks)
        return tuple(sum(a.shape[axis] for a in row) for row in self.blocks)

    def _extent(self, axis: int) -> int:
        """A's size along one axis; the clusters' bands add up along theirs."""
        sizes = self._cluster_extents(axis)
        return sum(sizes) if axis == _CLUSTER_AXIS[self.scheme] else sizes[0]

    @property
    def cluster_rows(self) -> tuple:
        return self._cluster_extents(0)

    @property
    def cluster_cols(self) -> tuple:
        return self._cluster_extents(1)

    @property
    def total_rows(self) -> int:
        return self._extent(0)

    @property
    def total_cols(self) -> int:
        return self._extent(1)

    @property
    def x_dim(self) -> int:
        return sum(a.shape[1] for row in self.blocks for a in row)

    @property
    def z_dim(self) -> int:
        return sum(a.shape[0] for row in self.blocks for a in row)

    @cached_property
    def _reassembled(self) -> tuple:
        axis = _CLUSTER_AXIS[self.scheme]
        a = np.concatenate([np.concatenate(row, axis=1 - axis) for row in self.blocks], axis)
        if self.scheme == "row":
            b = np.concatenate([reduce(np.add, row) for row in self.offsets])
        else:
            b = reduce(np.add, [np.concatenate(row) for row in self.offsets])
        for arr in (a, b):
            arr.flags.writeable = False
        return a, b

    def reassemble(self) -> tuple:
        """Recover (A, b); A exact, b exact for default offsets.

        Built on the first call; every call returns the same read-only
        arrays.
        """
        return self._reassembled


def _cut(inst: ProblemInstance, scheme: str) -> tuple:
    """The checks and the cut that partition_rows and partition_columns share.

    Checks the layout's scheme, its counts against the topology and its sizes
    against A, then returns blocks[i][j]: clusters cut A into bands along
    their axis and each cluster's agents cut its band along the other.
    """
    layout = inst.layout
    if layout.scheme != scheme:
        raise LayoutMismatchError(f"layout scheme is {layout.scheme!r}, expected {scheme!r}")
    check_topology(len(layout.cluster_sizes), map(len, layout.agent_sizes), inst.topology)
    axis = _CLUSTER_AXIS[scheme]
    outer, inner = inst.a.shape[axis], inst.a.shape[1 - axis]
    if sum(layout.cluster_sizes) != outer:
        raise LayoutMismatchError(
            f"cluster sizes {layout.cluster_sizes} do not sum to the {outer} "
            f"{_AXIS_NAMES[axis]} of A"
        )
    for i, sizes in enumerate(layout.agent_sizes):
        if sum(sizes) != inner:
            raise LayoutMismatchError(
                f"cluster {i}: agent sizes {sizes} do not sum to the {inner} "
                f"{_AXIS_NAMES[1 - axis]} of A"
            )
    return tuple(
        tuple(block.copy() for block in _bands(band, sizes, 1 - axis))
        for band, sizes in zip(_bands(inst.a, layout.cluster_sizes, axis), layout.agent_sizes)
    )


def partition_rows(inst: ProblemInstance, b_offsets=None) -> Partition:
    """Split (A, b) for the row scheme.

    Offsets default to a compensated equal split of each cluster's b_i across
    its agents; explicit b_offsets (per cluster, per agent) must sum back to
    b_i within 1e-12 relative.
    """
    blocks = _cut(inst, "row")
    if b_offsets is not None and len(b_offsets) != len(blocks):
        raise LayoutMismatchError("b_offsets must list one entry per cluster")
    offsets = []
    for i, (b_i, row) in enumerate(zip(_bands(inst.b, inst.layout.cluster_sizes), blocks)):
        given = None if b_offsets is None else b_offsets[i]
        offsets.append(tuple(_shares(b_i, len(row), given, f"b_offsets[{i}]")))
    return Partition(scheme="row", blocks=blocks, offsets=tuple(offsets))


def partition_columns(inst: ProblemInstance, b_offsets=None) -> Partition:
    """Split (A, b) for the column scheme.

    Cluster shares b_i default to a compensated equal split of b; explicit
    b_offsets (one m-vector per cluster) must sum back to b within 1e-12
    relative.  Each cluster's agents then take the rows of its share that
    match their row bands.
    """
    blocks = _cut(inst, "column")
    shares = _shares(inst.b, len(blocks), b_offsets, "b_offsets")
    offsets = tuple(
        tuple(rows.copy() for rows in _bands(share, sizes))
        for share, sizes in zip(shares, inst.layout.agent_sizes)
    )
    return Partition(scheme="column", blocks=blocks, offsets=offsets)
