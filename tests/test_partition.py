from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duolayer import (
    Layout,
    LayoutMismatchError,
    ProblemInstance,
    Topology,
    TopologyMismatchError,
    build_graph,
    partition_columns,
    partition_rows,
)
from duolayer.instances import random_instance


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def topology(cluster_count, agent_counts):
    return Topology(
        cluster_graph=path(cluster_count),
        agent_graphs=tuple(path(c) for c in agent_counts),
    )


def row_instance(a, b, cluster_sizes, agent_sizes):
    layout = Layout(scheme="row", cluster_sizes=cluster_sizes, agent_sizes=agent_sizes)
    topo = topology(len(cluster_sizes), [len(r) for r in agent_sizes])
    return ProblemInstance(a=a, b=b, topology=topo, layout=layout)


def col_instance(a, b, cluster_sizes, agent_sizes):
    layout = Layout(scheme="column", cluster_sizes=cluster_sizes, agent_sizes=agent_sizes)
    topo = topology(len(cluster_sizes), [len(r) for r in agent_sizes])
    return ProblemInstance(a=a, b=b, topology=topo, layout=layout)


def test_identity_system_equal_split():
    inst = row_instance(np.eye(2), [1.0, 1.0], [2], [[1, 1]])
    part = partition_rows(inst)
    assert part.agent_counts == (2,)
    assert np.array_equal(part.offsets[0][0], [0.5, 0.5])
    assert np.array_equal(part.offsets[0][1], [0.5, 0.5])
    assert np.array_equal(part.blocks[0][0], [[1.0], [0.0]])
    assert np.array_equal(part.blocks[0][1], [[0.0], [1.0]])


def test_row_partition_dimensions():
    a = np.arange(20.0).reshape(4, 5)
    b = np.arange(4.0)
    part = partition_rows(row_instance(a, b, [3, 1], [[2, 3], [5]]))
    assert part.cluster_rows == (3, 1)
    assert [[blk.shape[1] for blk in row] for row in part.blocks] == [[2, 3], [5]]
    assert part.total_rows == 4
    assert part.total_cols == 5
    assert part.x_dim == 2 * 5
    assert part.z_dim == 2 * 3 + 1 * 1
    assert part.blocks[0][1].shape == (3, 3)
    # agent 1 of cluster 0 covers columns 2:5 of the cluster's row band
    assert np.array_equal(part.blocks[0][1], a[:3, 2:5])


def test_column_partition_dimensions():
    a = np.arange(20.0).reshape(4, 5)
    b = np.arange(4.0)
    part = partition_columns(col_instance(a, b, [2, 3], [[4], [1, 3]]))
    assert part.cluster_cols == (2, 3)
    assert [[blk.shape[0] for blk in row] for row in part.blocks] == [[4], [1, 3]]
    assert part.total_rows == 4
    assert part.total_cols == 5
    assert part.x_dim == 1 * 2 + 2 * 3
    assert part.z_dim == 2 * 4
    assert part.blocks[1][1].shape == (3, 3)
    assert np.array_equal(np.concatenate(part.offsets[0]) + np.concatenate(part.offsets[1]), b)


@pytest.mark.parametrize("scheme", ["row", "column"])
def test_shared_cut_takes_bands_of_a(scheme):
    for seed in range(20):
        inst, part = random_instance(np.random.default_rng(seed), scheme, 8)
        layout = inst.layout
        outer = np.cumsum((0,) + layout.cluster_sizes)
        widths = heights = 0
        for i, row in enumerate(part.blocks):
            band = slice(outer[i], outer[i + 1])
            sub = inst.a[band] if scheme == "row" else inst.a[:, band]
            assert (part.cluster_rows[i], part.cluster_cols[i]) == sub.shape
            inner = np.cumsum((0,) + layout.agent_sizes[i])
            for j, block in enumerate(row):
                cut = slice(inner[j], inner[j + 1])
                expected = sub[:, cut] if scheme == "row" else sub[cut]
                assert block.shape == expected.shape
                assert block.tobytes() == np.ascontiguousarray(expected).tobytes()
                assert part.offsets[i][j].shape == (block.shape[0],)
                widths += block.shape[1]
                heights += block.shape[0]
            if scheme == "row":
                # the agents' offsets split the cluster's rows of b
                assert reduce(np.add, part.offsets[i]).tobytes() == inst.b[band].tobytes()
        if scheme == "column":
            # the clusters' shares, each cut into its agents' rows, split b
            total = reduce(np.add, [np.concatenate(row) for row in part.offsets])
            assert total.tobytes() == inst.b.tobytes()
        assert (part.x_dim, part.z_dim) == (widths, heights)
        assert (part.total_rows, part.total_cols) == inst.a.shape


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=30)
@given(arrays(np.float64, (5,), elements=finite), st.integers(min_value=1, max_value=5))
def test_row_reassembly_is_bit_exact(b, agents):
    a = np.ones((5, agents))
    inst = row_instance(a, b, [5], [[1] * agents])
    part = partition_rows(inst)
    a_back, b_back = part.reassemble()
    assert a_back.tobytes() == a.tobytes()
    assert b_back.tobytes() == b.tobytes()


@settings(max_examples=30)
@given(arrays(np.float64, (4,), elements=finite), st.integers(min_value=1, max_value=5))
def test_column_reassembly_is_bit_exact(b, clusters):
    a = np.ones((4, clusters))
    inst = col_instance(a, b, [1] * clusters, [[4]] * clusters)
    part = partition_columns(inst)
    a_back, b_back = part.reassemble()
    assert a_back.tobytes() == a.tobytes()
    assert b_back.tobytes() == b.tobytes()


def test_reassembly_is_computed_once_and_read_only():
    a = np.arange(12.0).reshape(4, 3)
    parts = [
        partition_rows(row_instance(a, np.ones(4), [2, 2], [[1, 2], [3]])),
        partition_columns(col_instance(a, np.ones(4), [2, 1], [[1, 3], [4]])),
    ]
    for part in parts:
        a_back, b_back = part.reassemble()
        again = part.reassemble()
        assert again[0] is a_back and again[1] is b_back
        assert not a_back.flags.writeable and not b_back.flags.writeable
        assert np.array_equal(a_back, a)
        with pytest.raises(ValueError):
            a_back[0, 0] = 1.0


def test_selection_cuts_own_slice_from_stacked_state():
    a = np.arange(12.0).reshape(3, 4)
    part = partition_rows(row_instance(a, np.ones(3), [3], [[2, 2]]))
    stacked = np.array([10.0, 11.0, 12.0, 13.0])
    # agents cover consecutive column ranges, so each one's slice of a
    # stacked state is the range its block covers in A
    starts = np.cumsum([0] + [blk.shape[1] for blk in part.blocks[0]])
    bands = [range(lo, hi) for lo, hi in zip(starts, starts[1:])]
    assert [list(r) for r in bands] == [[0, 1], [2, 3]]
    for j, cols in enumerate(bands):
        assert np.array_equal(part.blocks[0][j], a[:, cols])
    assert np.array_equal(stacked[bands[0]], [10.0, 11.0])
    assert np.array_equal(stacked[bands[1]], [12.0, 13.0])


def test_explicit_row_offsets_accepted_and_validated():
    a = np.eye(2)
    b = np.array([1.0, 3.0])
    good = [[[1.0, 0.0], [0.0, 3.0]]]
    part = partition_rows(row_instance(a, b, [2], [[1, 1]]), b_offsets=good)
    assert np.array_equal(part.offsets[0][0], [1.0, 0.0])
    bad_sum = [[[1.0, 0.0], [0.5, 3.0]]]
    with pytest.raises(LayoutMismatchError):
        partition_rows(row_instance(a, b, [2], [[1, 1]]), b_offsets=bad_sum)
    bad_len = [[[1.0], [0.0]]]
    with pytest.raises(LayoutMismatchError):
        partition_rows(row_instance(a, b, [2], [[1, 1]]), b_offsets=bad_len)
    with pytest.raises(LayoutMismatchError):
        partition_rows(row_instance(a, b, [2], [[1, 1]]), b_offsets=[])


def test_explicit_column_shares_accepted_and_validated():
    a = np.eye(2)
    b = np.array([1.0, 3.0])
    good = [[1.0, 1.0], [0.0, 2.0]]
    part = partition_columns(col_instance(a, b, [1, 1], [[2], [2]]), b_offsets=good)
    assert np.array_equal(np.concatenate(part.offsets[1]), [0.0, 2.0])
    with pytest.raises(LayoutMismatchError):
        partition_columns(
            col_instance(a, b, [1, 1], [[2], [2]]), b_offsets=[[1.0, 1.0], [1.0, 2.0]]
        )
    with pytest.raises(LayoutMismatchError):
        partition_columns(col_instance(a, b, [1, 1], [[2], [2]]), b_offsets=[[1.0, 3.0]])


def test_layout_validation():
    with pytest.raises(LayoutMismatchError):
        Layout(scheme="row", cluster_sizes=[2], agent_sizes=[[1], [1]])
    with pytest.raises(LayoutMismatchError):
        Layout(scheme="row", cluster_sizes=[2, 0], agent_sizes=[[1], [1]])
    with pytest.raises(LayoutMismatchError):
        Layout(scheme="row", cluster_sizes=[2], agent_sizes=[[]])
    with pytest.raises(ValueError):
        Layout(scheme="diagonal", cluster_sizes=[2], agent_sizes=[[1]])


def test_partition_rejects_scheme_mismatch():
    inst = col_instance(np.eye(2), np.ones(2), [1, 1], [[2], [2]])
    with pytest.raises(LayoutMismatchError):
        partition_rows(inst)


def test_partition_rejects_size_sums():
    with pytest.raises(LayoutMismatchError):
        partition_rows(row_instance(np.eye(3), np.ones(3), [2], [[3]]))
    with pytest.raises(LayoutMismatchError):
        partition_rows(row_instance(np.eye(3), np.ones(3), [3], [[2]]))
    with pytest.raises(LayoutMismatchError):
        partition_columns(col_instance(np.eye(3), np.ones(3), [2], [[3]]))
    with pytest.raises(LayoutMismatchError):
        partition_columns(col_instance(np.eye(3), np.ones(3), [3], [[2]]))


def test_topology_mismatch_detected():
    layout = Layout(scheme="row", cluster_sizes=[2, 1], agent_sizes=[[3], [3]])
    too_many_agents = topology(2, [2, 1])
    inst = ProblemInstance(
        a=np.ones((3, 3)), b=np.ones(3), topology=too_many_agents, layout=layout
    )
    with pytest.raises(TopologyMismatchError):
        partition_rows(inst)
    too_many_clusters = topology(3, [1, 1, 1])
    inst = ProblemInstance(
        a=np.ones((3, 3)), b=np.ones(3), topology=too_many_clusters, layout=layout
    )
    with pytest.raises(TopologyMismatchError):
        partition_rows(inst)


def test_problem_instance_shape_check():
    with pytest.raises(ValueError):
        ProblemInstance(
            a=np.eye(2),
            b=np.ones(3),
            topology=topology(1, [1]),
            layout=Layout(scheme="row", cluster_sizes=[2], agent_sizes=[[2]]),
        )
