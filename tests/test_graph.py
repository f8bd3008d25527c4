import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duolayer import (
    DisconnectedGraphError,
    Graph,
    Topology,
    build_graph,
    laplacian,
    lifted_laplacian,
)
from duolayer.instances import random_connected_graph


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_adjacent_lists_strict_neighbors():
    g = path(3)
    assert g.adjacent(1) == (0, 2)
    assert g.adjacent(0) == (1,)
    assert g.adjacent(2) == (1,)


def test_build_graph_deduplicates_and_drops_self_pairs():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1), (1, 1)])
    assert g.edges == frozenset({(0, 1)})


def test_single_node_graph_is_connected():
    g = build_graph(1, [])
    assert g.node_count == 1
    assert g.adjacent(0) == ()


def test_disconnected_graph_rejected():
    with pytest.raises(DisconnectedGraphError):
        build_graph(3, [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        build_graph(2, [])


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(0, frozenset())


def test_adjacency_is_built_once():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.adjacent(0) is g.adjacent(0)
    assert [g.adjacent(i) for i in range(4)] == [(1, 3), (0, 2), (1, 3), (0, 2)]
    # the cached lists are not a field: equality and hashing ignore them
    twin = build_graph(4, [(3, 0), (2, 3), (1, 2), (0, 1)])
    assert g == twin and hash(g) == hash(twin)


def test_adjacent_out_of_range():
    with pytest.raises(ValueError):
        path(3).adjacent(3)


def test_path_laplacian_matrix_and_spectrum():
    lap = laplacian(path(3))
    assert np.array_equal(
        lap, np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    )
    eigs = np.sort(np.linalg.eigvalsh(lap))
    assert np.allclose(eigs, [0.0, 1.0, 3.0])


def test_lifted_laplacian_blocks():
    lift = lifted_laplacian(path(2), 2)
    eye = np.eye(2)
    assert np.array_equal(lift[:2, :2], eye)
    assert np.array_equal(lift[:2, 2:], -eye)
    assert np.array_equal(lift[2:, 2:], eye)


def test_lifted_laplacian_rejects_bad_block_dim():
    with pytest.raises(ValueError):
        lifted_laplacian(path(2), 0)


def test_topology_counts():
    topo = Topology(cluster_graph=path(2), agent_graphs=(path(3), path(1)))
    assert topo.cluster_count == 2
    assert topo.agent_counts == (3, 1)


def test_topology_rejects_count_mismatch():
    with pytest.raises(ValueError):
        Topology(cluster_graph=path(2), agent_graphs=(path(3),))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_random_connected_laplacian_properties(n, seed):
    g = random_connected_graph(np.random.default_rng(seed), n)
    lap = laplacian(g)
    assert np.array_equal(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0)
    eigs = np.linalg.eigvalsh(lap)
    assert eigs[0] > -1e-10
    # connected graphs have a one-dimensional Laplacian kernel
    assert int(np.count_nonzero(eigs > 1e-10)) == n - 1
