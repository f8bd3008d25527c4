import numpy as np
import pytest
from scipy.linalg import block_diag

from duolayer import (
    Layout,
    ProblemInstance,
    Spectrum,
    Topology,
    as_matrix,
    as_vector,
    build_graph,
    eig,
    lifted_laplacian,
    partition_columns,
    solve_least_squares,
)
from duolayer.linalg import pattern_blocks
from helpers import random_orthogonal


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_as_vector_rejects_matrix():
    with pytest.raises(ValueError):
        as_vector([[1.0], [2.0]])


def test_eig_diagonal_sorted():
    sp = eig(np.diag([-1.0, -2.0]))
    assert isinstance(sp, Spectrum)
    assert np.array_equal(sp.eigenvalues, np.array([-2.0, -1.0], dtype=complex))
    assert sp.rank == 2
    assert sp.rank_squared == 2


def test_eig_zero_matrix():
    sp = eig(np.zeros((2, 2)))
    assert np.array_equal(sp.eigenvalues, np.zeros(2, dtype=complex))
    assert sp.rank == 0
    assert sp.rank_squared == 0


def test_eig_symmetric_has_exactly_real_eigenvalues():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    sp = eig(m)
    assert np.all(sp.eigenvalues.imag == 0.0)
    assert np.allclose(sp.eigenvalues.real, [1.0, 3.0])


def test_eig_rejects_non_square():
    with pytest.raises(ValueError):
        eig(np.zeros((2, 3)))


def test_eig_detects_defective_kernel():
    sp = eig([[0.0, 1.0], [0.0, 0.0]])
    assert sp.rank == 1
    assert sp.rank_squared == 0
    assert sp.rank != sp.rank_squared


def test_eig_hidden_nilpotent_block_is_defective():
    # one nilpotent Jordan block of size 3 beside three zeros, under a
    # well-conditioned similarity; seeds 0, 1 and 3 leave the shifted copy
    # exactly singular, and 2 and 5 leave more cosines uncertified than the
    # rank, so rank_squared stops at 0
    n = 6
    d = np.zeros((n, n))
    d[0, 1] = d[1, 2] = 1.0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        s = (random_orthogonal(rng, n) * np.exp(rng.uniform(-0.7, 0.7, size=n))) @ random_orthogonal(rng, n)
        sp = eig(s @ d @ np.linalg.inv(s))
        assert sp.rank == 2
        assert 0 <= sp.rank_squared < sp.rank


def test_solve_least_squares_square_exact():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_least_squares(a, [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0])


def test_solve_least_squares_minimum_norm():
    # underdetermined: the minimum-norm solution of x0 + x1 = 2 is (1, 1)
    x = solve_least_squares([[1.0, 1.0]], [2.0])
    assert np.allclose(x, [1.0, 1.0])


def test_solve_least_squares_overdetermined():
    x = solve_least_squares([[1.0], [1.0]], [0.0, 2.0])
    assert np.allclose(x, [1.0])


def test_solve_least_squares_shape_mismatch():
    with pytest.raises(ValueError):
        solve_least_squares(np.eye(2), [1.0, 2.0, 3.0])


def components(groups):
    """The blocks of pattern_blocks as a set of index tuples, after checking
    that sizes ascend, each row ascends, and rows of a size are ordered by
    their smallest index."""
    sizes = [g.shape[1] for g in groups]
    assert sizes == sorted(set(sizes))
    for g in groups:
        assert g.dtype.kind == "i" and g.ndim == 2
        assert np.all(np.diff(g, axis=1) > 0)
        assert np.all(np.diff(g[:, 0]) > 0)
    return {tuple(int(i) for i in row) for g in groups for row in g}


def oracle_components(m):
    """Connected components of the symmetric nonzero pattern, by search."""
    n = m.shape[0]
    linked = (m != 0) | (m != 0).T
    seen, found = set(), set()
    for root in range(n):
        if root in seen:
            continue
        stack, block = [root], {root}
        while stack:
            for j in np.flatnonzero(linked[stack.pop()]):
                if int(j) not in block:
                    block.add(int(j))
                    stack.append(int(j))
        seen |= block
        found.add(tuple(sorted(block)))
    return found


def test_pattern_blocks_zero_rows_are_single_blocks():
    m = np.zeros((5, 5))
    m[1, 3] = m[3, 1] = -2.0
    groups = pattern_blocks(m)
    assert [g.shape for g in groups] == [(3, 1), (1, 2)]
    assert np.array_equal(groups[0], [[0], [2], [4]])
    assert np.array_equal(groups[1], [[1, 3]])
    assert [g.shape for g in pattern_blocks(np.zeros((4, 4)))] == [(4, 1)]
    assert pattern_blocks(np.zeros((0, 0))) == ()


def test_pattern_blocks_dense_matrix_is_one_block():
    m = np.random.default_rng(1).standard_normal((9, 9))
    groups = pattern_blocks(m)
    assert len(groups) == 1 and np.array_equal(groups[0], [np.arange(9)])
    # one nonzero per pair joins it, whichever triangle holds it
    upper = np.triu(np.ones((6, 6)), 1)
    assert components(pattern_blocks(upper)) == {tuple(range(6))}
    assert components(pattern_blocks(upper.T)) == {tuple(range(6))}


def test_pattern_blocks_mixed_sizes_column_scheme():
    # column scheme: P stacks L_i (x) I_{w_i} per cluster, so cluster i gives
    # w_i blocks of its agent count k_i, strided by w_i
    layout = Layout(scheme="column", cluster_sizes=[2, 3, 1], agent_sizes=[[1, 1, 1], [3], [2, 1]])
    paths = [build_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (3, 1, 2)]
    topo = Topology(cluster_graph=paths[0], agent_graphs=tuple(paths))
    a = np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 6))
    part = partition_columns(ProblemInstance(a=a, b=a.sum(axis=1), topology=topo, layout=layout))
    p = block_diag(*[lifted_laplacian(g, w) for g, w in zip(topo.agent_graphs, part.cluster_cols)])
    groups = pattern_blocks(p)
    assert [g.tolist() for g in groups] == [[[6], [7], [8]], [[9, 10]], [[0, 2, 4], [1, 3, 5]]]


def test_pattern_blocks_scattered_index_order():
    rng = np.random.default_rng(4)
    for sizes in ([3, 1, 2, 3], [50], [1] * 5 + [7, 7, 2]):
        n = sum(sizes)
        perm = rng.permutation(n)
        m = np.zeros((n, n))
        start = 0
        for k in sizes:
            ids = perm[start : start + k]
            # a path through the block in shuffled order: the longest chains
            # a min-label sweep has to cross
            for i, j in zip(ids[:-1], ids[1:]):
                m[i, j] = m[j, i] = rng.uniform(0.5, 1.0)
            start += k
        starts = np.cumsum([0] + sizes)
        expected = {tuple(sorted(int(i) for i in perm[s : s + k])) for s, k in zip(starts, sizes)}
        assert components(pattern_blocks(m)) == expected == oracle_components(m)


def test_pattern_blocks_match_search_on_random_patterns():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 30, 60):
        for density in (0.0, 0.02, 0.05, 0.2):
            m = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
            assert components(pattern_blocks(m)) == oracle_components(m), (n, density)


def test_pattern_blocks_rejects_non_square():
    for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            pattern_blocks(bad)
