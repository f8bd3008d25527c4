import numpy as np
import pytest

from duolayer import Spectrum, as_matrix, as_vector, eig, solve_least_squares
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
