"""Shared random generators for the test suite.

The saddle-triple generator rejects draws whose singular-value ladders have
entries near the 1e-10 relative rank cutoff, for M (between 1e-12 and 1e-6)
and for M @ M (between 1e-12 and 1e-8), so every accepted draw has an
unambiguous numerical rank (about 0.3% of draws are redrawn).  The M @ M
band dates from a non-defectiveness check that compared the ranks of M and
M @ M; it is kept so that the accepted draws, and every test seeded from
them, stay the same.
"""

import numpy as np

from duolayer import SaddleBlocks


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def conditioned_psd(rng, n, zero_prob=0.3):
    """PSD matrix with eigenvalues either exactly 0 or inside [0.3, 3]."""
    eigs = np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=n))
    mask = rng.random(n) < zero_prob
    if mask.all():
        mask[0] = False
    eigs[mask] = 0.0
    q = random_orthogonal(rng, n)
    return (q * eigs) @ q.T


def _clean_gap(m, lo, hi):
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return True
    return not np.any((sv > lo * sv[0]) & (sv < hi * sv[0]))


def random_saddle_blocks(rng, max_dim=5):
    """Random (C, P, D) triple whose block matrix has unambiguous ranks."""
    while True:
        r = int(rng.integers(1, max_dim + 1))
        s = int(rng.integers(1, max_dim + 1))
        u = random_orthogonal(rng, r)
        v = random_orthogonal(rng, s)
        k = min(r, s)
        sig = np.zeros((r, s))
        sig[:k, :k] = np.diag(np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=k)))
        c = u @ sig @ v.T
        p = conditioned_psd(rng, s)
        d = conditioned_psd(rng, r)
        m = np.block([[-c.T @ c - p, c.T @ d], [c, -d]])
        if _clean_gap(m, 1e-12, 1e-6) and _clean_gap(m @ m, 1e-12, 1e-8):
            return SaddleBlocks(coupling=c, primal_damping=p, dual_damping=d)
