"""Dense linear-algebra primitives shared by the rest of the package.

Everything operates on plain float64 numpy arrays.  The helpers here add the
input validation and the fixed numerical-rank tolerance that the other
modules rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10
# The kernel certificate in eig: a cosine between ker M and ker M.T counts
# only when it clears KERNEL_MARGIN plus the bound on its own error.
KERNEL_MARGIN = 1e-8
# Kernel bases come from KERNEL_STEPS steps of inverse iteration on
# M - mu I with mu = KERNEL_SHIFT * n * sigma_max, the size of the roundoff
# in an LU of M: far below the nonzero eigenvalues, so two steps converge,
# yet it keeps the shifted copy of a singular M invertible.
KERNEL_SHIFT = float(np.finfo(float).eps)
KERNEL_STEPS = 2


def is_finite_number(value) -> bool:
    """True for a real number, not a bool, that converts to a finite float.

    NaN, the infinities and integers too large for a float (json.loads keeps
    10**400 as an int, and 0 < 10**400 < math.inf holds) do not pass.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(values) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting NaN/Inf entries."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D array, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _count_above(sigma: np.ndarray, rtol: float) -> int:
    """Singular values (in descending order) above rtol * sigma_max."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rtol * sigma[0]))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a square matrix plus a certificate on its kernel.

    rank is the numerical rank r of M (RANK_RTOL rule) and sigma_max its
    largest singular value.  kernel_gap = sigma_r / sigma_max says how far
    the rank decision sits above RANK_RTOL (0 for the zero matrix).

    The zero eigenvalue is non-defective exactly when ker M meets range M
    only in 0, that is when the cosines between ker M and ker M.T (the
    singular values of Y.T X for orthonormal bases X, Y) are all nonzero.
    kernel_margin is the smallest computed cosine and kernel_bound bounds
    its error, (||M X|| + ||M.T Y||) / sigma_r.  They read 1 and 0 when
    there is no kernel or M is zero, and 0 and 0 when the shifted copy
    M - mu I used to find X and Y is singular to working precision.  A
    cosine counts as certified only above KERNEL_MARGIN + kernel_bound, and
    rank_squared is r minus the uncertified ones (at least 0), so
    rank == rank_squared exactly when the zero eigenvalue (if present) is
    certified non-defective, which is what the stability argument
    downstream needs.

    spectral.check_drift_spectrum builds a Spectrum without this
    certificate: its rank counts eigenvalues above RANK_RTOL times the
    spectral radius, rank_squared equals rank because the checked saddle
    structure rules out a defective zero eigenvalue, and sigma_max and the
    three kernel fields are None.
    """

    eigenvalues: np.ndarray  # complex, sorted by (real, imag)
    rank: int
    rank_squared: int
    sigma_max: float | None
    kernel_gap: float | None
    kernel_margin: float | None
    kernel_bound: float | None


def _kernel_basis(shifted: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the k-dimensional subspace that inverse
    iteration on `shifted` = M - mu I converges to: ker M for tiny mu."""
    x = np.random.default_rng(0).standard_normal((shifted.shape[0], k))
    for _ in range(KERNEL_STEPS):
        x, _ = np.linalg.qr(np.linalg.solve(shifted, x))
    return x


def _kernel_certificate(m: np.ndarray, sigma: np.ndarray, r: int) -> tuple:
    """(kernel_margin, kernel_bound, uncertified cosines) of a square m with
    singular values sigma and numerical rank r; see Spectrum."""
    n = m.shape[0]
    if not 0 < r < n:
        return 1.0, 0.0, 0
    shifted = m.copy()
    shifted[np.diag_indices(n)] -= KERNEL_SHIFT * n * sigma[0]
    try:
        x = _kernel_basis(shifted, n - r)
        y = _kernel_basis(shifted.T, n - r)
    except np.linalg.LinAlgError:
        # An exactly zero pivot: M - mu I is singular to working precision.
        # Its smallest singular value is about mu times the smallest cosine,
        # so that cosine reads 0, as it does near a defective zero eigenvalue.
        return 0.0, 0.0, 1
    cosines = np.linalg.svd(y.T @ x, compute_uv=False)
    bound = float(np.linalg.norm(m @ x, 2) + np.linalg.norm(m.T @ y, 2)) / float(sigma[r - 1])
    return float(cosines[-1]), bound, int(np.count_nonzero(cosines <= KERNEL_MARGIN + bound))


def eig(m) -> Spectrum:
    """Eigenvalues of a square matrix together with its kernel certificate.

    Eigenvalues are sorted by real part, then imaginary part.  Exactly
    symmetric input is routed through the symmetric eigensolver, so its
    eigenvalues come back with zero imaginary part.  The certificate (see
    Spectrum) takes one values-only SVD of m and, when m is singular but
    not zero, four LU solves with one shifted copy of m.  A failure of the
    eigenvalue or singular-value iteration to converge propagates as
    np.linalg.LinAlgError.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ValueError(f"eig needs a square matrix, got shape {m.shape}")
    if np.array_equal(m, m.T):
        values = np.linalg.eigvalsh(m).astype(complex)
    else:
        values = np.linalg.eigvals(m)
    order = np.lexsort((values.imag, values.real))
    sigma = np.linalg.svd(m, compute_uv=False)
    sigma_max = float(sigma[0]) if n else 0.0
    r = _count_above(sigma, RANK_RTOL)
    margin, bound, uncertified = _kernel_certificate(m, sigma, r)
    return Spectrum(
        eigenvalues=values[order],
        rank=r,
        rank_squared=max(r - uncertified, 0),
        sigma_max=sigma_max,
        kernel_gap=float(sigma[r - 1]) / sigma_max if r else 0.0,
        kernel_margin=margin,
        kernel_bound=bound,
    )


def solve_least_squares(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of a @ x = b."""
    a = as_matrix(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"incompatible shapes: a is {a.shape}, b has {b.shape[0]} entries"
        )
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x
