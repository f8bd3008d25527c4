"""Stacked drift form of the network flows and its spectral guarantees.

Both schemes collapse to a linear flow d/dt [x; z] = Q [x; z] + f with

    row:     Q = [[-Ah.T Ah - Lc,  Ah.T La], [Ah, -La]]
    column:  Q = [[-Ah.T Ah - La,  Ah.T Lc], [Ah, -Lc]]

where Ah block-diagonally stacks every agent block, La stacks the lifted
agent-layer Laplacians, Lc is the lifted cluster-layer Laplacian, and
f = [Ah.T bh; -bh] for the stacked offsets bh.  Matrices of this shape,
[[-C.T C - P, C.T D], [C, -D]] with P and D symmetric positive
semi-definite, have real, nonpositive eigenvalues with a non-defective
kernel.

Two routes lead to a verdict:

* check_drift_spectrum (structured route) checks on the assembled Q itself
  that it has that shape, then reads the spectrum off one symmetric
  eigensolve.  With D = U diag(lam) U.T, Q is similar to a block-triangular
  matrix whose diagonal blocks are a zero block (one column per kernel
  vector of D) and S = [[Q11, B.T], [B, -diag(lam+)]], B = lam+^1/2 U+.T C,
  which is symmetric negative semi-definite: Q is self-adjoint in a
  weighted inner product (Benzi & Simoncini, Numer. Math. 2006).  Every
  kernel vector of S has P x = 0 and C x in range D, so the zero eigenvalue
  is non-defective by the theorem once the structure holds, not by a rank
  cutoff.
* spectrum_verdict and check_saddle_spectrum (generic route) treat their
  input as an arbitrary square matrix: linalg.eig's general eigensolve plus
  its one-SVD kernel certificate.  This route stays as the independent
  reference the structured one is tested against, and it is the only one
  that can judge matrices without the saddle structure, such as defective
  or rotating ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import tiled_reference
from .graph import Topology, lifted_laplacian
from .linalg import RANK_RTOL, Spectrum, as_matrix, eig, solve_least_squares
from .partition import check_topology

# Relative tolerance for the spectral verdicts.
VERDICT_RTOL = 1e-8
# Relative tolerance for symmetry / positive semi-definiteness validation.
PSD_RTOL = 1e-10


class InconsistentSystemError(ValueError):
    """A x = b has no solution, so no equilibrium certificate exists."""


def _require_sym_psd(m: np.ndarray, name: str) -> None:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    scale = 1.0 + (float(np.max(np.abs(m))) if m.size else 0.0)
    if m.size and float(np.max(np.abs(m - m.T))) > PSD_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")
    if m.size:
        sym = 0.5 * (m + m.T)
        # Gershgorin: lambda_min >= min_i (sym_ii - sum_{j != i} |sym_ij|),
        # which already settles diagonally dominant matrices like Laplacians
        diag = np.diag(sym)
        radius = np.sum(np.abs(sym), axis=1) - np.abs(diag)
        if float(np.min(diag - radius)) >= -PSD_RTOL * scale:
            return
        low = float(np.linalg.eigvalsh(sym)[0])
        if low < -PSD_RTOL * scale:
            raise ValueError(f"{name} is not positive semi-definite within tolerance")


@dataclass(frozen=True)
class SpectralVerdict:
    """Outcome of the three spectral assertions on one matrix.

    real_ok:         max Re(lambda) < rtol * scale
    imag_ok:         max |Im(lambda)| < rtol * scale
    nondefective_ok: the zero eigenvalue is non-defective, i.e.
                     spectrum.rank == spectrum.rank_squared

    The first two assertions are relative to the matrix size.  On the
    generic route (spectrum_verdict, check_saddle_spectrum) scale is
    1 + ||M||_2 = 1 + spectrum.sigma_max, nondefective_ok is linalg.eig's
    kernel certificate, to_dict() reports its kernel_gap, kernel_margin and
    kernel_bound so a verdict near a cutoff shows, and structure_residual is
    None.  On the structured route (check_drift_spectrum) scale is 1 + rho
    with rho the spectral radius, nondefective_ok follows from the checked
    structure, the four kernel fields are None because that route does not
    compute them, and structure_residual is the largest block-identity
    residual relative to its tolerance (at most 1, or the check raises).
    """

    spectrum: Spectrum
    scale: float
    max_real: float
    max_imag: float
    real_ok: bool
    imag_ok: bool
    nondefective_ok: bool
    structure_residual: float | None = None

    @property
    def passed(self) -> bool:
        return self.real_ok and self.imag_ok and self.nondefective_ok

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [
                [float(v.real), float(v.imag)] for v in self.spectrum.eigenvalues
            ],
            "rank": self.spectrum.rank,
            "rank_squared": self.spectrum.rank_squared,
            "sigma_max": self.spectrum.sigma_max,
            "kernel_gap": self.spectrum.kernel_gap,
            "kernel_margin": self.spectrum.kernel_margin,
            "kernel_bound": self.spectrum.kernel_bound,
            "structure_residual": self.structure_residual,
            "scale": self.scale,
            "max_real": self.max_real,
            "max_imag": self.max_imag,
            "real_ok": self.real_ok,
            "imag_ok": self.imag_ok,
            "nondefective_ok": self.nondefective_ok,
            "passed": self.passed,
        }


def spectrum_verdict(m, rtol: float = VERDICT_RTOL) -> SpectralVerdict:
    """Run the three spectral assertions on an arbitrary square matrix."""
    m = as_matrix(m)
    sp = eig(m)
    scale = 1.0 + sp.sigma_max
    max_real = float(np.max(sp.eigenvalues.real)) if m.size else 0.0
    max_imag = float(np.max(np.abs(sp.eigenvalues.imag))) if m.size else 0.0
    return SpectralVerdict(
        spectrum=sp,
        scale=scale,
        max_real=max_real,
        max_imag=max_imag,
        real_ok=max_real < rtol * scale,
        imag_ok=max_imag < rtol * scale,
        nondefective_ok=sp.rank == sp.rank_squared,
    )


@dataclass(frozen=True)
class SaddleBlocks:
    """Validated ingredients (C, P, D) of M = [[-C.T C - P, C.T D], [C, -D]].

    P and D must be symmetric positive semi-definite (within 1e-10 relative);
    that structure is exactly what forces the spectrum onto the closed left
    real axis with a non-defective kernel.
    """

    coupling: np.ndarray  # C, r x s
    primal_damping: np.ndarray  # P, s x s
    dual_damping: np.ndarray  # D, r x r

    def __post_init__(self):
        object.__setattr__(self, "coupling", as_matrix(self.coupling))
        object.__setattr__(self, "primal_damping", as_matrix(self.primal_damping))
        object.__setattr__(self, "dual_damping", as_matrix(self.dual_damping))
        r, s = self.coupling.shape
        if self.primal_damping.shape != (s, s):
            raise ValueError(
                f"primal damping has shape {self.primal_damping.shape}, "
                f"expected ({s}, {s})"
            )
        if self.dual_damping.shape != (r, r):
            raise ValueError(
                f"dual damping has shape {self.dual_damping.shape}, "
                f"expected ({r}, {r})"
            )
        _require_sym_psd(self.primal_damping, "primal damping")
        _require_sym_psd(self.dual_damping, "dual damping")

    def matrix(self) -> np.ndarray:
        c, p, d = self.coupling, self.primal_damping, self.dual_damping
        return np.block([[-c.T @ c - p, c.T @ d], [c, -d]])


def check_saddle_spectrum(blocks: SaddleBlocks, rtol: float = VERDICT_RTOL) -> SpectralVerdict:
    """Certify the spectrum of the structured block matrix of `blocks`."""
    return spectrum_verdict(blocks.matrix(), rtol)


@dataclass(frozen=True)
class CompactSystem:
    """Stacked drift form of one partitioned instance."""

    scheme: str
    a_stack: np.ndarray  # block-diagonal stack of all agent blocks
    b_stack: np.ndarray  # stacked offsets
    agent_laplacian: np.ndarray  # block-diagonal lifted agent-layer Laplacians
    cluster_laplacian: np.ndarray  # lifted cluster-layer Laplacian
    drift_matrix: np.ndarray

    @property
    def dim_x(self) -> int:
        return self.a_stack.shape[1]

    @property
    def dim(self) -> int:
        return self.drift_matrix.shape[0]

    @property
    def forcing(self) -> np.ndarray:
        """Constant term of the affine flow d/dt [x; z] = Q [x; z] + f."""
        return np.concatenate([self.a_stack.T @ self.b_stack, -self.b_stack])


def _block_diag(blocks: list) -> np.ndarray:
    """Block-diagonal matrix with the given 2-D blocks along its diagonal."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    row = col = 0
    for b in blocks:
        out[row : row + b.shape[0], col : col + b.shape[1]] = b
        row += b.shape[0]
        col += b.shape[1]
    return out


def assemble_compact(part, topo: Topology) -> CompactSystem:
    """Assemble the stacked drift matrix and companions for a partition.

    This is an independent route to the same flow as the per-agent updates:
    it is built from Kronecker lifts and block stacking, never from the
    per-agent update code.
    """
    check_topology(part.cluster_count, part.agent_counts, topo)
    a_stack = _block_diag([block for row in part.blocks for block in row])
    b_stack = np.concatenate([off for row in part.offsets for off in row])
    if part.scheme == "row":
        lifts = [
            lifted_laplacian(topo.agent_graphs[i], part.cluster_rows[i])
            for i in range(part.cluster_count)
        ]
        agent_lap = _block_diag(lifts)
        cluster_lap = lifted_laplacian(topo.cluster_graph, part.total_cols)
        x_damping, z_lap = cluster_lap, agent_lap
    else:
        lifts = [
            lifted_laplacian(topo.agent_graphs[i], part.cluster_cols[i])
            for i in range(part.cluster_count)
        ]
        agent_lap = _block_diag(lifts)
        cluster_lap = lifted_laplacian(topo.cluster_graph, part.total_rows)
        x_damping, z_lap = agent_lap, cluster_lap
    drift = np.block(
        [[-a_stack.T @ a_stack - x_damping, a_stack.T @ z_lap], [a_stack, -z_lap]]
    )
    return CompactSystem(
        scheme=part.scheme,
        a_stack=a_stack,
        b_stack=b_stack,
        agent_laplacian=agent_lap,
        cluster_laplacian=cluster_lap,
        drift_matrix=drift,
    )


def _max_abs(m: np.ndarray) -> float:
    """Largest absolute entry of a non-empty m, without an |m|-sized temporary."""
    return float(max(m.max(), -m.min()))


def _structure_check(name: str, residual: float, tol: float) -> float:
    """residual / tol, or ValueError naming the check when it fails."""
    if not residual <= tol:
        raise ValueError(
            f"drift matrix fails the saddle structure check {name}: "
            f"residual {residual:.3e} > tolerance {tol:.3e}"
        )
    return residual / tol


def check_drift_spectrum(cs: CompactSystem, rtol: float = VERDICT_RTOL) -> SpectralVerdict:
    """Certify the drift matrix Q on the structured route.

    Re-validates the Laplacian blocks, then checks on the assembled
    Q = [[Q11, Q12], [Q21, Q22]] itself that Q22 = -D with D symmetric PSD,
    Q12 = -Q21.T Q22 and P = -(Q11 + Q21.T Q21) symmetric PSD, all relative
    to PSD_RTOL.  A corrupted Laplacian or drift matrix raises ValueError
    instead of producing a misleading verdict.  The eigenvalues of Q are
    those of S (see the module docstring) plus one zero per kernel vector of
    D.  Only the lower triangle of S is built, in one zeroed buffer, since
    eigvalsh reads nothing else.
    """
    _require_sym_psd(cs.agent_laplacian, "agent laplacian")
    _require_sym_psd(cs.cluster_laplacian, "cluster laplacian")
    q = as_matrix(cs.drift_matrix)
    dim_x = cs.dim_x
    q11, q12 = q[:dim_x, :dim_x], q[:dim_x, dim_x:]
    q21, q22 = q[dim_x:, :dim_x], q[dim_x:, dim_x:]
    scale22 = 1.0 + _max_abs(q22)
    sym22 = _structure_check("Q22 symmetric", _max_abs(q22 - q22.T), PSD_RTOL * scale22)
    coupling = q21.T @ q22
    coupling += q12
    coupled = _structure_check(
        "Q12 = -Q21.T Q22",
        _max_abs(coupling),
        PSD_RTOL * (1.0 + _max_abs(q21)) * scale22,
    )
    del coupling
    p = q21.T @ q21
    p += q11
    p *= -1.0
    sym_p = _structure_check(
        "P = -(Q11 + Q21.T Q21) symmetric", _max_abs(p - p.T), PSD_RTOL * (1.0 + _max_abs(q11))
    )
    low_p = float(np.linalg.eigvalsh(p)[0])
    _structure_check("P positive semi-definite", -low_p, PSD_RTOL * (1.0 + _max_abs(p)))
    del p
    lam, u = np.linalg.eigh(q22)
    lam = -lam  # the eigenvalues of D = -Q22, in descending order
    _structure_check("D = -Q22 positive semi-definite", -float(lam[-1]), PSD_RTOL * scale22)
    kept = int(np.count_nonzero(lam > RANK_RTOL * max(float(lam[0]), 0.0)))
    s = np.zeros((dim_x + kept, dim_x + kept))
    s[:dim_x, :dim_x] = q11
    lower = s[dim_x:, :dim_x]
    np.matmul(u[:, :kept].T, q21, out=lower)
    lower *= np.sqrt(lam[:kept])[:, None]
    del u, lower
    diag = np.arange(dim_x, dim_x + kept)
    s[diag, diag] = -lam[:kept]
    values = np.linalg.eigvalsh(s)
    del s
    rho = float(max(-values[0], values[-1]))
    rank = int(np.count_nonzero(np.abs(values) > RANK_RTOL * rho))
    eigenvalues = np.sort(np.concatenate([values, np.zeros(q22.shape[0] - kept)]))
    scale = 1.0 + rho
    max_real = float(eigenvalues[-1])
    return SpectralVerdict(
        spectrum=Spectrum(
            eigenvalues=eigenvalues.astype(complex),
            rank=rank,
            rank_squared=rank,
            sigma_max=None,
            kernel_gap=None,
            kernel_margin=None,
            kernel_bound=None,
        ),
        scale=scale,
        max_real=max_real,
        max_imag=0.0,
        real_ok=max_real < rtol * scale,
        imag_ok=True,
        nondefective_ok=True,
        structure_residual=max(sym22, coupled, sym_p),
    )


def equilibrium_certificate(cs: CompactSystem, part) -> tuple:
    """A stationary point (x_hat, z_hat) of the flow, built from a solution.

    x_hat replicates a least-squares solution y of A x = b across clusters
    (row scheme) or across each cluster's agents (column scheme); z_hat is the
    minimum-norm solve of the Laplacian balance equation.  Raises
    InconsistentSystemError when A x = b has no solution.
    """
    a_full, b_full = part.reassemble()
    y = solve_least_squares(a_full, b_full)
    resid = float(np.linalg.norm(a_full @ y - b_full))
    if resid > 1e-8 * (1.0 + float(np.linalg.norm(b_full))):
        raise InconsistentSystemError(
            f"A x = b is inconsistent: least-squares residual {resid:.3e}"
        )
    x_hat = tiled_reference(part, y)
    balance = cs.agent_laplacian if part.scheme == "row" else cs.cluster_laplacian
    rhs = cs.a_stack @ x_hat - cs.b_stack
    z_hat = solve_least_squares(balance, rhs)
    v = np.concatenate([x_hat, z_hat])
    drift_norm = float(np.linalg.norm(cs.drift_matrix @ v + cs.forcing))
    if drift_norm > 1e-8 * (1.0 + float(np.linalg.norm(cs.b_stack))):
        raise ArithmeticError(
            f"certificate failed to be stationary: drift norm {drift_norm:.3e}"
        )
    return x_hat, z_hat

