"""Stacked drift form of the network flows and its spectral guarantees.

Both schemes collapse to a linear flow d/dt [x; z] = Q [x; z] + f with

    row:     Q = [[-Ah.T Ah - Lc,  Ah.T La], [Ah, -La]]
    column:  Q = [[-Ah.T Ah - La,  Ah.T Lc], [Ah, -Lc]]

where Ah block-diagonally stacks every agent block, La stacks the lifted
agent-layer Laplacians, Lc is the lifted cluster-layer Laplacian, and
f = [Ah.T bh; -bh] for the stacked offsets bh.  Matrices of this shape have
real, nonpositive eigenvalues with a non-defective kernel, which is what
check_saddle_spectrum / check_drift_spectrum certify numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Topology, lifted_laplacian
from .linalg import Spectrum, as_matrix, eig, solve_least_squares

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
        low = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
        if low < -PSD_RTOL * scale:
            raise ValueError(f"{name} is not positive semi-definite within tolerance")


@dataclass(frozen=True)
class SpectralVerdict:
    """Outcome of the three spectral assertions on one matrix.

    real_ok:         max Re(lambda) < rtol * scale
    imag_ok:         max |Im(lambda)| < rtol * scale
    nondefective_ok: the kernel certificate of linalg.eig holds, i.e.
                     spectrum.rank == spectrum.rank_squared

    scale is 1 + ||M||_2 = 1 + spectrum.sigma_max, so the first two
    assertions are relative to the matrix size.  to_dict() also reports the
    certificate's kernel_gap, kernel_margin and kernel_bound, so a verdict
    that sits near a cutoff shows.
    """

    spectrum: Spectrum
    scale: float
    max_real: float
    max_imag: float
    real_ok: bool
    imag_ok: bool
    nondefective_ok: bool

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
    if part.cluster_count != topo.cluster_count or part.agent_counts != topo.agent_counts:
        raise ValueError(
            f"partition ({part.cluster_count} clusters, {part.agent_counts}) does "
            f"not match topology ({topo.cluster_count} clusters, {topo.agent_counts})"
        )
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


def check_drift_spectrum(cs: CompactSystem, rtol: float = VERDICT_RTOL) -> SpectralVerdict:
    """Certify the drift matrix after re-validating its Laplacian blocks.

    A corrupted (non-symmetric or indefinite) Laplacian raises instead of
    producing a misleading verdict.
    """
    _require_sym_psd(cs.agent_laplacian, "agent laplacian")
    _require_sym_psd(cs.cluster_laplacian, "cluster laplacian")
    return spectrum_verdict(cs.drift_matrix, rtol)


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
    if part.scheme == "row":
        x_hat = np.tile(y, part.cluster_count)
        balance = cs.agent_laplacian
    else:
        pieces = []
        start = 0
        for n_i, count in zip(part.cluster_cols, part.agent_counts):
            pieces.append(np.tile(y[start : start + n_i], count))
            start += n_i
        x_hat = np.concatenate(pieces)
        balance = cs.cluster_laplacian
    rhs = cs.a_stack @ x_hat - cs.b_stack
    z_hat = solve_least_squares(balance, rhs)
    v = np.concatenate([x_hat, z_hat])
    drift_norm = float(np.linalg.norm(cs.drift_matrix @ v + cs.forcing))
    if drift_norm > 1e-8 * (1.0 + float(np.linalg.norm(cs.b_stack))):
        raise ArithmeticError(
            f"certificate failed to be stationary: drift norm {drift_norm:.3e}"
        )
    return x_hat, z_hat


def kernel_offset(cs: CompactSystem, reached: np.ndarray, certificate: np.ndarray) -> np.ndarray:
    """Difference between a settled flat state and a certificate.

    Stationary points of the flow differ by kernel elements of the drift
    matrix, so for a converged run this difference should be annihilated by
    the drift matrix; the caller can check ||Q @ offset||.
    """
    reached = np.asarray(reached, dtype=float)
    certificate = np.asarray(certificate, dtype=float)
    if reached.shape != (cs.dim,) or certificate.shape != (cs.dim,):
        raise ValueError(
            f"flat states must have shape ({cs.dim},), got "
            f"{reached.shape} and {certificate.shape}"
        )
    return reached - certificate
