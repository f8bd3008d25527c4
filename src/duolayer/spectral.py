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

Only Q11 = -C.T C - P and Q12 = C.T D take arithmetic; Q21 = C and
Q22 = -D are the validated factors themselves.  So a CompactSystem keeps
the factors (C, P, D) and those two computed blocks, and never stores Q:
every product with Q is taken block by block (CompactSystem.matvec), and
the dense drift_matrix is built only on request, for tests and the
generic route.

Two routes lead to a verdict:

* check_drift_spectrum (structured route) checks on the stored blocks of Q
  that it has that shape, then reads the spectrum off one symmetric
  eigensolve.  With D = U diag(lam) U.T for any orthonormal eigenbasis U,
  Q is similar to a block-triangular matrix whose diagonal blocks are a
  zero block (one column per kernel vector of D) and
  S = [[Q11, B.T], [B, -diag(lam+)]], B = lam+^1/2 U+.T C, which is
  symmetric negative semi-definite: Q is self-adjoint in a weighted inner
  product (Benzi & Simoncini, Numer. Math. 2006).  Every
  kernel vector of S has P x = 0 and C x in range D, so the zero eigenvalue
  is non-defective by the theorem once the structure holds, not by a rank
  cutoff.
* spectrum_verdict and check_saddle_spectrum (generic route) treat their
  input as an arbitrary square matrix: linalg.eig's general eigensolve plus
  its one-SVD kernel certificate.  This route stays as the independent
  reference the structured one is tested against, and it is the only one
  that can judge matrices without the saddle structure, such as defective
  or rotating ones.

D is a lifted Laplacian of the small agent or cluster graphs, so up to a
permutation it is block diagonal with blocks of graph size.  Its
eigendecomposition is taken once per CompactSystem, block by block
(CompactSystem.dual_eigh: the connected blocks of D's nonzero pattern, one
batched eigh per block size), so U is block diagonal and is never formed as
a dim_z x dim_z matrix.  It serves twice: the structured verdict builds the
rows of B block by block from it, and equilibrium_certificate solves the
Laplacian balance D z = C x - b with it as
z = U+ diag(lam+)^-1 U+.T (C x - b), block by block, keeping the same lam+
as the verdict.  A dense D is simply one block.

The same blocks bound the two products with D: SaddleBlocks.upper_blocks()
takes Q12 = C.T D over the blocks of D, which assemble_compact hands to the
system (CompactSystem.dual_blocks) so the pattern is labelled once, and the
verdict checks Q12 = -Q21.T Q22 = C.T D, one chunk of blocks at a time
(_block_products), so neither multiplies C.T by the whole of D.  The Gram products C.T C and Q21.T Q21 and the eigvalsh of S are
still dense.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import tiled_reference
from .graph import Topology, lifted_laplacian
from .linalg import RANK_RTOL, Spectrum, as_matrix, eig, pattern_blocks, solve_least_squares
from .partition import check_topology

# Relative tolerance for the spectral verdicts.
VERDICT_RTOL = 1e-8
# Relative tolerance for symmetry / positive semi-definiteness validation.
PSD_RTOL = 1e-10
# A x = b counts as consistent when its least-squares residual is at most
# CONSISTENT_RTOL * (||A||_F ||y|| + ||b||), relative at every scale of A.
CONSISTENT_RTOL = 1e-8
# A certificate is stationary when max|Q v + f| <= STATIONARY_RTOL *
# max(|Q||v| + |f|).  That bound scales the rounding of Q v + f with A:
# correct certificates reach about 1e-15 of it at every scale of A, and a
# balance left off by 1e-3 max|b_stack| at least 5e-11.
STATIONARY_RTOL = 1e-12
# Rows of a block taken at a time where a product reads all of it (|Q11|,
# |Q12|, |C| and |D| in that bound, C in the verdict's B, the rows of D in
# C.T D), so no temporary of a block's size is made.
CHUNK_ROWS = 256


class InconsistentSystemError(ValueError):
    """A x = b has no solution, so no equilibrium certificate exists."""


class StructureError(ValueError):
    """The drift matrix fails a saddle structure check, so it has no verdict."""


def _max_abs(m: np.ndarray) -> float:
    """Largest absolute entry of a non-empty m, without an |m|-sized temporary."""
    return float(max(m.max(), -m.min()))


def _is_symmetric(m: np.ndarray) -> bool:
    """m equals m.T bit for bit, so m - m.T and 0.5 (m + m.T) need no copy."""
    return np.array_equal(m.view(np.int64), m.T.view(np.int64))


def _asymmetry(m: np.ndarray) -> float:
    """max|m - m.T| of a non-empty m, without the copy when m is symmetric
    (then m - m.T is +0.0, or NaN where m is not finite)."""
    if _is_symmetric(m):
        return 0.0 if np.isfinite(_max_abs(m)) else np.nan
    return _max_abs(m - m.T)


def _lowest_eigenvalue_bound(m: np.ndarray, tol: float) -> float:
    """A lower bound on the smallest eigenvalue of the symmetric part of m.

    Gershgorin first: lambda_min >= min_i (sym_ii - sum_{j != i} |sym_ij|),
    which already settles diagonally dominant matrices like Laplacians; only
    when that bound falls below -tol is the exact eigvalsh minimum taken.
    """
    sym = m if _is_symmetric(m) else 0.5 * (m + m.T)
    diag = np.diag(sym)
    radius = np.sum(np.abs(sym), axis=1) - np.abs(diag)
    low = float(np.min(diag - radius))
    return low if low >= -tol else float(np.linalg.eigvalsh(sym)[0])


@dataclass(frozen=True)
class SpectralVerdict:
    """Outcome of the three spectral assertions on one matrix.

    real_ok:         max Re(lambda) < VERDICT_RTOL * scale
    imag_ok:         max |Im(lambda)| < VERDICT_RTOL * scale
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


def spectrum_verdict(m) -> SpectralVerdict:
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
        real_ok=max_real < VERDICT_RTOL * scale,
        imag_ok=max_imag < VERDICT_RTOL * scale,
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
        r, s = self.coupling.shape
        for field, n in (("primal_damping", s), ("dual_damping", r)):
            name = field.replace("_", " ")
            m = as_matrix(getattr(self, field))
            object.__setattr__(self, field, m)
            if m.shape != (n, n):
                raise ValueError(f"{name} has shape {m.shape}, expected ({n}, {n})")
            if not m.size:
                continue
            tol = PSD_RTOL * (1.0 + _max_abs(m))
            if _asymmetry(m) > tol:
                raise ValueError(f"{name} is not symmetric within tolerance")
            if _lowest_eigenvalue_bound(m, tol) < -tol:
                raise ValueError(f"{name} is not positive semi-definite within tolerance")

    def matrix(self) -> np.ndarray:
        """M as one dense (s + r) x (s + r) array; bit for bit
        np.block([[-C.T @ C - P, C.T @ D], [C, -D]])."""
        q11, q12, _ = self.upper_blocks()
        return _stacked(q11, q12, self.coupling, self.dual_damping)

    def upper_blocks(self) -> tuple:
        """(Q11, Q12, blocks): the two blocks of M that take arithmetic,
        Q11 = -C.T C - P and Q12 = C.T D, and linalg.pattern_blocks(D).

        -C.T C is the product of the negated copy of C.T, as in np.block's
        expression (negating the product would flip the sign of its zeros),
        and C.T D is taken block by block over the blocks of D.
        """
        c, p, d = self.coupling, self.primal_damping, self.dual_damping
        r, s = c.shape
        q11 = np.matmul(-c.T, c)
        q11 -= p
        blocks = pattern_blocks(d)
        q12 = np.empty((s, r))
        for cols, block in _block_products(c, d, blocks):
            q12[:, cols] = block.transpose(1, 0, 2)
        return q11, q12, blocks


def _stacked(q11, q12, c, d) -> np.ndarray:
    """[[Q11, Q12], [C, -D]] written into one buffer."""
    s, r = q12.shape
    m = np.empty((s + r, s + r))
    m[:s, :s] = q11
    m[:s, s:] = q12
    m[s:, :s] = c
    np.negative(d, out=m[s:, s:])
    return m


def _block_products(x: np.ndarray, m: np.ndarray, blocks) -> Iterator[tuple]:
    """X.T M for a square M that is zero off the blocks `blocks`, a chunk of
    about CHUNK_ROWS rows of M at a time (at least one block).

    blocks is linalg.pattern_blocks(M), or the idx arrays of a factor built
    from it: every column j of M is zero outside the rows of j's block, so
    X.T M[:, j] = X[block].T M[block, j] exactly.  Yields (cols, product)
    with cols (k, size) a chunk of blocks and product[i] = X.T M[:, cols[i]],
    shape (k, x.shape[1], size).
    """
    for idx in blocks:
        step = max(1, CHUNK_ROWS // idx.shape[1])
        for start in range(0, len(idx), step):
            cols = idx[start : start + step]
            yield cols, np.matmul(x[cols].transpose(0, 2, 1), m[cols[:, :, None], cols[:, None, :]])


def check_saddle_spectrum(blocks: SaddleBlocks) -> SpectralVerdict:
    """Certify the spectrum of the structured block matrix of `blocks`."""
    return spectrum_verdict(blocks.matrix())


@dataclass(frozen=True)
class CompactSystem:
    """Stacked drift form Q = [[Q11, Q12], [C, -D]] of one partitioned instance.

    saddle.coupling C stacks every agent block block-diagonally.  The two
    lifted Laplacians take the damping roles: row scheme P = the cluster
    layer, D = the agent layers; column scheme P = the agent layers, D = the
    cluster layer.  q11 = -C.T C - P and q12 = C.T D are the two blocks of
    Q that take arithmetic, as saddle.upper_blocks() computes them, and
    read-only; Q21 and Q22 are read as C and -D, so Q is never stored.
    matvec applies Q block by block, and drift_matrix is the dense Q, built
    only when read (by tests and the generic route).

    dual_eigh is the one block-wise eigendecomposition of D that both the
    structured verdict and the equilibrium certificate read: whichever runs
    first pays for it.  It factors the blocks of dual_blocks, which
    assemble_compact hands over from the assembly, so D's pattern is
    labelled once per system.  Since the factors cannot be written in place,
    the cached blocks and factors cannot go stale; dataclasses.replace
    builds a new instance with an empty cache, which labels its own D, and
    keeps q11 and q12 as they are, so a replaced saddle is judged against
    the stored blocks.
    """

    scheme: str
    saddle: SaddleBlocks
    b_stack: np.ndarray  # stacked offsets
    q11: np.ndarray  # -C.T C - P, dim_x x dim_x
    q12: np.ndarray  # C.T D, dim_x x dim_z

    @cached_property
    def dual_blocks(self) -> tuple:
        """linalg.pattern_blocks of D: the connected blocks of its nonzero
        pattern, one (count, size) index array per block size."""
        return pattern_blocks(self.saddle.dual_damping)

    @cached_property
    def dual_eigh(self) -> tuple:
        """D factored block by block: one (idx, lam, vecs) per block size.

        idx (count, size) lists the connected blocks of D's nonzero pattern
        (dual_blocks), lam (count, size) and vecs (count, size, size) their
        eigenpairs: D[i][:, i] = vecs[k] diag(lam[k]) vecs[k].T for
        i = idx[k].  One batched eigh per block size; no dim_z x dim_z
        factor is formed.  Built on the first call, every call returns the
        same read-only arrays.
        """
        d = self.saddle.dual_damping
        factor = []
        for idx in self.dual_blocks:
            lam, vecs = np.linalg.eigh(d[idx[:, :, None], idx[:, None, :]])
            for arr in (idx, lam, vecs):
                arr.flags.writeable = False
            factor.append((idx, lam, vecs))
        return tuple(factor)

    @cached_property
    def drift_matrix(self) -> np.ndarray:
        """Q as one dense read-only array, assembled from the stored blocks on
        the first read; bit for bit saddle.matrix() of an assembled system."""
        m = _stacked(self.q11, self.q12, self.saddle.coupling, self.saddle.dual_damping)
        m.flags.writeable = False
        return m

    def matvec(self, v: np.ndarray, absolute: bool = False) -> np.ndarray:
        """Q v, or |Q| v when absolute, from the blocks:
        [Q11 x + Q12 z; C x - D z] for v = [x; z].  |Q| v reads each block
        CHUNK_ROWS rows at a time, so no |block| temporary is made."""
        x, z = v[: self.dim_x], v[self.dim_x :]
        c, d = self.saddle.coupling, self.saddle.dual_damping
        upper = _product(self.q11, x, absolute) + _product(self.q12, z, absolute)
        lower = _product(c, x, absolute)
        if absolute:
            lower += _product(d, z, absolute)
        else:
            lower -= d @ z
        return np.concatenate([upper, lower])

    @property
    def dim_x(self) -> int:
        return self.saddle.coupling.shape[1]

    @property
    def dim(self) -> int:
        return self.dim_x + self.saddle.dual_damping.shape[0]

    @property
    def forcing(self) -> np.ndarray:
        """Constant term of the affine flow d/dt [x; z] = Q [x; z] + f."""
        return np.concatenate([self.saddle.coupling.T @ self.b_stack, -self.b_stack])


def _product(m: np.ndarray, v: np.ndarray, absolute: bool) -> np.ndarray:
    """m @ v, or |m| @ v taken CHUNK_ROWS rows of m at a time."""
    if not absolute:
        return m @ v
    out = np.empty(len(m))
    for start in range(0, len(m), CHUNK_ROWS):
        out[start : start + CHUNK_ROWS] = np.abs(m[start : start + CHUNK_ROWS]) @ v
    return out


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
    """Assemble the stacked drift form of a partition: its factors and the
    two computed blocks of Q, never the dense Q.

    This is an independent route to the same flow as the per-agent updates:
    it is built from Kronecker lifts and block stacking, never from the
    per-agent update code.  Both schemes build the same two Laplacians; only
    their widths and their P/D roles swap.
    """
    check_topology(part.cluster_count, part.agent_counts, topo)
    row = part.scheme == "row"
    agent_widths, cluster_width = (
        (part.cluster_rows, part.total_cols) if row else (part.cluster_cols, part.total_rows)
    )
    agent_lap = _block_diag(
        [lifted_laplacian(g, w) for g, w in zip(topo.agent_graphs, agent_widths)]
    )
    cluster_lap = lifted_laplacian(topo.cluster_graph, cluster_width)
    primal, dual = (cluster_lap, agent_lap) if row else (agent_lap, cluster_lap)
    saddle = SaddleBlocks(
        coupling=_block_diag([block for blocks in part.blocks for block in blocks]),
        primal_damping=primal,
        dual_damping=dual,
    )
    q11, q12, blocks = saddle.upper_blocks()
    for arr in (q11, q12):
        arr.flags.writeable = False
    cs = CompactSystem(
        scheme=part.scheme,
        saddle=saddle,
        b_stack=np.concatenate([off for offsets in part.offsets for off in offsets]),
        q11=q11,
        q12=q12,
    )
    # the blocks of the D just multiplied, handed to the cached_property
    cs.__dict__["dual_blocks"] = blocks
    return cs


def _kept(factor: tuple) -> tuple:
    """Masks of D's eigenvalues above RANK_RTOL * lam_max, one per block size
    of factor = CompactSystem.dual_eigh.

    The verdict's S and the certificate's minimum-norm balance both keep
    exactly these eigenpairs.
    """
    lam_max = max((float(lam.max()) for _, lam, _ in factor), default=0.0)
    return tuple(lam > RANK_RTOL * max(lam_max, 0.0) for _, lam, _ in factor)


def _structure_check(name: str, residual: float, tol: float) -> float:
    """residual / tol, or StructureError naming the check when it fails."""
    if not residual <= tol:
        raise StructureError(
            f"drift matrix fails the saddle structure check {name}: "
            f"residual {residual:.3e} > tolerance {tol:.3e}"
        )
    return residual / tol


def check_drift_spectrum(cs: CompactSystem) -> SpectralVerdict:
    """Certify the drift matrix Q on the structured route.

    cs.saddle was validated when it was built; this checks on the stored
    blocks of Q = [[Q11, Q12], [Q21, Q22]] = [[cs.q11, cs.q12], [C, -D]]
    that Q22 = -D with D symmetric PSD, Q12 = -Q21.T Q22 = C.T D and
    P = -(Q11 + Q21.T Q21) symmetric PSD, all relative to PSD_RTOL.  Every
    residual equals the one read off the dense Q bit for bit: D's asymmetry
    and largest entry are -D's, and C.T (-D) = -(C.T D) exactly.
    Q12 = C.T D is checked one connected block of D at a time, over the
    blocks of cs.dual_eigh: every column of Q12 lies in one block and D is
    zero off them, so this covers every entry of Q12.
    P is an O(1) Laplacian recovered by cancellation: Q11 holds -C.T C - P
    and Q21 is C, so both the stored Q11 and the product Q21.T Q21
    carry rounding of about k * eps * (max|Q11| + max|Q21|^2), k the
    nonzeros per column of Q21, and that error grows like |A|^2.  The PSD
    test of P therefore uses the tolerance PSD_RTOL * (1 + max|Q11| +
    max|Q21|^2), which bounds it for any k * eps well below PSD_RTOL.  A
    corrupted block or factor raises StructureError instead of producing a
    misleading verdict.  The eigenvalues of Q are those of S (see the module
    docstring) plus one zero per kernel vector of D, with D = U diag(lam)
    U.T read block by block from cs.dual_eigh.  Only the lower triangle of S
    is built, in one zeroed buffer, since eigvalsh reads nothing else; the
    rows of B are written into it a chunk of blocks at a time.
    """
    dim_x = cs.dim_x
    q11, q21, d = cs.q11, cs.saddle.coupling, cs.saddle.dual_damping
    scale22 = 1.0 + _max_abs(d)
    sym22 = _structure_check("Q22 symmetric", _asymmetry(d), PSD_RTOL * scale22)
    factor = cs.dual_eigh
    residual = 0.0
    for cols, coupling in _block_products(q21, d, [idx for idx, _, _ in factor]):
        coupling -= cs.q12[:, cols].transpose(1, 0, 2)
        residual = np.maximum(residual, _max_abs(coupling))
    coupled = _structure_check(
        "Q12 = -Q21.T Q22", float(residual), PSD_RTOL * (1.0 + _max_abs(q21)) * scale22
    )
    p = q21.T @ q21
    p += q11
    p *= -1.0
    sym_p = _structure_check(
        "P = -(Q11 + Q21.T Q21) symmetric", _asymmetry(p), PSD_RTOL * (1.0 + _max_abs(q11))
    )
    tol_p = PSD_RTOL * (1.0 + _max_abs(q11) + _max_abs(q21) ** 2)
    _structure_check("P positive semi-definite", -_lowest_eigenvalue_bound(p, tol_p), tol_p)
    del p
    lam_min = min((float(lam.min()) for _, lam, _ in factor), default=0.0)
    _structure_check("D = -Q22 positive semi-definite", -lam_min, PSD_RTOL * scale22)
    masks = _kept(factor)
    kept = sum(int(np.count_nonzero(mask)) for mask in masks)
    s = np.zeros((dim_x + kept, dim_x + kept))
    s[:dim_x, :dim_x] = q11
    row = dim_x
    for (idx, lam, vecs), mask in zip(factor, masks):
        # B's rows are the kept rows of lam^1/2 vecs[k].T Q21[idx[k]]
        scaled = (vecs * np.sqrt(np.where(mask, lam, 0.0))[:, None, :]).transpose(0, 2, 1)
        step = max(1, CHUNK_ROWS // idx.shape[1])
        for start in range(0, len(idx), step):
            chunk = slice(start, start + step)
            keep = mask[chunk].ravel()
            end = row + int(np.count_nonzero(keep))
            b = np.matmul(scaled[chunk], q21[idx[chunk]]).reshape(-1, dim_x)
            np.compress(keep, b, axis=0, out=s[row:end, :dim_x])
            del b  # before the next chunk's product, so at most two chunks are held
            diag = np.arange(row, end)
            s[diag, diag] = -lam[chunk].ravel()[keep]
            row = end
    values = np.linalg.eigvalsh(s)
    del s
    rho = float(max(-values[0], values[-1]))
    rank = int(np.count_nonzero(np.abs(values) > RANK_RTOL * rho))
    eigenvalues = np.sort(np.concatenate([values, np.zeros(d.shape[0] - kept)]))
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
        real_ok=max_real < VERDICT_RTOL * scale,
        imag_ok=True,
        nondefective_ok=True,
        structure_residual=max(sym22, coupled, sym_p),
    )


def equilibrium_certificate(cs: CompactSystem, part) -> tuple:
    """A stationary point (x_hat, z_hat) of the flow, built from a solution.

    x_hat replicates a least-squares solution y of A x = b across clusters
    (row scheme) or across each cluster's agents (column scheme); z_hat is the
    minimum-norm solve of the Laplacian balance D z = C x_hat - b_stack,
    U+ diag(lam+)^-1 U+.T (C x_hat - b_stack), block by block from
    cs.dual_eigh with the verdict's own cutoff for lam+.  Raises
    InconsistentSystemError when A x = b has no solution: ||A y - b|| above
    CONSISTENT_RTOL * (||A||_F ||y|| + ||b||).  Raises ArithmeticError when
    the certificate is not stationary: max|Q v + f| above STATIONARY_RTOL *
    max(|Q||v| + |f|), both products taken block by block (cs.matvec).
    Both bounds scale with A, so they hold at every size.
    """
    a_full, b_full = part.reassemble()
    y = solve_least_squares(a_full, b_full)
    resid = float(np.linalg.norm(a_full @ y - b_full))
    resid_tol = CONSISTENT_RTOL * float(
        np.linalg.norm(a_full) * np.linalg.norm(y) + np.linalg.norm(b_full)
    )
    if not resid <= resid_tol:
        raise InconsistentSystemError(
            f"A x = b is inconsistent: least-squares residual {resid:.3e} > "
            f"tolerance {resid_tol:.3e}"
        )
    x_hat = tiled_reference(part, y)
    rhs = cs.saddle.coupling @ x_hat - cs.b_stack
    z_hat = np.zeros(len(rhs))
    for (idx, lam, vecs), mask in zip(cs.dual_eigh, _kept(cs.dual_eigh)):
        coef = np.matmul(rhs[idx][:, None, :], vecs)[:, 0]
        coef = np.divide(coef, lam, out=np.zeros_like(coef), where=mask)
        z_hat[idx] = np.matmul(vecs, coef[:, :, None])[:, :, 0]
    v = np.concatenate([x_hat, z_hat])
    f = cs.forcing
    drift = _max_abs(cs.matvec(v) + f)
    tol = STATIONARY_RTOL * float(np.max(cs.matvec(np.abs(v), absolute=True) + np.abs(f)))
    if not drift <= tol:
        raise ArithmeticError(
            f"certificate failed to be stationary: max drift {drift:.3e} > tolerance {tol:.3e}"
        )
    return x_hat, z_hat
