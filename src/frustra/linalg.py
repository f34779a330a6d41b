"""Dense matrix kernel.

Hermitian eigendecomposition with two cheaper variants (eigenvalues only,
and a certified ground state), SVD, operator absolute value, the
positive-semidefinite (PSD) ordering test, the three normalized
unitarily invariant norms (operator, Hilbert-Schmidt, trace), and sorted
dominance between two lists of singular values.  Everything downstream
(local spectra, frustration energies, the perturbation checks) is built on
these few operations.

The eigenvalues-only solver returns the sorted diagonal of a diagonal
matrix, as LAPACK would, found in its first pass (the only diagonal
shortcut).  The ground variant finds a NaN or inf in its Gershgorin row
sums, computes no full spectrum, and takes one route whatever the matrix: a
proof that a shifted, rank-1-lifted H is positive definite certifies, by
interlacing, that the next eigenvalue lies above a LANCZOS_STEPS-step
Lanczos vector's E0 + r + STRUCTURAL_TOL * scale (a recursive block Cholesky
with LAPACK leaves and GEMM updates, whose a posteriori rounding bound stays
below a further CERTIFICATE_SHIFT), and Rayleigh-Ritz steps through that
factor take the vector's residual to round-off.  Any refusal (a degenerate
or unresolved ground level, a failed proof or refinement) gives nothing, and
the caller then falls back to the full decomposition.

All functions are pure and deterministic for identical input: eigenvalues
come back ascending, singular values descending, and every returned
eigen/singular vector carries a fixed phase convention (largest-magnitude
entry real and positive) so vector-valued results are reproducible
across runs.  Hermitian input without an imaginary part is decomposed in
float64: a real symmetric matrix loses nothing there, and the real solver
is several times faster than the complex one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoConvergenceError, NotHermitianError

# Every tolerance of the package.  A relative one multiplies tol_scale(...) of the
# quantities it guards; sized for double precision up to the dimension cap (4096).
STRUCTURAL_TOL = 1e-9  # the Hermitian check; degeneracy, gap, cut and pairing tests; bound-chain slack
RECONSTRUCTION_TOL = 1e-10  # projectors, state normalization, imported dense H
ROUNDOFF_TOL = 1e-12  # exact identities: factor Hermiticity, A = B + C, norm orders; Lanczos breakdown and residual
CLOSED_MARGIN_TOL = 1e-12  # an excited-state bound whose denominator is this small is absent
ZERO_NORM = 1e-12  # absolute: a truncated ground-state component of smaller norm is empty
TIE_TOL = 1e-15  # absolute: delta_j_ent prefers a later varying site only by more than this
PSD_MARGIN_TOL = 1e-8  # PSD margin of |P_a Q| <= |P_a C Q| / delta_a in check_theorem
CERTIFICATE_SHIFT = 1e-10  # relative: the ground certificate's diagonal shift; its rounding bound must stay below it
OPTIMIZER_TOL = 1e-10  # default --tol: an optimizer run stops on a smaller per-sweep gain
TOL_ENT = 1e-6  # absolute slack on optimizer-derived entanglement against a bound
MIN_GAP = 1e-6  # smallest trusted local gap: saturate's gamma floor, the bound suite's delta_e_ent
ORACLE_EXACT_TOL = 1e-6  # absolute: optimizer against the Schmidt value, and GHZ against 1/2
ORACLE_W_TOL = 1e-4  # absolute: optimizer on the W state against 5/9
ORACLE_GRID_TOL = 1e-3  # absolute: optimizer against the Bloch-grid oracle
ZERO_COEFF = 1e-300  # absolute: dense_bipartite_model drops smaller operator-Schmidt coefficients


def tol_scale(*values) -> float:
    """max(1, |v| for every value), the scale of a relative tolerance; max() skips a NaN after 1.0."""
    return float(max(1.0, *(abs(v) for v in values)))


class NormKind(Enum):
    """Normalized unitarily invariant norms: rank-1 unit dyads have norm 1."""

    OPERATOR = "operator"
    HILBERT_SCHMIDT = "hilbert_schmidt"
    TRACE = "trace"


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending, orthonormal eigenvector columns, phase-fixed."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Singular values descending; U/V columns orthonormal, U phase-fixed."""

    singular_values: np.ndarray
    left: np.ndarray
    right: np.ndarray  # columns; matrix = left @ diag(s) @ right.conj().T

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


def _as_matrix(m, dtype=complex, finite: bool = True) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if finite and not np.all(np.isfinite(a)):  # _as_matrix(a, a.dtype) is the test alone
        raise ValueError("matrix entries must be finite")
    return a


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    a = _as_matrix(m)
    return float(np.linalg.norm(a, 2))


def _pivot_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit phase of each column's largest-magnitude entry (1 for a zero column).

    Ties in magnitude resolve to the lowest row index.
    """
    mags = np.abs(vectors)
    rows = np.argmax(mags, axis=0)
    cols = np.arange(vectors.shape[1])
    size = mags[rows, cols]
    nonzero = size > 0
    return np.where(nonzero, vectors[rows, cols] / np.where(nonzero, size, 1.0), 1.0)


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties in magnitude resolve to the lowest row index, so the output is a
    deterministic function of the input.  Real input stays real (the
    rotation is then a sign flip); anything else comes back complex.
    """
    v = np.asarray(vectors)
    if v.dtype != np.float64:
        v = v.astype(complex)
    return v * _pivot_phases(v).conj()


def _square(m, finite: bool = True) -> np.ndarray:
    """A square matrix, in float64 when it has no imaginary part; finite=False leaves its finiteness to the caller."""
    a = np.asarray(m)
    real = not np.iscomplexobj(a) or not a.imag.any()
    a = _as_matrix(a.real if real else a, dtype=float if real else complex, finite=finite)
    if a.shape[0] != a.shape[1]:
        _as_matrix(a, a.dtype)  # a non-finite entry is reported first, as with finite=True
        raise NotHermitianError(f"matrix is not square: shape {a.shape}")
    return a


def _hermitian_part(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(Hermitian part, Frobenius norm of M - M^dag) of a matrix from _square.

    An exactly Hermitian matrix (found by 128-row square tiles, no copy of M^dag) is its own Hermitian part.
    """
    if all((a[i:i + 128, j:j + 128] == a[j:j + 128, i:i + 128].conj().T).all()
           for i in range(0, len(a), 128) for j in range(i, len(a), 128)):
        return a, 0.0
    adj = a.conj().T
    asym = float(np.linalg.norm(a - adj))
    return (a if asym == 0 else (a + adj) / 2.0), asym


def _diagonal(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of a matrix whose off-diagonal entries are all exactly 0 (a NaN is not), else None."""
    off = a.reshape(-1)[1:].reshape(len(a) - 1, len(a) + 1)[:, :-1]  # past entry 0, rows of d + 1 end on the diagonal
    return None if any(off[lo:lo + 64].any() for lo in range(0, len(off), 64)) else np.diagonal(a)


def _check_hermitian(asym: float, eigenvalues: np.ndarray) -> None:
    """The Hermitian rule: ||M - M^dag||_F <= STRUCTURAL_TOL * tol_scale(max |eigenvalue|), for finite extremes."""
    if not math.isfinite(eigenvalues[0]) or not math.isfinite(eigenvalues[-1]):
        raise OverflowError(f"eigenvalues {eigenvalues[0]} to {eigenvalues[-1]} are not finite")
    scale = tol_scale(eigenvalues[0], eigenvalues[-1])
    if asym > STRUCTURAL_TOL * scale:
        raise NotHermitianError(
            f"matrix asymmetry {asym:.3e} exceeds {STRUCTURAL_TOL:.1e} * {scale:.3e}"
        )


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError unless
    ||M - M^dag||_F <= STRUCTURAL_TOL * max(1, |lam|_max), with lam the
    eigenvalues of the Hermitian part (M + M^dag) / 2.  The Frobenius norm
    is at least the operator norm and |lam|_max is at most ||M||, so the
    rule never accepts what STRUCTURAL_TOL * max(1, ||M||) in the operator
    norm would reject.  Raises NoConvergenceError if the underlying
    iteration fails.  A matrix without imaginary part is
    decomposed in float64 and gets real eigenvectors.  The returned
    eigenvectors are orthonormal columns paired with ascending eigenvalues.
    Reconstruction holds to RECONSTRUCTION_TOL * max(1, ||M||).
    """
    h, asym = _hermitian_part(_square(m))
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    _check_hermitian(asym, vals)
    return EigenDecomposition(vals, fix_phases(vecs))


def eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, under hermitian_eig's check.

    A diagonal matrix is found first and costs one pass: it is finite if its diagonal is, and its eigenvalues are
    its sorted real diagonal, what LAPACK returns, with ||M - M^dag||_F = 2 ||Im d|| and no O(d^3) solve.
    """
    a = _square(m, finite=False)
    d = _diagonal(a)  # 64-row panels, up to the first nonzero
    _as_matrix(a if d is None else d[None], a.dtype)  # finite: M, or the diagonal that is all it holds
    if d is not None:
        vals = np.sort(d.real)
        _check_hermitian(2.0 * float(np.linalg.norm(d.imag)), vals)
        return vals
    h, asym = _hermitian_part(a)
    try:
        vals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    _check_hermitian(asym, vals)
    return vals


LANCZOS_STEPS = 40  # ground_eig's Krylov dimension (all of it when d is smaller)
REFINE_STEPS = 4  # at most this many Rayleigh-Ritz steps bring a certified vector past the residual gate
CERTIFICATE_LEAF = 64  # _positive_definite factors a real block of at most this many rows with LAPACK
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclass(frozen=True, eq=False)
class GroundState:
    """What a ground-state report reads of H; degenerate means E1 - E0 <= STRUCTURAL_TOL * scale."""

    energy: float
    vector: np.ndarray
    scale: float
    degenerate: bool

    @classmethod
    def of(cls, eigenvalues: np.ndarray, vector: np.ndarray) -> GroundState:
        """From every eigenvalue (ascending) and a ground vector; scale = tol_scale(E0, lam_max)."""
        scale = tol_scale(eigenvalues[0], eigenvalues[-1])
        gap = eigenvalues[1] - eigenvalues[0] if eigenvalues.size > 1 else np.inf
        return cls(float(eigenvalues[0]), vector, scale, bool(gap <= STRUCTURAL_TOL * scale))


def ground_eig(m) -> GroundState | None:
    """The certified, non-degenerate ground state of a Hermitian matrix, or None.

    Every matrix, diagonal or not, takes one route.  Lanczos runs
    min(d, LANCZOS_STEPS) steps from a fixed seeded start with full
    reorthogonalization: psi0 is the lowest Ritz vector, e0 its Rayleigh
    quotient and r0 = ||H psi0 - e0 psi0||.  _positive_definite proves
    H + (theta_max - e0) psi0 psi0^dag - sigma0 I positive definite, with
    theta_max the top Ritz value, sigma0 = e0 + r0 + STRUCTURAL_TOL *
    tol_scale(e0 - r0, g) and g = max_i (Re H_ii + sum_{j != i} |H_ij|) >=
    lam_max.  The rank-1 term lifts one eigenvalue, so by interlacing
    E1 > sigma0, whatever psi0 is.  _refine takes psi0 to psi, with Rayleigh
    quotient E0 and residual r, through the proof's factor.  The state is
    certified when r <= ROUNDOFF_TOL * tol_scale(E0, theta_max) and
    E0 + r + STRUCTURAL_TOL * scale <= sigma0, scale = tol_scale(E0 - r, g):
    E0 is then within r of the ground energy, E1 - E0 > sigma0 - E0 >=
    STRUCTURAL_TOL * scale, and psi is within r / (sigma0 - E0) of the ground
    vector (Davis-Kahan).  theta_max <= lam_max <= g up to round-off, so no
    gate, nor the Hermitian rule at the residual's scale, is looser than at
    hermitian_eig's scale.  Otherwise None is returned and the caller falls
    back to hermitian_eig: when theta_1 <= sigma0 (theta_1 >= E1, so no proof
    can pass), when the proof fails (a degenerate ground level, diagonal or
    not), when the refined psi misses a gate, for a 1 x 1 matrix, or when g
    overflows (then before any Lanczos step, and without a RuntimeWarning).
    """
    a = _square(m, finite=False)
    return _ground_eig(a, np.random.default_rng(0).standard_normal(a.shape[0]))


def _ground_eig(a: np.ndarray, start: np.ndarray) -> GroundState | None:
    """ground_eig of a matrix from _square(m, finite=False), with the Lanczos start vector given."""
    with np.errstate(over="ignore", invalid="ignore"):
        h, asym = _hermitian_part(a)
        top = _gershgorin_top(h)
    if not math.isfinite(top):  # a non-finite entry (no pass of its own finds it) or an overflowed row sum
        _as_matrix(a, a.dtype)
        return None  # hermitian_eig raises if H's eigenvalues overflow too
    psi, ritz = _lanczos(h, start)
    h_psi = h @ psi
    e0 = float(np.vdot(psi, h_psi).real)
    r0 = float(np.linalg.norm(h_psi - e0 * psi))
    _check_hermitian(asym, (e0, ritz[-1]))
    sigma = e0 + r0 + STRUCTURAL_TOL * tol_scale(e0 - r0, top)  # the ground energy lies in [e0 - r0, e0]
    if (ritz.size < 2 or ritz[1] > sigma) and (tree := _positive_definite(h, psi, ritz[-1] - e0, sigma)) is not None:
        psi, e, r = _refine(h, tree, psi, h_psi, ritz[-1])
        scale = tol_scale(e - r, top)
        if r <= ROUNDOFF_TOL * tol_scale(e, ritz[-1]) and e + r + STRUCTURAL_TOL * scale <= sigma:
            return GroundState(e, fix_phases(psi[:, None])[:, 0], scale, False)
    return None


def _gershgorin_top(h: np.ndarray) -> float:
    """max_i (Re h_ii + sum_{j != i} |h_ij|), an upper bound on every eigenvalue of a Hermitian h."""
    diag = np.diagonal(h)  # the row sums of |h| go by 64-row tiles, with no d x d copy
    rows = np.concatenate([np.abs(h[lo:lo + 64]).sum(axis=1) for lo in range(0, len(h), 64)])
    return float(np.max(rows - np.abs(diag) + diag.real))


def _lanczos(h: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unit lowest Ritz vector, ascending Ritz values) after min(d, LANCZOS_STEPS) steps.

    Every new direction is orthogonalized twice against all previous ones,
    so the basis stays orthonormal.  The run ends early when that leaves
    less than ROUNDOFF_TOL * tol_scale(||H v||) of H v: the basis then spans
    an invariant subspace, and a further direction would be round-off.
    """
    n = h.shape[0]
    steps = min(n, LANCZOS_STEPS)
    basis = np.empty((steps, n), dtype=h.dtype)
    alpha = np.empty(steps)
    beta = np.empty(steps)
    v = start / np.linalg.norm(start)
    for j in range(steps):
        basis[j] = v
        w = h @ v
        alpha[j] = np.vdot(v, w).real
        floor = ROUNDOFF_TOL * tol_scale(np.linalg.norm(w))
        for _ in range(2):
            w -= (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]
        beta[j] = float(np.linalg.norm(w))
        if j + 1 == steps or beta[j] <= floor:  # the last step, or the basis spans an invariant subspace
            break
        v = w / beta[j]
    ritz, s = np.linalg.eigh(np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1))
    psi = s[:, 0] @ basis[: j + 1]
    return psi / np.linalg.norm(psi), ritz


def _refine(h: np.ndarray, tree: tuple, psi: np.ndarray, h_psi: np.ndarray, theta_max: float):
    """(psi, E0, r) after Rayleigh-Ritz steps on span{psi, (L L^dag)^-1 (H psi - E0 psi)}, L the tree's factor.

    A psi with r <= ROUNDOFF_TOL * tol_scale(E0, theta_max) takes no step, any other one step past that gate, at
    most REFINE_STEPS; E0 never rises (Knyazev & Neymeyr, Linear Algebra Appl. 358, 95, 2003).
    """
    past = False
    for step in range(REFINE_STEPS + 1):
        e = float(np.vdot(psi, h_psi).real)
        t = h_psi - e * psi
        r = float(np.linalg.norm(t))
        gate = r <= ROUNDOFF_TOL * tol_scale(e, theta_max)
        if past or step == REFINE_STEPS or gate and (step == 0 or r == 0.0):
            return psi, e, r
        past = gate
        _solve(tree, t)
        _solve(tree, t, adjoint=True)
        t -= np.vdot(psi, t) * psi
        t /= np.linalg.norm(t)
        h_t = h @ t  # H psi is kept as the same combination of matvecs as psi
        off = np.vdot(psi, h_t)
        s = np.linalg.eigh(np.array([[e, off], [np.conj(off), np.vdot(t, h_t).real]]))[1][:, 0]
        psi, h_psi = s[0] * psi + s[1] * t, s[0] * h_psi + s[1] * h_t


def _positive_definite(h: np.ndarray, psi: np.ndarray, c: float, sigma: float) -> tuple | None:
    """_factor's tree for M - s I if M = h + c psi psi^dag - sigma I is proved positive definite, else None.

    M - s I, s = CERTIFICATE_SHIFT * tol_scale(c, sigma), is factored by
    _factor; its top-level blocks are built from slices of h, so no d x d
    copy of M is ever held.  With L the computed factor, M = L L^dag + s I - E,
    so M is positive definite once ||E||_2 < s: Rump's shifted Cholesky test
    (BIT Numer. Math. 46, 433, 2006), with _Rounding's a posteriori bound on
    ||E||_2 in place of his a priori gamma_{d+1} tr(M), several times larger
    at d = 1024.  A leaf that fails to factor, or a bound that reaches s,
    gives None.
    """
    k = h.shape[0] // 2
    top, bottom = slice(None, k), slice(k, None)
    shift = CERTIFICATE_SHIFT * tol_scale(c, sigma)
    rounding = _Rounding(h, abs(c) + abs(sigma) + shift)

    def block(rows, cols):
        out = np.multiply.outer(psi[rows], c * psi[cols].conj())
        out += h[rows, cols]
        if rows == cols:
            out.flat[:: out.shape[0] + 1] -= sigma + shift
        rounding.formed_sq += (1 if rows == cols else 2) * np.vdot(out, out).real
        return out

    try:
        x = block(top, bottom)
        left = _factor(block(top, top), rounding)
        _solve(left, x, rounding)
        schur = block(bottom, bottom)
        for lo in range(0, len(schur), CERTIFICATE_LEAF):  # by row panels: no second d/2 x d/2 array
            schur[lo:lo + CERTIFICATE_LEAF] -= x[:, lo:lo + CERTIFICATE_LEAF].conj().T @ x
        tree = left, x, _factor(schur, rounding)
    except np.linalg.LinAlgError:
        return None
    return tree if rounding.total() < shift else None


def _factor(n: np.ndarray, rounding: _Rounding):
    """The Cholesky factor L of the Hermitian block n, as a tree for _solve; overwrites n.

    A block of at most CERTIFICATE_LEAF rows, half as many if complex, is a
    leaf: np.linalg.cholesky, then Z = np.linalg.solve(L, I), as (Z,
    _Rounding.leaf's w).  OpenBLAS factors such a block on one thread, so for
    a power-of-two d the tree, and a vector refined through it, do not
    depend on the BLAS thread count.  A larger one, [[N11, N12], [N12^dag,
    N22]], factors N11, overwrites N12 with X = L11^-1 N12 and recurses on
    N22 - X^dag X, so every update is a GEMM; its node is (left tree, X,
    right tree).  Raises LinAlgError.
    """
    if len(n) <= (CERTIFICATE_LEAF // 2 if np.iscomplexobj(n) else CERTIFICATE_LEAF):
        factor = np.linalg.cholesky(n)
        return rounding.leaf(factor, np.linalg.solve(factor, np.eye(len(n), dtype=factor.dtype)))
    k = len(n) // 2
    left = _factor(n[:k, :k], rounding)
    x = n[:k, k:]
    _solve(left, x, rounding)
    n[k:, k:] -= x.conj().T @ x
    return left, x, _factor(n[k:, k:], rounding)


def _solve(tree: tuple, p: np.ndarray, rounding: _Rounding | None = None, adjoint: bool = False) -> None:
    """p <- L^-1 p, or L^-dag p if adjoint, in place, for a tree's factor L = [[L11, 0], [X^dag, L22]].

    Only the certificate's own solves pass a rounding to account for.
    """
    if len(tree) == 3:
        left, x, right = tree
        head, tail = p[: len(x)], p[len(x):]
        (first, a), (second, b) = ((right, tail), (left, head)) if adjoint else ((left, head), (right, tail))
        _solve(first, a, rounding, adjoint)
        b -= (x if adjoint else x.conj().T) @ a
        _solve(second, b, rounding, adjoint)
        return
    inverse, weight = tree
    if rounding is not None:
        rounding.products_sq += (weight * np.linalg.norm(p)) ** 2
    p[...] = (inverse.conj().T if adjoint else inverse) @ p
    if rounding is not None:
        rounding.x_abs += _abs_norm_sq(p)


def _abs_norm_sq(a: np.ndarray) -> float:
    """||a||_1 ||a||_inf, an upper bound on || |a| ||_2^2; 0 for an empty a (the top block of a 1 x 1 H)."""
    m = np.abs(a)
    return float(m.sum(axis=0).max(initial=0.0) * m.sum(axis=1).max(initial=0.0))


class _Rounding:
    """A running a posteriori bound on ||E||_2, E = L L^dag - (M - s I), for _positive_definite.

    From Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.,
    2002), with gamma_n = n u / (1 - n u), n two larger for complex data
    (Lemma 3.5), and || |A| ||_2^2 <= ||A||_1 ||A||_inf:
    - forming M - s I and the Schur updates, each entry an inner product of
      at most d terms in some order (ch. 3): gamma_{d+6} (|c| + |sigma| + s
      + 2 ||M||_F + the sum of || |X| ||_2^2 over the solved blocks X);
    - each leaf's Cholesky, |L L^dag - S| <= gamma_{b+1} |L| |L^dag|
      (Theorem 10.3), block-diagonal in E, so the largest counts;
    - each X = fl(Z P), which leaves L X - P = (L Z - I) P + L dG in an
      off-diagonal block of E, |dG| <= gamma_b |Z| |P| (ch. 3); L Z - I is
      measured, within gamma_b |L| |Z| (ch. 8), so ||L X - P|| <= w ||P||_F.
      These blocks and their adjoints add 2 (sum of w^2 ||P||_F^2)^(1/2).
    The total is doubled, for second-order terms and the rounding of the bound itself.
    """

    def __init__(self, h: np.ndarray, scalars: float):
        self.extra = 2 if np.iscomplexobj(h) else 0
        self.dim = h.shape[0]
        self.scalars = scalars  # |c| + |sigma| + s
        self.formed_sq = 0.0  # ||M - s I||_F^2, as formed
        self.x_abs = 0.0
        self.leaves = 0.0
        self.products_sq = 0.0

    def gamma(self, n: int) -> float:
        n += self.extra
        return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)

    def leaf(self, factor: np.ndarray, inverse: np.ndarray) -> tuple:
        """Account for a leaf's Cholesky factor L and its inverse Z; returns (Z, w)."""
        b = len(factor)
        factor_abs = _abs_norm_sq(factor)
        self.leaves = max(self.leaves, self.gamma(b + 1) * factor_abs)
        residual = factor @ inverse
        residual.flat[:: b + 1] -= 1.0
        return inverse, float(np.linalg.norm(residual)) + 2.0 * self.gamma(b) * np.sqrt(
            factor_abs * _abs_norm_sq(inverse))

    def total(self) -> float:
        schur = self.gamma(self.dim + 6) * (self.scalars + 2.0 * np.sqrt(self.formed_sq) + self.x_abs)
        return 2.0 * (schur + self.leaves + 2.0 * np.sqrt(self.products_sq))


def svd(m) -> SVDResult:
    """Singular value decomposition with the package phase convention.

    Left singular vectors are phase-fixed; the compensating phase moves to
    the right vectors, so reconstruction is unaffected.
    """
    a = _as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    phases = _pivot_phases(u)
    return SVDResult(s, u * phases.conj(), (vh * phases[:, None]).conj().T)


def singular_values(m) -> np.ndarray:
    """Singular values, descending."""
    a = _as_matrix(m)
    return np.linalg.svd(a, compute_uv=False)


def operator_abs(d: SVDResult) -> np.ndarray:
    """Operator absolute value sqrt(S S^dag), a Hermitian PSD matrix, from the SVD of S."""
    return (d.left * d.singular_values) @ d.left.conj().T


def _require_hermitian(m) -> None:
    """hermitian_eig's Hermitian check, solving only when the asymmetry alone cannot settle it.

    The rule's scale is at least 1, so ||M - M^dag||_F <= STRUCTURAL_TOL
    passes it whatever the eigenvalues are.
    """
    a = _square(m)
    if np.linalg.norm(a - a.conj().T) > STRUCTURAL_TOL:
        eigvalsh(a)


def psd_leq(s, t, tol: float = STRUCTURAL_TOL) -> tuple[bool, float]:
    """Test S <= T in the PSD order; returns (holds, margin).

    S and T must each pass hermitian_eig's Hermitian check.  margin is the
    smallest eigenvalue of T - S; the order holds when
    margin >= -tol * max(1, ||T - S||), the norm taken as the largest
    eigenvalue magnitude of the Hermitian part of T - S.
    """
    a = _as_matrix(s)
    b = _as_matrix(t)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"incompatible shapes {a.shape} vs {b.shape}")
    _require_hermitian(a)
    _require_hermitian(b)
    diff = b - a
    diff = (diff + diff.conj().T) / 2.0
    vals = np.linalg.eigvalsh(diff)
    margin = float(vals[0])
    holds = margin >= -tol * tol_scale(margin, vals[-1])
    return holds, margin


def sv_norm(sv: np.ndarray, kind: NormKind) -> float:
    """Normalized unitarily invariant norm from descending singular values.

    OPERATOR: largest singular value; HILBERT_SCHMIDT: sqrt of the sum of
    squared singular values; TRACE: sum of singular values.
    """
    if kind is NormKind.OPERATOR:
        return float(sv[0]) if sv.size else 0.0
    if kind is NormKind.HILBERT_SCHMIDT:
        return float(np.sqrt(np.sum(sv * sv)))
    if kind is NormKind.TRACE:
        return float(np.sum(sv))
    raise ValueError(f"unknown norm kind: {kind!r}")


def ui_norm(s, kind: NormKind) -> float:
    """Normalized unitarily invariant norm of a matrix (see sv_norm)."""
    return sv_norm(singular_values(s), kind)


def sv_dominance(sv_s: np.ndarray, sv_t: np.ndarray, tol: float) -> bool:
    """True iff sv_s[k] <= sv_t[k] + tol for all k (both descending, same length).

    For the singular values of S and T this is the checkable certificate for
    the existential statement "there is a unitary U with |S| <= U |T| U^dag":
    sorted singular-value dominance is necessary (Weyl ordering under the PSD
    order) and sufficient (align the eigenbases).
    """
    return bool(np.all(sv_s <= sv_t + tol))


def appendix_norm_check(s) -> bool:
    """Operator norm <= Hilbert-Schmidt norm <= trace norm, within ROUNDOFF_TOL * max(1, trace norm)."""
    sv = singular_values(s)
    if sv.size == 0:
        return True
    op, hs, tr = (sv_norm(sv, kind) for kind in NormKind)
    slack = ROUNDOFF_TOL * tol_scale(tr)
    return op <= hs + slack and hs <= tr + slack


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary, deterministic given the generator state."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
