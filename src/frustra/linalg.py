"""Dense matrix kernel.

Hermitian eigendecomposition with two cheaper variants (eigenvalues only,
and a certified ground state), SVD, operator absolute value, the
positive-semidefinite (PSD) ordering test, the three normalized
unitarily invariant norms (operator, Hilbert-Schmidt, trace), and sorted
dominance between two lists of singular values.  Everything downstream
(local spectra, frustration energies, the perturbation checks) is built on
these few operations.

The PSD-order test converts and checks each input once.  The ground variant finds a NaN or inf in its Gershgorin row
sums, computes no full spectrum, and takes one route whatever the matrix: a
proof that a shifted, rank-1-lifted H is positive definite certifies, by
interlacing, that the next eigenvalue lies above a LANCZOS_STEPS-step
Lanczos vector's E0 + r + STRUCTURAL_TOL * scale (a recursive block Cholesky
with LAPACK leaves and GEMM updates, whose a posteriori rounding bound stays
below a further CERTIFICATE_SHIFT), and Rayleigh-Ritz steps through that
factor take the vector's residual to round-off.  Any refusal (a degenerate
or unresolved ground level, a failed proof or refinement) gives nothing, and
the caller then falls back to the full decomposition.

hermitian_eig, eigvalsh, svd, singular_values, op_norm, frobenius_norm, psd_leq and fix_phases also take a (k, d, d)
stack, and the Hermitian solvers see a matrix as a stack of one, a view: every check runs per member on one path, and
LAPACK takes one call in one kind, float64 when no member has an imaginary part and complex otherwise.  Each member of
a one-kind stack gets, bit for bit, what a call on it alone gets; in a stack that mixes kinds a member without an
imaginary part is solved in complex, and matches its own call to round-off.

All functions are pure and deterministic for identical input: eigenvalues
come back ascending, singular values descending, and every returned
eigen/singular vector carries a fixed phase convention (largest-magnitude
entry real and positive) so vector-valued results are reproducible
across runs.  Hermitian input without an imaginary part is decomposed in
float64: a real symmetric matrix loses nothing there, and the real solver
is several times faster than the complex one.
"""

from __future__ import annotations

import functools
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
STACK_ENTRIES = 2**14  # matrix entries (members x d x d) of a stacked solve (at least one member), 256 KiB complex


def tol_scale(*values) -> float | np.ndarray:
    """max(1, |v| for every value), the scale of a relative tolerance, member by member when a value is an array;
    a NaN is skipped, as max() skips one after 1.0."""
    if any(getattr(v, "ndim", 0) for v in values):
        return functools.reduce(np.fmax, map(np.abs, values), 1.0)
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
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Singular values descending; U/V columns orthonormal, U phase-fixed."""

    singular_values: np.ndarray
    left: np.ndarray
    right: np.ndarray  # columns; matrix = left @ diag(s) @ right.conj().T

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values[..., None, :]) @ self.right.conj().swapaxes(-1, -2)


def _as_matrix(m, dtype=complex, finite: bool = True, stack: bool = False) -> np.ndarray:
    """m as a 2-d array of dtype, or with stack=True also a (k, d, d) stack, checked non-empty and finite."""
    a = np.asarray(m, dtype=dtype)
    if a.ndim not in ((2, 3) if stack else (2,)) or 0 in a.shape:
        raise ValueError(f"expected a 2-d matrix{' or a stack of them' if stack else ''}, got shape {a.shape}")
    if finite:
        _require_finite(a)
    return a


def _require_finite(*arrays) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError("matrix entries must be finite")


def op_norm(m) -> float | np.ndarray:
    """Operator (spectral) norm: the largest singular value, of a matrix or of each member of a stack."""
    top = singular_values(m)[..., 0]
    return float(top) if top.ndim == 0 else top


def frobenius_norm(m) -> np.ndarray:
    """Frobenius norm of a matrix or of each member of a stack, with np.linalg.norm's bits on each row-major one."""
    flat = np.ascontiguousarray(m).reshape(np.shape(m)[:-2] + (-1,))  # np.linalg.norm sums a contiguous copy
    if np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return np.sqrt(np.vecdot(flat, flat))  # no zero imaginary copy


def _pivot_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit phase of each column's largest-magnitude entry (1 for a zero column), per member of a stack.

    Ties in magnitude resolve to the lowest row index.
    """
    v = vectors.reshape((-1,) + vectors.shape[-2:])
    mags = np.abs(v)
    pick = np.arange(len(v))[:, None], mags.argmax(axis=1), np.arange(v.shape[2])
    size = mags[pick]
    nonzero = size > 0
    return np.where(nonzero, v[pick] / np.where(nonzero, size, 1.0), 1.0).reshape(vectors.shape[:-2] + (-1,))


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties in magnitude resolve to the lowest row index, so the output is a
    deterministic function of the input.  Real input stays real (the
    rotation is then a sign flip); anything else comes back complex.
    """
    v = np.asarray(vectors)
    if v.dtype != np.float64:
        v = v.astype(complex, copy=False)  # the phase product below makes the output
    return v * _pivot_phases(v).conj()[..., None, :]


def _square(m, finite: bool = True, stack: bool = False) -> np.ndarray:
    """m as a (k, d, d) stack, a matrix as a stack of one (a view); float64 when no member has an imaginary part.

    finite=False leaves finiteness to the caller.
    """
    a = np.asarray(m)
    complex_ = np.iscomplexobj(a)
    a = _as_matrix(a, complex if complex_ else float, finite, stack)
    if a.shape[-2] != a.shape[-1]:
        _require_finite(a)  # a non-finite entry is reported first, as with finite=True
        raise NotHermitianError(f"matrix is not square: shape {a.shape}")
    s = a.reshape((-1,) + a.shape[-2:])
    return s.real if complex_ and not s.imag.any() else s


def _hermitian_part(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Hermitian part, Frobenius norm of M - M^dag) of each member of a stack from _square.

    An exactly Hermitian member is its own Hermitian part, found with no copy of M^dag: up to d = 128 every member is
    tested at once, a larger one by 128-row square tiles.  So is a member whose asymmetry underflows to 0.
    """
    exact = (s == s.conj().swapaxes(1, 2)).all(axis=(1, 2)) if s.shape[-1] <= 128 else np.array([all(
        (x[i:i + 128, j:j + 128] == x[j:j + 128, i:i + 128].conj().T).all()
        for i in range(0, len(x), 128) for j in range(i, len(x), 128)) for x in s])
    asym = np.zeros(len(s)) if exact.all() else frobenius_norm(s - s.conj().swapaxes(1, 2))
    if not asym.any():
        return s, asym
    half = (asym != 0)[:, None, None]
    h = s.copy()  # (M + M^dag) / 2 in place on the members with an asymmetry: no second stack temporary
    np.conjugate(s.swapaxes(1, 2), out=h, where=half)
    np.add(h, s, out=h, where=half)
    np.divide(h, 2.0, out=h, where=half)
    return h, asym


def _check_hermitian(asym: np.ndarray, eigenvalues: np.ndarray) -> None:
    """The Hermitian rule, member by member: ||M - M^dag||_F <= STRUCTURAL_TOL * tol_scale(max |eigenvalue|), finite."""
    if asym.max() <= STRUCTURAL_TOL and np.isfinite(eigenvalues).all():
        return  # the rule's scale is at least 1
    for a, lo, hi in zip(asym, eigenvalues[:, 0], eigenvalues[:, -1]):
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise OverflowError(f"eigenvalues {lo} to {hi} are not finite")
        if a > STRUCTURAL_TOL * (scale := tol_scale(lo, hi)):
            raise NotHermitianError(f"matrix asymmetry {a:.3e} exceeds {STRUCTURAL_TOL:.1e} * {scale:.3e}")


def _lapack(solve, *args, **kwargs):
    """solve(*args, **kwargs), a LAPACK failure raised as NoConvergenceError."""
    try:
        return solve(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError unless
    ||M - M^dag||_F <= STRUCTURAL_TOL * max(1, |lam|_max), with lam the
    eigenvalues of the Hermitian part (M + M^dag) / 2.  The Frobenius norm
    is at least the operator norm and |lam|_max is at most ||M||, so the
    rule never accepts what STRUCTURAL_TOL * max(1, ||M||) in the operator
    norm would reject.  Raises NoConvergenceError if the underlying
    iteration fails.  A call with no imaginary part in any member is
    decomposed in float64 and gets real eigenvectors, any other in complex:
    a real member of a mixed stack matches its own call to round-off.  The returned
    eigenvectors are orthonormal columns paired with ascending eigenvalues.
    Reconstruction holds to RECONSTRUCTION_TOL * max(1, ||M||).
    """
    s = _square(m, stack=True)
    h, asym = _hermitian_part(s)
    vals, vecs = _lapack(np.linalg.eigh, h)
    _check_hermitian(asym, vals)
    return EigenDecomposition(vals.reshape(np.shape(m)[:-1]), fix_phases(vecs).reshape(np.shape(m)))


def eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each member of a stack, under hermitian_eig's check."""
    s = _square(m, stack=True)
    h, asym = _hermitian_part(s)
    vals = _lapack(np.linalg.eigvalsh, h)
    _check_hermitian(asym, vals)
    return vals.reshape(np.shape(m)[:-1])


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
    s = _square(m, finite=False)
    return _ground_eig(s[0], np.random.default_rng(0).standard_normal(s.shape[-1]))


def _ground_eig(a: np.ndarray, start: np.ndarray) -> GroundState | None:
    """ground_eig of the matrix in _square(m, finite=False)'s stack of one, with the Lanczos start vector given."""
    with np.errstate(over="ignore", invalid="ignore"):
        (h,), asym = _hermitian_part(a[None])
        top = _gershgorin_top(h)
    if not math.isfinite(top):  # a non-finite entry (no pass of its own finds it) or an overflowed row sum
        _require_finite(a)
        return None  # hermitian_eig raises if H's eigenvalues overflow too
    psi, ritz = _lanczos(h, start)
    h_psi = h @ psi
    e0 = float(np.vdot(psi, h_psi).real)
    r0 = float(np.linalg.norm(h_psi - e0 * psi))
    _check_hermitian(asym, np.array([[e0, ritz[-1]]]))
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
    ritz, s = _lapack(np.linalg.eigh, np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1))
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
        s = _lapack(np.linalg.eigh, np.array([[e, off], [np.conj(off), np.vdot(t, h_t).real]]))[1][:, 0]
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
    u, s, vh = _lapack(np.linalg.svd, _as_matrix(m, stack=True), full_matrices=False)
    phases = _pivot_phases(u)
    return SVDResult(s, u * phases.conj()[..., None, :], (vh * phases[..., :, None]).conj().swapaxes(-1, -2))


def singular_values(m) -> np.ndarray:
    """Singular values, descending, of a matrix or of each member of a stack."""
    return _lapack(np.linalg.svd, _as_matrix(m, stack=True), compute_uv=False)


def operator_abs(d: SVDResult) -> np.ndarray:
    """Operator absolute value sqrt(S S^dag), a Hermitian PSD matrix, from the SVD of S (or of each member)."""
    return (d.left * d.singular_values[..., None, :]) @ d.left.conj().swapaxes(-1, -2)


def psd_leq(s, t, tol: float = STRUCTURAL_TOL) -> tuple[bool, float] | tuple[np.ndarray, np.ndarray]:
    """Test S <= T in the PSD order, of two matrices or member by member of two stacks; returns (holds, margin).

    S and T must each pass hermitian_eig's Hermitian check.  Each is converted and tested for finiteness once, and
    the rule's scale is at least 1, so only a member with ||M - M^dag||_F > STRUCTURAL_TOL goes on to the rule.
    margin is the smallest eigenvalue of T - S; the order holds when margin >= -tol * max(1, ||T - S||), the norm
    taken as the largest eigenvalue magnitude of the Hermitian part of T - S.
    """
    a, b = _as_matrix(s, stack=True), _as_matrix(t, stack=True)
    if a.shape != b.shape or a.shape[-2] != a.shape[-1]:
        raise NotHermitianError(f"incompatible shapes {a.shape} vs {b.shape}")
    for x in (a, b):
        if (past := frobenius_norm(x - x.conj().swapaxes(-1, -2)) > STRUCTURAL_TOL).any():
            h, asym = _hermitian_part(x.reshape((-1,) + x.shape[-2:])[past.reshape(-1)])
            _check_hermitian(asym, _lapack(np.linalg.eigvalsh, h))
    diff = b - a
    diff = (diff + diff.conj().swapaxes(-1, -2)) / 2.0
    vals = _lapack(np.linalg.eigvalsh, diff)
    margin, top = vals[..., 0], vals[..., -1]
    holds = margin >= -tol * tol_scale(margin, top)
    return (bool(holds), float(margin)) if a.ndim == 2 else (holds, margin)


def sv_norm(sv: np.ndarray, kind: NormKind) -> float | np.ndarray:
    """Normalized unitarily invariant norm from descending singular values, or of each row of a stack of them.

    OPERATOR: largest singular value; HILBERT_SCHMIDT: sqrt of the sum of
    squared singular values; TRACE: sum of singular values.
    """
    if kind is NormKind.OPERATOR:
        norm = sv[..., 0] if sv.shape[-1] else np.zeros(sv.shape[:-1])
    elif kind is NormKind.HILBERT_SCHMIDT:
        norm = np.sqrt(np.sum(sv * sv, axis=-1))
    elif kind is NormKind.TRACE:
        norm = np.sum(sv, axis=-1)
    else:
        raise ValueError(f"unknown norm kind: {kind!r}")
    return float(norm) if np.ndim(norm) == 0 else norm


def ui_norm(s, kind: NormKind) -> float:
    """Normalized unitarily invariant norm of a matrix (see sv_norm)."""
    return sv_norm(singular_values(s), kind)


def sv_dominance(sv_s: np.ndarray, sv_t: np.ndarray, tol) -> bool | np.ndarray:
    """True iff sv_s[k] <= sv_t[k] + tol for all k (both descending, same length), or per row of stacks, tol per row.

    For the singular values of S and T this is the checkable certificate for
    the existential statement "there is a unitary U with |S| <= U |T| U^dag":
    sorted singular-value dominance is necessary (Weyl ordering under the PSD
    order) and sufficient (align the eigenbases).
    """
    holds = np.all(sv_s <= sv_t + np.asarray(tol)[..., None], axis=-1)
    return bool(holds) if holds.ndim == 0 else holds


def appendix_norm_check(s) -> bool:
    """Operator norm <= Hilbert-Schmidt norm <= trace norm, within ROUNDOFF_TOL * max(1, trace norm)."""
    sv = singular_values(s)
    op, hs, tr = (sv_norm(sv, kind) for kind in NormKind)
    slack = ROUNDOFF_TOL * tol_scale(tr)
    return op <= hs + slack and hs <= tr + slack


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary, deterministic given the generator state."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
