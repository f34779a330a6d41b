"""Dense matrix kernel.

Hermitian eigendecomposition (with an eigenvalues-only variant), SVD,
operator absolute value, the positive-semidefinite (PSD) ordering test,
and the three normalized unitarily invariant norms (operator,
Hilbert-Schmidt, trace).  Everything downstream (local spectra,
frustration energies, canonical angles) is built on these few operations.

All functions are pure and deterministic for identical input: eigenvalues
come back ascending, singular values descending, and every returned
eigen/singular vector carries a fixed phase convention (largest-magnitude
entry real and positive) so vector-valued results are reproducible
across runs.  Hermitian input without an imaginary part is decomposed in
float64: a real symmetric matrix loses nothing there, and the real solver
is several times faster than the complex one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoConvergenceError, NotHermitianError

# Every tolerance of the package.  A relative one multiplies tol_scale(...) of the
# quantities it guards; sized for double precision up to the dimension cap (4096).
STRUCTURAL_TOL = 1e-9  # the Hermitian check; degeneracy, gap, cut and pairing tests; bound-chain slack
RECONSTRUCTION_TOL = 1e-10  # projectors, state normalization, Hermiticity of an imported dense H
ROUNDOFF_TOL = 1e-12  # exact identities: factor Hermiticity, A = B + C, norm orders
CLOSED_MARGIN_TOL = 1e-12  # an excited-state bound whose denominator is this small is absent
ZERO_NORM = 1e-12  # absolute: a truncated ground-state component of smaller norm is empty
TIE_TOL = 1e-15  # absolute: delta_j_ent prefers a later varying site only by more than this
PSD_MARGIN_TOL = 1e-8  # PSD margin of |P_a Q| <= |P_a C Q| / delta_a in check_theorem
VALUE_MATCH_TOL = 1e-8  # hermitian_instance matches a requested eigenvalue within this
OPTIMIZER_TOL = 1e-10  # default --tol: an optimizer run stops on a smaller per-sweep gain
TOL_ENT = 1e-6  # absolute slack on optimizer-derived entanglement against a bound
MIN_GAP = 1e-6  # smallest trusted local gap: saturate's gamma floor, the bound suite's delta_e_ent
COSINE_TOL = 1e-6  # absolute: a canonical cosine above 1 + this is an error, not round-off
ORACLE_EXACT_TOL = 1e-6  # absolute: optimizer against the Schmidt value, and GHZ against 1/2
ORACLE_W_TOL = 1e-4  # absolute: optimizer on the W state against 5/9
ORACLE_GRID_TOL = 1e-3  # absolute: optimizer against the Bloch-grid oracle
ZERO_COEFF = 1e-300  # absolute: dense_bipartite_model drops smaller expansion coefficients


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


def _as_matrix(m, dtype=complex) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
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


def _hermitian_part(m) -> tuple[np.ndarray, float]:
    """(Hermitian part, Frobenius norm of M - M^dag) of a square matrix.

    A matrix without imaginary part is handled in float64.
    """
    a = np.asarray(m)
    real = not np.iscomplexobj(a) or not a.imag.any()
    a = _as_matrix(a.real if real else a, dtype=float if real else complex)
    if a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"matrix is not square: shape {a.shape}")
    adj = a.conj().T
    return (a + adj) / 2.0, float(np.linalg.norm(a - adj))


def _check_hermitian(asym: float, eigenvalues: np.ndarray) -> None:
    """The Hermitian rule: ||M - M^dag||_F <= STRUCTURAL_TOL * tol_scale(max |eigenvalue|)."""
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
    h, asym = _hermitian_part(m)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    _check_hermitian(asym, vals)
    return EigenDecomposition(vals, fix_phases(vecs))


def eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, under hermitian_eig's check."""
    h, asym = _hermitian_part(m)
    try:
        vals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    _check_hermitian(asym, vals)
    return vals


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


def operator_abs(s) -> np.ndarray:
    """Operator absolute value sqrt(S S^dag), a Hermitian PSD matrix."""
    a = _as_matrix(s)
    if a.shape[0] != a.shape[1]:
        raise ValueError("operator absolute value requires a square matrix")
    d = svd(a)
    return (d.left * d.singular_values) @ d.left.conj().T


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
    eigvalsh(a)
    eigvalsh(b)
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
    """True iff sv_s[k] <= sv_t[k] + tol for all k (both descending, same length)."""
    return bool(np.all(sv_s <= sv_t + tol))


def singular_dominance(s, t, tol: float = ROUNDOFF_TOL) -> bool:
    """True iff sigma_k(S) <= sigma_k(T) + tol for all k (both descending).

    This is the checkable certificate for the existential statement
    "there is a unitary U with |S| <= U |T| U^dag": sorted singular-value
    dominance is necessary (Weyl ordering under the PSD order) and
    sufficient (align the eigenbases).
    """
    a = _as_matrix(s)
    b = _as_matrix(t)
    if a.shape != b.shape:
        raise ValueError(f"incompatible shapes {a.shape} vs {b.shape}")
    return sv_dominance(singular_values(a), singular_values(b), tol)


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
