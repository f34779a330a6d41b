"""Numerical certification of a single-eigenvalue subspace perturbation bound.

For A = B + C (A, B normal), an eigenvalue a of A with eigenprojector
(or sub-projector) P_a, and a set beta of B's eigenvalues with combined
projector Q, the operator inequalities

    |P_a Q| <= |P_a C Q| / Delta_a  and  |P_a C Q| <= U |C| U^dag

hold with Delta_a = min_{b in beta} |a - b| and some unitary U.  The first
is checked directly in the PSD order; the second through its equivalent
certificate of sorted singular-value dominance.  Both imply the chain
|||P_a Q||| <= |||P_a C Q||| / Delta_a <= |||C||| / Delta_a for every
normalized unitarily invariant norm, checked here for the operator,
Hilbert-Schmidt and trace norms.  The singular values of P_a Q are the
cosines of the canonical angles between the two subspaces.

Applied to H = H_L + H_I with P the projector onto an eigenstate of H and
Q the projector onto the product states outside a product subspace, the
chain bounds the eigenstate's weight outside the subspace and with it the
eigenstate's entanglement.

Instances are validated by residuals in the Frobenius norm: Hermiticity
and idempotency of each projector (within RECONSTRUCTION_TOL * max(1, ||P||)),
the eigenspace residual P_a A - a P_a and the commutator [Q, B] (within
STRUCTURAL_TOL * max(1, ||A||)).  The Frobenius norm is at least the
spectral norm, so these tests accept nothing a spectral-norm test at the
same tolerance would reject, and they need no SVD.  The checks allow
PSD_MARGIN_TOL in the PSD order and STRUCTURAL_TOL in the norm chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import entanglement as ent
from .bounds import (
    DEFAULT_ENT_OPTS,
    EntanglementOptions,
    ProductSubspace,
    eigenstate_setup,
    local_coefficients,
    multipartite_entanglement,
    outside_subspace,
)
from .errors import DegenerateSeparationError, NotProjectorError
from .linalg import (
    COSINE_TOL, PSD_MARGIN_TOL, RECONSTRUCTION_TOL, ROUNDOFF_TOL, STRUCTURAL_TOL, TOL_ENT,
    VALUE_MATCH_TOL, NormKind, hermitian_eig, op_norm, operator_abs, psd_leq, singular_values,
    sv_dominance, sv_norm, tol_scale,
)
from .models import Splitting


def _check_projector(p: np.ndarray, name: str) -> None:
    tol = RECONSTRUCTION_TOL * tol_scale(op_norm(p))
    if np.linalg.norm(p - p.conj().T) > tol:
        raise NotProjectorError(f"{name} is not Hermitian within {RECONSTRUCTION_TOL:g}")
    if np.linalg.norm(p @ p - p) > tol:
        raise NotProjectorError(f"{name} is not idempotent within {RECONSTRUCTION_TOL:g}")


@dataclass(frozen=True, eq=False)
class PerturbationInstance:
    """One (A, B, C, a, P_a, beta, Q) tuple ready for the theorem checks."""

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray
    a_value: complex
    p_a: np.ndarray
    beta_values: tuple[complex, ...]
    q: np.ndarray
    delta_a: float

    @cached_property
    def scale(self) -> float:
        """max(1, ||A||), the scale of every tolerance on this instance."""
        return tol_scale(op_norm(self.a_matrix))

    def validate(self) -> None:
        scale = self.scale
        if np.max(np.abs(self.a_matrix - self.b_matrix - self.c_matrix)) > ROUNDOFF_TOL * scale:
            raise ValueError("A != B + C beyond tolerance")
        _check_projector(self.p_a, "P_a")
        _check_projector(self.q, "Q")
        tol = STRUCTURAL_TOL * scale
        if np.linalg.norm(self.p_a @ self.a_matrix - self.a_value * self.p_a) > tol:
            raise ValueError("P_a does not project into the a-eigenspace of A")
        if np.linalg.norm(self.q @ self.b_matrix - self.b_matrix @ self.q) > tol:
            raise ValueError("Q does not commute with B")
        if self.delta_a <= 0:
            raise DegenerateSeparationError("delta_a must be positive")


def _cluster_projector(values: np.ndarray, vectors: np.ndarray, index: int, scale: float):
    """Projector onto the eigenvalue cluster containing the given index."""
    target = values[index]
    members = np.flatnonzero(np.abs(values - target) <= STRUCTURAL_TOL * scale)
    cols = vectors[:, members]
    return cols @ cols.conj().T, complex(target)


def _value_index(values: np.ndarray, target: float, scale: float) -> int:
    idx = int(np.argmin(np.abs(values - target)))
    if abs(values[idx] - target) > VALUE_MATCH_TOL * scale:
        raise ValueError(f"no eigenvalue within {VALUE_MATCH_TOL:g} * scale of {target}")
    return idx


def hermitian_instance(
    b: np.ndarray,
    c: np.ndarray,
    a_select: int | str | tuple = "ground",
    beta_select: str | Sequence[int] | tuple = "upper_half",
) -> PerturbationInstance:
    """Instance builder for Hermitian B and C (A = B + C solved internally).

    ``a_select`` is "ground", an eigenvalue index of A, or ("value", x)
    matching an eigenvalue to within VALUE_MATCH_TOL * scale;
    ``beta_select`` is "upper_half", explicit eigenvalue indices of B, or
    ("values", [...]) with the same matching rule.  The a-projector covers
    the whole near-degenerate cluster at the selected eigenvalue so it
    remains a valid eigenprojector under round-off.
    """
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    a = b + c
    dec_a = hermitian_eig(a)
    dec_b = hermitian_eig(b)
    n = dec_a.eigenvalues.size
    scale = tol_scale(dec_a.eigenvalues[0], dec_a.eigenvalues[-1])

    if a_select == "ground":
        idx = 0
    elif isinstance(a_select, tuple) and a_select[0] == "value":
        idx = _value_index(dec_a.eigenvalues, float(a_select[1]), scale)
    else:
        idx = int(a_select)
    p_a, a_value = _cluster_projector(dec_a.eigenvalues, dec_a.eigenvectors, idx, scale)

    if isinstance(beta_select, str):
        if beta_select != "upper_half":
            raise ValueError(f"unknown beta selector {beta_select!r}")
        beta_idx = list(range(n // 2, n))
    elif isinstance(beta_select, tuple) and beta_select and beta_select[0] == "values":
        b_scale = tol_scale(dec_b.eigenvalues[0], dec_b.eigenvalues[-1])
        beta_idx = sorted({_value_index(dec_b.eigenvalues, float(v), b_scale)
                           for v in beta_select[1]})
    else:
        beta_idx = [int(i) for i in beta_select]
    cols = dec_b.eigenvectors[:, beta_idx]
    q = cols @ cols.conj().T
    beta_values = tuple(complex(dec_b.eigenvalues[i]) for i in beta_idx)
    delta = float(min(abs(a_value - bv) for bv in beta_values))
    inst = PerturbationInstance(a, b, c, a_value, p_a, beta_values, q, delta)
    inst.validate()
    return inst


def shared_basis_instance(
    u: np.ndarray,
    a_diag: Sequence[complex],
    b_diag: Sequence[complex],
    a_index: int,
    beta_indices: Sequence[int],
) -> PerturbationInstance:
    """Normal (possibly non-Hermitian) instance built by construction.

    A = U diag(a) U^dag and B = U diag(b) U^dag share the eigenbasis U, so
    eigenprojectors are known columns and no normal-matrix eigensolver is
    needed; C is the difference.
    """
    u = np.asarray(u, dtype=complex)
    a_diag = np.asarray(a_diag, dtype=complex)
    b_diag = np.asarray(b_diag, dtype=complex)
    a = (u * a_diag) @ u.conj().T
    b = (u * b_diag) @ u.conj().T
    c = a - b
    col = u[:, a_index:a_index + 1]
    p_a = col @ col.conj().T
    cols = u[:, list(beta_indices)]
    q = cols @ cols.conj().T
    beta_values = tuple(complex(b_diag[i]) for i in beta_indices)
    a_value = complex(a_diag[a_index])
    delta = float(min(abs(a_value - bv) for bv in beta_values))
    inst = PerturbationInstance(a, b, c, a_value, p_a, beta_values, q, delta)
    inst.validate()
    return inst


@dataclass(frozen=True, eq=False)
class PerturbationCheckReport:
    """Margins and norm chains for one instance."""

    op_ineq_margin: float  # PSD margin of |P_a C Q| / Delta_a - |P_a Q|
    op_ineq_holds: bool
    dominance_ok: bool  # sigma_k(P_a C Q) <= sigma_k(C) for all k
    norm_chain: dict
    norm_chain_ok: bool
    canonical_cosines: np.ndarray
    delta_a: float

    @property
    def all_ok(self) -> bool:
        return self.op_ineq_holds and self.dominance_ok and self.norm_chain_ok

    def to_dict(self) -> dict:
        return {
            "op_ineq_margin": self.op_ineq_margin,
            "op_ineq_holds": self.op_ineq_holds,
            "dominance_ok": self.dominance_ok,
            "norm_chain": {
                kind.value: list(chain) for kind, chain in self.norm_chain.items()
            },
            "norm_chain_ok": self.norm_chain_ok,
            "canonical_cosines": [float(x) for x in self.canonical_cosines],
            "delta_a": self.delta_a,
            "all_ok": self.all_ok,
        }


def check_theorem(inst: PerturbationInstance) -> PerturbationCheckReport:
    """Check both operator inequalities and the norm chain on one instance.

    The first inequality is tested directly in the PSD order; the
    existential second one through sorted singular-value dominance of
    P_a C Q against C, which is equivalent to the existence of the
    aligning unitary.  Each of P_a Q, P_a C Q and C has its singular values
    computed once; the norms, the dominance test and the cosines all read
    them.
    """
    scale = inst.scale
    if inst.delta_a <= STRUCTURAL_TOL * scale:
        raise DegenerateSeparationError(
            f"delta_a = {inst.delta_a:g} too small against scale {scale:g}"
        )
    paq = inst.p_a @ inst.q
    pacq = inst.p_a @ inst.c_matrix @ inst.q

    abs_paq = operator_abs(paq)
    abs_pacq = operator_abs(pacq)
    holds, margin = psd_leq(abs_paq, abs_pacq / inst.delta_a, tol=PSD_MARGIN_TOL)

    sv_paq, sv_pacq, sv_c = (singular_values(m) for m in (paq, pacq, inst.c_matrix))
    dom_tol = ROUNDOFF_TOL * tol_scale(sv_norm(sv_c, NormKind.OPERATOR))
    dominance = sv_dominance(sv_pacq, sv_c, tol=dom_tol)

    chain = {}
    chain_ok = True
    for kind in NormKind:
        x = sv_norm(sv_paq, kind)
        y = sv_norm(sv_pacq, kind) / inst.delta_a
        z = sv_norm(sv_c, kind) / inst.delta_a
        chain[kind] = (x, y, z)
        slack = STRUCTURAL_TOL * tol_scale(z)
        chain_ok = chain_ok and (x <= y + slack) and (y <= z + slack)

    cosines = np.clip(sv_paq, 0.0, 1.0)
    return PerturbationCheckReport(
        op_ineq_margin=margin,
        op_ineq_holds=holds,
        dominance_ok=dominance,
        norm_chain=chain,
        norm_chain_ok=chain_ok,
        canonical_cosines=cosines,
        delta_a=inst.delta_a,
    )


def canonical_cosines(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cosines of the canonical angles between two projected subspaces.

    These are the singular values of P Q, descending, clipped to [0, 1];
    a value above 1 + COSINE_TOL raises ArithmeticError.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    _check_projector(p, "P")
    _check_projector(q, "Q")
    sv = singular_values(p @ q)
    if sv.size and sv[0] > 1.0 + COSINE_TOL:
        raise ArithmeticError(f"cosine {sv[0]:.6f} exceeds 1 beyond round-off")
    return np.clip(sv, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class DkChainReport:
    """Eigenstate weight outside a product subspace versus its norm bound."""

    pjq_norm: float  # ||P_j Q_perp||, the amplitude outside the subspace
    delta_j_Kperp: float
    h_i_norm: float
    hi_over_delta: float
    entanglement: float
    norm_step_ok: bool  # pjq_norm <= ||H_I|| / delta + STRUCTURAL_TOL
    ent_step_ok: bool  # E(|E_j>) <= pjq_norm^2 + TOL_ENT


def dk_entanglement_chain(splitting: Splitting, j: int, subspace: ProductSubspace,
                          ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS) -> DkChainReport:
    """Apply the perturbation chain to one eigenstate and product subspace.

    With P_j the projector onto the j-th eigenstate and Q the projector onto
    the span of product states outside the subspace, ||P_j Q|| equals the
    amplitude of the eigenstate outside the subspace, is bounded by
    ||H_I|| / Delta, and its square bounds the eigenstate's entanglement.
    """
    scale, e_j, vec_j, spec, _, h_i_norm = eigenstate_setup(splitting, j)
    outside, delta = outside_subspace(spec, e_j, subspace)
    if delta <= STRUCTURAL_TOL * scale:
        raise DegenerateSeparationError(f"eigenvalue separation {delta:g} too small")

    # sum the outside weights directly: 1 - (inside weight) would lose all
    # precision when the state lies almost entirely inside the subspace
    alpha = local_coefficients(spec, vec_j)
    pjq = float(np.sqrt(np.sum(np.abs(alpha[outside]) ** 2)))
    hi_over_delta = h_i_norm / delta
    value, _ = multipartite_entanglement(ent.PureState(vec_j, splitting.model.dims), ent_opts)
    return DkChainReport(
        pjq_norm=pjq,
        delta_j_Kperp=delta,
        h_i_norm=h_i_norm,
        hi_over_delta=hi_over_delta,
        entanglement=value,
        norm_step_ok=pjq <= hi_over_delta + STRUCTURAL_TOL,
        ent_step_ok=value <= pjq * pjq + TOL_ENT,
    )
