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

Instances are validated by residuals in the Frobenius norm: Hermiticity
and idempotency of each projector (within the absolute RECONSTRUCTION_TOL),
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

from .errors import DegenerateSeparationError, NotProjectorError
from .linalg import (
    PSD_MARGIN_TOL, RECONSTRUCTION_TOL, ROUNDOFF_TOL, STRUCTURAL_TOL, NormKind, hermitian_eig,
    op_norm, operator_abs, psd_leq, singular_values, sv_dominance, sv_norm, svd, tol_scale,
)


def _check_projector(p: np.ndarray, name: str) -> None:
    if np.linalg.norm(p - p.conj().T) > RECONSTRUCTION_TOL:
        raise NotProjectorError(f"{name} is not Hermitian within {RECONSTRUCTION_TOL:g}")
    if np.linalg.norm(p @ p - p) > RECONSTRUCTION_TOL:
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


def hermitian_instance(b: np.ndarray, c: np.ndarray, beta: Sequence[int]) -> PerturbationInstance:
    """Instance builder for Hermitian B and C (A = B + C solved internally).

    a is A's lowest eigenvalue and P_a the projector onto its whole
    near-degenerate cluster, so it remains a valid eigenprojector under
    round-off.  ``beta`` indexes B's ascending eigenvalues; Q projects onto
    their eigenvectors.
    """
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    a = b + c
    dec_a = hermitian_eig(a)
    dec_b = hermitian_eig(b)
    vals = dec_a.eigenvalues
    members = np.flatnonzero(vals - vals[0] <= STRUCTURAL_TOL * tol_scale(vals[0], vals[-1]))
    cols = dec_a.eigenvectors[:, members]
    p_a, a_value = cols @ cols.conj().T, complex(vals[0])

    beta_idx = [int(i) for i in beta]
    cols = dec_b.eigenvectors[:, beta_idx]
    q = cols @ cols.conj().T
    beta_values = tuple(complex(dec_b.eigenvalues[i]) for i in beta_idx)
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
    all_ok: bool  # op_ineq_holds and dominance_ok and norm_chain_ok


def check_theorem(inst: PerturbationInstance) -> PerturbationCheckReport:
    """Check both operator inequalities and the norm chain on one instance.

    The first inequality is tested directly in the PSD order; the
    existential second one through sorted singular-value dominance of
    P_a C Q against C, which is equivalent to the existence of the
    aligning unitary.  Each matrix is decomposed once: one SVD each of
    P_a Q and P_a C Q gives both its operator absolute value and its
    singular values, and C takes a values-only pass.  The norms, the
    dominance test and the cosines all read these singular values.
    """
    scale = inst.scale
    if inst.delta_a <= STRUCTURAL_TOL * scale:
        raise DegenerateSeparationError(
            f"delta_a = {inst.delta_a:g} too small against scale {scale:g}"
        )
    paq = inst.p_a @ inst.q
    pacq = inst.p_a @ inst.c_matrix @ inst.q

    svd_paq, svd_pacq = svd(paq), svd(pacq)
    holds, margin = psd_leq(operator_abs(svd_paq), operator_abs(svd_pacq) / inst.delta_a,
                            tol=PSD_MARGIN_TOL)

    sv_paq, sv_pacq = svd_paq.singular_values, svd_pacq.singular_values
    sv_c = singular_values(inst.c_matrix)
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
        all_ok=holds and dominance and chain_ok,
    )
