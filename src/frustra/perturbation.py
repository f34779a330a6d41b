"""Numerical certification of a single-eigenvalue subspace perturbation bound, one instance or a stack at a time.

For A = B + C (A, B normal), an eigenvalue a of A with eigenprojector (or sub-projector) P_a, and a set beta of B's
eigenvalues with combined projector Q, the operator inequalities

    |P_a Q| <= |P_a C Q| / Delta_a  and  |P_a C Q| <= U |C| U^dag

hold with Delta_a = min_{b in beta} |a - b| and some unitary U.  The first is checked directly in the PSD order; the
second through its equivalent certificate of sorted singular-value dominance.  Both imply the chain
|||P_a Q||| <= |||P_a C Q||| / Delta_a <= |||C||| / Delta_a for every normalized unitarily invariant norm, checked
here for the operator, Hilbert-Schmidt and trace norms.  The singular values of P_a Q are the cosines of the
canonical angles between the two subspaces.

Instances are validated by residuals in the Frobenius norm: Hermiticity and idempotency of each projector (within the
absolute RECONSTRUCTION_TOL), the eigenspace residual P_a A - a P_a and the commutator [Q, B] (within
STRUCTURAL_TOL * max(1, ||A||)).  The Frobenius norm is at least the spectral norm, so these tests accept nothing a
spectral-norm test at the same tolerance would reject, and they need no SVD.  The checks allow PSD_MARGIN_TOL in the
PSD order and STRUCTURAL_TOL in the norm chain.  A stack of instances, with a leading member axis, is built,
validated and checked per stack: each solve, SVD and residual is one call, and each member is bit for bit what it
gives alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateSeparationError, NotProjectorError
from .linalg import (
    PSD_MARGIN_TOL, RECONSTRUCTION_TOL, ROUNDOFF_TOL, STRUCTURAL_TOL, NormKind, frobenius_norm, hermitian_eig,
    op_norm, operator_abs, psd_leq, singular_values, sv_dominance, sv_norm, svd, tol_scale,
)


@dataclass(frozen=True, eq=False)
class PerturbationInstance:
    """One (A, B, C, a, P_a, beta, Q) tuple ready for the theorem checks, or a stack: a leading axis on every field."""

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray
    a_value: complex | np.ndarray
    p_a: np.ndarray
    beta_values: tuple[complex, ...] | np.ndarray
    q: np.ndarray
    delta_a: float | np.ndarray

    @cached_property
    def scale(self) -> float | np.ndarray:
        """max(1, ||A||) of the instance or of each member, the scale of every tolerance on it."""
        return tol_scale(op_norm(self.a_matrix))

    def validate(self) -> None:
        """Raise the first check that a member fails (for a single instance, the first that it fails)."""
        a, b, p_a, q, scale = self.a_matrix, self.b_matrix, self.p_a, self.q, self.scale
        if np.any(np.abs(a - b - self.c_matrix).max(axis=(-2, -1)) > ROUNDOFF_TOL * scale):
            raise ValueError("A != B + C beyond tolerance")
        for p, name in ((p_a, "P_a"), (q, "Q")):
            if np.any(frobenius_norm(p - p.conj().swapaxes(-1, -2)) > RECONSTRUCTION_TOL):
                raise NotProjectorError(f"{name} is not Hermitian within {RECONSTRUCTION_TOL:g}")
            if np.any(frobenius_norm(p @ p - p) > RECONSTRUCTION_TOL):
                raise NotProjectorError(f"{name} is not idempotent within {RECONSTRUCTION_TOL:g}")
        tol = STRUCTURAL_TOL * scale
        if np.any(frobenius_norm(p_a @ a - np.asarray(self.a_value)[..., None, None] * p_a) > tol):
            raise ValueError("P_a does not project into the a-eigenspace of A")
        if np.any(frobenius_norm(q @ b - b @ q) > tol):
            raise ValueError("Q does not commute with B")
        if np.any(self.delta_a <= 0):
            raise DegenerateSeparationError("delta_a must be positive")


def hermitian_instance(b: np.ndarray, c: np.ndarray, beta: Sequence[int]) -> PerturbationInstance:
    """Instance builder for Hermitian B and C (A = B + C solved internally), or for (k, d, d) stacks of them.

    a is A's lowest eigenvalue and P_a the projector onto its whole
    near-degenerate cluster, so it remains a valid eigenprojector under
    round-off.  ``beta`` indexes B's ascending eigenvalues; Q projects onto
    their eigenvectors.  Stacks give one stacked instance, each member bit
    for bit what its own B and C give.
    """
    b, c = np.asarray(b, dtype=complex), np.asarray(c, dtype=complex)
    a = b + c
    dec_a, dec_b = (hermitian_eig(x.reshape((-1,) + x.shape[-2:])) for x in (a, b))  # a pair is a stack of one
    vals, vecs = dec_a.eigenvalues, dec_a.eigenvectors
    scale = tol_scale(vals[:, 0], vals[:, -1])
    sizes = (vals - vals[:, :1] <= STRUCTURAL_TOL * scale[:, None]).sum(axis=1)  # the cluster: a prefix of vals
    p_a = np.array([v[:, :k] @ v[:, :k].conj().T for v, k in zip(vecs, sizes.tolist())])

    beta_idx = [int(i) for i in beta]
    cols = dec_b.eigenvectors[..., beta_idx]
    beta_values = dec_b.eigenvalues[:, beta_idx]
    delta = np.abs(vals[:, :1] - beta_values).min(axis=1)
    a_value, q, beta_values = vals[:, 0].astype(complex), cols @ cols.conj().swapaxes(1, 2), beta_values.astype(complex)
    if b.ndim == 2:  # a single instance's types
        a_value, beta_values, delta = complex(a_value[0]), tuple(beta_values[0].tolist()), float(delta[0])
        p_a, q = p_a[0], q[0]
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


def check_theorem(inst: PerturbationInstance) -> PerturbationCheckReport | list[PerturbationCheckReport]:
    """Check both operator inequalities and the norm chain on an instance, or on each member of a stack.

    The first inequality is tested directly in the PSD order; the
    existential second one through sorted singular-value dominance of
    P_a C Q against C, which is equivalent to the existence of the
    aligning unitary.  Each matrix is decomposed once: one SVD each of
    P_a Q and P_a C Q gives both its operator absolute value and its
    singular values, and C takes a values-only pass.  The norms, the
    dominance test and the cosines all read these singular values.  A stack
    takes each decomposition in one call and gives a list of reports, each
    bit for bit its member's own.
    """
    scale, delta = np.reshape(inst.scale, -1), np.reshape(inst.delta_a, -1)
    for m in np.flatnonzero(delta <= STRUCTURAL_TOL * scale)[:1]:
        raise DegenerateSeparationError(f"delta_a = {delta[m]:g} too small against scale {scale[m]:g}")
    p_a, c, q = (np.reshape(x, (-1,) + np.shape(x)[-2:]) for x in (inst.p_a, inst.c_matrix, inst.q))
    svd_paq, svd_pacq = svd(p_a @ q), svd(p_a @ c @ q)
    holds, margin = psd_leq(operator_abs(svd_paq), operator_abs(svd_pacq) / delta[:, None, None], tol=PSD_MARGIN_TOL)

    sv_paq, sv_pacq, sv_c = svd_paq.singular_values, svd_pacq.singular_values, singular_values(c)
    dominance = sv_dominance(sv_pacq, sv_c, tol=ROUNDOFF_TOL * tol_scale(sv_norm(sv_c, NormKind.OPERATOR)))
    norms = {kind: (sv_norm(sv_paq, kind), sv_norm(sv_pacq, kind) / delta, sv_norm(sv_c, kind) / delta)
             for kind in NormKind}  # (x, y, z), each per member
    chain_ok = np.all([(x <= y + (slack := STRUCTURAL_TOL * tol_scale(z))) & (y <= z + slack)
                       for x, y, z in norms.values()], axis=0)
    chains = {kind: list(zip(*(v.tolist() for v in xyz))) for kind, xyz in norms.items()}  # member m's (x, y, z)
    cosines = np.clip(sv_paq, 0.0, 1.0)
    reports = [PerturbationCheckReport(
        op_ineq_margin=margin_m,
        op_ineq_holds=holds_m,
        dominance_ok=dominance_m,
        norm_chain={kind: rows[m] for kind, rows in chains.items()},
        norm_chain_ok=chain_ok_m,
        canonical_cosines=cosines[m],
        delta_a=delta_m,
        all_ok=holds_m and dominance_m and chain_ok_m,
    ) for m, (margin_m, holds_m, dominance_m, chain_ok_m, delta_m) in enumerate(
        zip(margin.tolist(), holds.tolist(), dominance.tolist(), chain_ok.tolist(), delta.tolist()))]
    return reports if np.ndim(inst.delta_a) else reports[0]
