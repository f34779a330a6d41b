"""Near-saturation of the frustration bound via Schmidt-based splittings.

For a bipartite H, installing the rank-1 local term
H_L = -gamma |a0><a0| x I (a0 the dominant left Schmidt vector of the
ground state) makes the leftover weight of the cut expansion equal the
entanglement exactly, so the bound's excess over the entanglement reduces
to the interaction frustration divided by gamma, which is O(gamma).
Sweeping gamma downward therefore drives the bound toward the ground-state
entanglement from above; exact saturation is impossible away from the
extreme values, so the excess stays strictly positive.  A tie at the
largest Schmidt coefficient is not flagged: the construction holds for any
choice of a0, and the first vector of the model's ``ground_schmidt`` is used.

For every gamma the local side is closed form, with P = |a0><a0|:
E0_L = -gamma, delta_e_ent = gamma and <H_L> = -gamma <P x I>.  Only the
eigenvalues of H_I = H + gamma P x I and <H_I> change with gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import FrustrationReport, cut_expansion, ground_report
from .errors import UndefinedBoundError
from .linalg import MIN_GAP, STRUCTURAL_TOL, eigvalsh, tol_scale
from .models import OperatorTerm, SpinModel, Splitting, build_dense, dense_terms


def ground_projector(model: SpinModel) -> np.ndarray:
    """|a0><a0|, a0 the first left vector of the model's ground Schmidt decomposition."""
    a0 = model.ground_schmidt.left_vectors[:, 0]
    return np.outer(a0, a0.conj())


def schmidt_splitting(model: SpinModel, gamma: float) -> Splitting:
    """Build the rank-1 local splitting from the ground state's Schmidt form.

    The per-site gaps are (gamma, 0), so delta_e_ent equals gamma by
    construction.  A tie at the largest Schmidt coefficient is not flagged;
    the first index is used, and the construction stays valid for any choice.
    """
    if not 0 < gamma < np.inf:  # NaN fails every comparison
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return Splitting(model, (OperatorTerm(-gamma, [(0, ground_projector(model))]),))


@dataclass(frozen=True, eq=False)
class SweepRecord:
    gamma: float
    excess: float  # ef_bound - entanglement
    overshoot_interaction: float  # interaction frustration / delta_e_ent, O(gamma)
    unreliable: bool
    report: FrustrationReport


def validate_gammas(gammas: Sequence[float]) -> list[float]:
    """The gammas as floats; ValueError unless finite, positive, strictly descending and >= MIN_GAP."""
    gs = [float(g) for g in gammas]
    if not gs or not all(0 < g < np.inf for g in gs):  # NaN fails every comparison
        raise ValueError("gammas must be positive and finite")
    if any(b >= a for a, b in zip(gs, gs[1:])):
        raise ValueError("gammas must be strictly descending")
    if gs[-1] < MIN_GAP:
        raise ValueError(f"smallest gamma must be >= {MIN_GAP:g}")
    return gs


def saturation_sweep(model: SpinModel, gammas: Sequence[float]) -> tuple[SweepRecord, ...]:
    """Frustration reports of schmidt_splitting(model, gamma) for a descending list of gammas.

    Gammas below MIN_GAP are rejected: delta_e_ent = gamma would amplify
    eigensolver noise in E_f / gamma beyond double precision.  Records where
    E_f is produced by cancellation below STRUCTURAL_TOL * scale are flagged
    unreliable instead of silently reported.  No splitting is built: each
    gamma adds H_I = H + gamma P x I to what the model keeps and solves it
    for eigenvalues only.
    """
    gs = validate_gammas(gammas)
    psi = model.ground.vector
    h = build_dense(model)
    p_i = dense_terms((OperatorTerm(1.0, [(0, ground_projector(model))]),), model.dims)
    w = float(np.real(psi.conj() @ (p_i @ psi)))

    records = []
    for gamma in gs:
        h_i = h + gamma * p_i
        ev = eigvalsh(h_i)
        exp_i = float(np.real(psi.conj() @ (h_i @ psi)))
        report = ground_report(model, -gamma, gamma, float(ev[0]), float(ev[-1]), -gamma * w, exp_i)
        e_scale = tol_scale(report.E0, report.E0_L, report.E0_I)
        if report.ef_bound is None:
            records.append(SweepRecord(gamma, float("nan"), float("nan"), True, report))
            continue
        excess = report.ef_bound - report.entanglement
        overshoot = report.interaction_frustration / report.delta_e_ent
        unreliable = report.E_f < STRUCTURAL_TOL * e_scale
        records.append(SweepRecord(gamma, excess, overshoot, unreliable, report))
    return tuple(records)


@dataclass(frozen=True, eq=False)
class ExcessDecomposition:
    """Where the bound's excess over the entanglement comes from.

    The exact identity
        ef_bound - entanglement =
            overshoot_local + overshoot_interaction + entanglement_gap
    splits the excess into the local energy overshoot of the cut expansion,
    the interaction frustration, and the gap between the leftover weight and
    the entanglement itself.
    """

    ef_bound: float
    entanglement: float
    sum_below_weight: float
    overshoot_local: float
    overshoot_interaction: float
    entanglement_gap: float

    @property
    def excess(self) -> float:
        return self.ef_bound - self.entanglement

    @property
    def identity_residual(self) -> float:
        return self.excess - (
            self.overshoot_local + self.overshoot_interaction + self.entanglement_gap
        )


def excess_decomposition(splitting: Splitting, report: FrustrationReport) -> ExcessDecomposition:
    """Decompose ef_bound - entanglement of the splitting's ground-state report."""
    if report.ef_bound is None:
        raise UndefinedBoundError(report.ef_bound_reason or "bound undefined")
    spec = splitting.local
    delta = spec.delta_e_ent

    _, _, sum_below = cut_expansion(spec, report)
    overshoot_local = (report.local_frustration - (1.0 - sum_below) * delta) / delta
    overshoot_interaction = report.interaction_frustration / delta
    entanglement_gap = (1.0 - sum_below) - report.entanglement
    return ExcessDecomposition(
        ef_bound=report.ef_bound,
        entanglement=report.entanglement,
        sum_below_weight=sum_below,
        overshoot_local=overshoot_local,
        overshoot_interaction=overshoot_interaction,
        entanglement_gap=entanglement_gap,
    )
