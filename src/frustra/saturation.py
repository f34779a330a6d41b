"""Near-saturation of the frustration bound via Schmidt-based splittings.

For a bipartite H, installing the rank-1 local term
H_L = -gamma |a0><a0| x I (a0 the dominant left Schmidt vector of the
ground state) makes the leftover weight of the cut expansion equal the
entanglement exactly, so the bound's excess over the entanglement reduces
to the interaction frustration divided by gamma, which is O(gamma).
Sweeping gamma downward therefore drives the bound toward the ground-state
entanglement from above; exact saturation is impossible away from the
extreme values, so the excess stays strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entanglement as ent
from .bounds import (
    DEFAULT_ENT_OPTS,
    EntanglementOptions,
    FrustrationReport,
    analyze_ground,
    cut_expansion,
)
from .errors import NotBipartiteError, UndefinedBoundError
from .linalg import MIN_GAP, STRUCTURAL_TOL, tol_scale
from .models import OperatorTerm, SpinModel, Splitting


@dataclass(frozen=True, eq=False)
class SchmidtSplit:
    """Splitting with H_L = -gamma |a0><a0| x I, plus the data that chose a0."""

    splitting: Splitting
    gamma: float
    a0: np.ndarray
    schmidt_coefficients: np.ndarray
    degenerate_top: bool  # largest Schmidt coefficient ties; a0 is then one valid choice


def _require_bipartite(model: SpinModel) -> None:
    if model.num_sites != 2:
        raise NotBipartiteError(
            f"model has {model.num_sites} sites; regroup it into two parties first"
        )


def _ground_schmidt(model: SpinModel):
    psi = ent.PureState(model.spectrum.eigenvectors[:, 0], model.dims)
    sd = ent.schmidt(psi, ((0,), (1,)))
    coeffs = sd.coefficients
    degenerate = bool(coeffs.size > 1 and coeffs[0] - coeffs[1] <= STRUCTURAL_TOL)
    return sd.left_vectors[:, 0], coeffs, degenerate


def schmidt_splitting(model: SpinModel, gamma: float) -> SchmidtSplit:
    """Build the rank-1 local splitting from the ground state's Schmidt form.

    The per-site gaps are (gamma, 0), so delta_e_ent equals gamma by
    construction.  A tie at the largest Schmidt coefficient is flagged; the
    first index is used, and the construction stays valid for any choice.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    _require_bipartite(model)
    a0, coeffs, degenerate = _ground_schmidt(model)
    splitting = _rank1_splitting(model, np.outer(a0, a0.conj()), gamma)
    return SchmidtSplit(splitting, float(gamma), a0, coeffs, degenerate)


def _rank1_splitting(model: SpinModel, projector: np.ndarray, gamma: float) -> Splitting:
    return Splitting(model, (OperatorTerm(-gamma, [(0, projector)]),))


@dataclass(frozen=True, eq=False)
class SweepRecord:
    gamma: float
    report: FrustrationReport
    excess: float  # ef_bound - entanglement
    interaction_term: float  # interaction frustration / delta_e_ent, O(gamma)
    unreliable: bool


@dataclass(frozen=True, eq=False)
class SaturationSweep:
    gammas: tuple[float, ...]
    records: tuple[SweepRecord, ...]
    degenerate_top: bool

    @property
    def entanglement_spread(self) -> float:
        values = [r.report.entanglement for r in self.records]
        return float(max(values) - min(values)) if values else 0.0


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


def saturation_sweep(model: SpinModel, gammas: Sequence[float],
                     ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS) -> SaturationSweep:
    """Frustration reports for a descending list of gammas.

    Gammas below MIN_GAP are rejected: delta_e_ent = gamma would amplify
    eigensolver noise in E_f / gamma beyond double precision.  Records where
    E_f is produced by cancellation below STRUCTURAL_TOL * scale are flagged
    unreliable instead of silently reported.  H does not depend on gamma,
    so its one eigendecomposition and its ground-state entanglement (both
    kept by the model) serve every record.
    """
    gs = validate_gammas(gammas)
    _require_bipartite(model)
    a0, coeffs, degenerate = _ground_schmidt(model)
    projector = np.outer(a0, a0.conj())

    records = []
    for gamma in gs:
        report = analyze_ground(_rank1_splitting(model, projector, gamma), ent_opts)
        e_scale = tol_scale(report.E0, report.E0_L, report.E0_I)
        if report.ef_bound is None:
            records.append(SweepRecord(gamma, report, float("nan"), float("nan"), True))
            continue
        excess = report.ef_bound - report.entanglement
        interaction_term = report.interaction_frustration / report.delta_e_ent
        unreliable = report.E_f < STRUCTURAL_TOL * e_scale
        records.append(SweepRecord(gamma, report, excess, interaction_term, unreliable))
    return SaturationSweep(tuple(gs), tuple(records), degenerate)


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


def excess_decomposition(splitting: Splitting,
                         ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS) -> ExcessDecomposition:
    """Decompose ef_bound - entanglement for one splitting."""
    report = analyze_ground(splitting, ent_opts)
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
