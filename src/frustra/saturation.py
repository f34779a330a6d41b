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
choice of a0, and the first left vector of the Schmidt decomposition the
ground state keeps (``PureState.schmidt_decomposition``) is used.

For every gamma the local side is closed form, with P = |a0><a0|:
E0_L = -gamma, delta_e_ent = gamma and <H_L> = -gamma <P x I>.  Only the
eigenvalues of H_I = H + gamma P x I and <H_I> change with gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import FrustrationReport, ground_report, state_entanglement
from .errors import NotBipartiteError
from .linalg import MIN_GAP, STACK_ENTRIES, STRUCTURAL_TOL, eigvalsh, tol_scale
from .models import OperatorTerm, SpinModel, Splitting, build_dense, dense_terms, expectation


def ground_projector(model: SpinModel) -> np.ndarray:
    """|a0><a0|, a0 the first left vector of the ground state's Schmidt decomposition."""
    if model.num_sites != 2:  # before any solve
        raise NotBipartiteError(f"model has {model.num_sites} sites; regroup it into two parties first")
    a0 = model.ground_state.schmidt_decomposition.left_vectors[:, 0]
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
    excess: float | None  # ef_bound - entanglement; None where the bound is undefined
    overshoot_interaction: float | None  # interaction frustration / delta_e_ent, O(gamma)
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
    unreliable instead of silently reported, and a record whose bound is
    undefined has no excess (None).  No splitting is built: each
    H_I = H + gamma P x I is added to what the model keeps and solved for
    eigenvalues only, the gammas in stacks of at most linalg.STACK_ENTRIES
    matrix entries: many small H_I take one call, and from D = 128 on each
    H_I is solved alone.
    """
    gs = validate_gammas(gammas)
    # the projector first: it refuses a model of more than two sites before any solve
    p_i = dense_terms((OperatorTerm(1.0, [(0, ground_projector(model))]),), model.dims)
    psi = model.ground.vector
    h = build_dense(model)
    w = float(expectation(p_i, psi))
    measured = state_entanglement(model.ground_state)
    records = []
    per = max(1, STACK_ENTRIES // h.size)
    for lo in range(0, len(gs), per):
        h_i = np.multiply(np.array(gs[lo:lo + per])[:, None, None], p_i, dtype=np.result_type(h, p_i))
        h_i += h  # each member h + gamma * p_i, bit for bit, with no second stack
        ev = eigvalsh(h_i)
        for gamma, e0_i, e_i_max, exp_i in zip(gs[lo:lo + per], ev[:, 0].tolist(), ev[:, -1].tolist(),
                                                expectation(h_i, psi).tolist()):
            report = ground_report(model, measured, -gamma, gamma, e0_i, e_i_max, -gamma * w, exp_i)
            if report.ef_bound is None:
                records.append(SweepRecord(gamma, None, None, True, report))
                continue
            excess = report.ef_bound - report.entanglement
            overshoot = report.interaction_frustration / report.delta_e_ent
            unreliable = report.E_f < STRUCTURAL_TOL * tol_scale(report.E0, report.E0_L, report.E0_I)
            records.append(SweepRecord(gamma, excess, overshoot, unreliable, report))
    return tuple(records)

