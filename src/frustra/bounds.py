"""Frustration energy and the entanglement bounds derived from it.

For a splitting H = H_L + H_I with ground energies E0, E0_L, E0_I, the
frustration energy E_f = E0 - E0_L - E0_I measures how badly the global
ground state fails to minimize the local and interaction energies at once;
it is non-negative and vanishes exactly when H_L and H_I share a ground
state.  Scaled by delta_e_ent (the second smallest per-site gap of H_L),
it bounds the ground-state geometric entanglement:

    E(ground) <= E_f / delta_e_ent <= E_I_tot / delta_e_ent,

where E_I_tot is the spread of the interaction spectrum.  The bound is
undefined when delta_e_ent vanishes and is reported as absent, never as
infinity.

For excited eigenstates the route is different: each local product state
sits in "product subspaces" (sets of H_L eigenstates differing at a single
site, whose superpositions stay unentangled), and a subspace-perturbation
argument turns the local spectrum plus the interaction strength into an
upper bound on the eigenstate's entanglement.  The members of a product
subspace are found by index arithmetic: in row-major order the states that
differ from flat index f at site s only are base + stride * arange(d_s),
with stride = prod(dims[s+1:]).

``state_entanglement``, ``analyze_ground`` and ``analyze_excited`` take one
input or a sequence (for analyze_ground, a family's splitting) and give one
result or the list, each bit for bit its own.  A state's entanglement is
measured once per options and kept on the state, so every splitting of a
model reads its ground state's back.
Every report's JSON keys are its dataclass fields, in declaration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import entanglement as ent
from .errors import UndefinedBoundError
from .linalg import CLOSED_MARGIN_TOL, STRUCTURAL_TOL, TIE_TOL, TOL_ENT, ZERO_NORM, tol_scale
from .models import LocalSpectrum, SpinModel, Splitting, interaction_extremes


@dataclass(frozen=True)
class EntanglementOptions:
    """Knobs for the entanglement computation inside bound reports."""

    restarts: int = ent.DEFAULT_RESTARTS
    tol: float = ent.DEFAULT_TOL
    max_iters: int = ent.DEFAULT_MAX_ITERS
    seed: int = ent.DEFAULT_SEED


DEFAULT_ENT_OPTS = EntanglementOptions()


def state_entanglement(psi: ent.PureState | Sequence[ent.PureState], opts: EntanglementOptions = DEFAULT_ENT_OPTS):
    """(value, method) of a state, kept in its ``entanglement_memo`` per options: exact Schmidt route for two
    parties, alternating otherwise.  For a sequence of states with equal dims, the list of theirs; those not yet
    measured under opts go to one batched call, each bit for bit what its state alone gives."""
    one = isinstance(psi, ent.PureState)
    psis = [psi] if one else psi
    todo = [p for p in psis if opts not in p.entanglement_memo]
    if todo:
        unmeasured = todo[0] if one else todo
        if todo[0].num_sites == 2:
            res = ent.geometric_measure_bipartite(unmeasured)
        else:
            measure = ent.geometric_measure_multipartite if one else ent.geometric_measures_multipartite
            res = measure(unmeasured, restarts=opts.restarts, tol=opts.tol, max_iters=opts.max_iters, seed=opts.seed)
        for p, r in zip(todo, [res] if one else res):
            p.entanglement_memo[opts] = r.value, r.method
    return psi.entanglement_memo[opts] if one else [p.entanglement_memo[opts] for p in psis]


def local_coefficients(spec: LocalSpectrum, vector: np.ndarray) -> np.ndarray:
    """Expansion coefficients of a state in the product eigenbasis of H_L.

    Returned flat in configuration (lex) order: alpha[flat] = <prod_flat|v>.
    """
    t = np.asarray(vector, dtype=complex).reshape(spec.dims)
    for vecs in spec.site_eigenvectors:
        t = np.tensordot(t, vecs.conj(), axes=([0], [0]))
    return t.reshape(-1)


_SCALARS = (float, int, str, type(None))  # bool is an int, numpy's float64 a float


def json_values(value, states: bool = True):
    """A report as JSON values, the one shape of every JSON report and CSV row.

    A report becomes its own attributes (a dataclass's fields, in declaration order), a tuple or list
    a list, an array its tolist(), an enum key its value, and a PureState {"dims", "amplitudes": [[re, im], ...]}.
    states=False leaves every PureState field out.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (tuple, list)):
        return [json_values(v, states) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k.value if isinstance(k, Enum) else k: json_values(v, states) for k, v in value.items()}
    if isinstance(value, ent.PureState):
        return {"dims": list(value.dims), "amplitudes": [[a.real, a.imag] for a in value.amplitudes.tolist()]}
    out = {}
    for name, v in vars(value).items():  # a report's fields, in declaration order
        if isinstance(v, _SCALARS):  # most fields: no call
            out[name] = v
        elif states or not isinstance(v, ent.PureState):
            out[name] = json_values(v, states)
    return out


@dataclass(frozen=True, eq=False)
class FrustrationReport:
    """Ground-state energies, frustration split, entanglement, and bounds."""

    model: str
    E0: float
    E0_L: float
    E0_I: float
    E_f: float
    delta_e_ent: float
    entanglement: float
    entanglement_method: str
    ef_bound: float | None
    ef_bound_reason: str | None
    ratio_bound: float | None
    ratio_bound_reason: str | None
    E_I_max: float
    E_I_tot: float
    local_frustration: float
    interaction_frustration: float
    degenerate_ground: bool
    ground_state: ent.PureState


def ground_report(model: SpinModel, measured: tuple[float, str], e0_l: float, delta: float, e0_i: float,
                  e_i_max: float, exp_l: float, exp_i: float) -> FrustrationReport:
    """The report of a model, read with its ground level and state from the
    model, from its entanglement (value, method) and what a splitting
    gives: E0_L, delta_e_ent, the extremes of H_I, <H_L> and <H_I>.  Every
    formula of the report lives here.  A degenerate ground level takes the
    solver's first eigenvector and is flagged; the bounds hold for any
    ground state, so no minimization over the ground space is attempted.
    """
    g = model.ground
    e_f = g.energy - e0_l - e0_i
    e_i_tot = e_i_max - e0_i
    value, method = measured
    # both bounds share one delta_e_ent gate, so one reason
    if delta > STRUCTURAL_TOL * g.scale:
        ef_bound, ratio_bound, reason = e_f / delta, e_i_tot / delta, None
    else:
        ef_bound = ratio_bound = None
        reason = f"delta_e_ent = {delta:g}"

    return FrustrationReport(
        model=model.name,
        E0=g.energy,
        E0_L=e0_l,
        E0_I=e0_i,
        E_f=e_f,
        delta_e_ent=delta,
        entanglement=value,
        entanglement_method=method,
        ef_bound=ef_bound,
        ef_bound_reason=reason,
        ratio_bound=ratio_bound,
        ratio_bound_reason=reason,
        E_I_max=e_i_max,
        E_I_tot=e_i_tot,
        local_frustration=exp_l - e0_l,
        interaction_frustration=exp_i - e0_i,
        degenerate_ground=g.degenerate,
        ground_state=model.ground_state,
    )


def analyze_ground(splitting: Splitting, ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS):
    """Full frustration report for one splitting, through ground_report.

    A family's splitting (models.split of a sequence) gives the list of its
    members' reports, read from its stacked arrays and one batched
    entanglement call, each bit for bit what its model's own splitting gives.
    """
    one = isinstance(splitting.model, SpinModel)
    models = (splitting.model,) if one else splitting.model
    # a family's ground vectors as columns of its stacked eigenvectors: strided as one model's, so the products
    # below take the same loops and each member's expectations are bit for bit its own
    psi = models[0].ground.vector if one else np.array([m.spectrum.eigenvectors for m in models])[:, :, 0]
    spec = splitting.local
    e0_i, e_i_max = interaction_extremes(splitting)
    measured = state_entanglement(models[0].ground_state if one else [m.ground_state for m in models], ent_opts)
    given = (spec.e0, spec.delta_e_ent, e0_i, e_i_max,
             splitting.local_expectation(psi), splitting.interaction_expectation(psi))
    reports = [ground_report(m, ms, *values) for m, ms, values in
               zip(models, [measured] if one else measured, zip(*(np.reshape(x, -1).tolist() for x in given)))]
    return reports[0] if one else reports


@dataclass(frozen=True, eq=False)
class ProofStepDiagnostics:
    """Checks of the chain of inequalities behind the ground-state bound.

    The expansion of the ground state in the product eigenbasis of H_L is
    cut at local energy E0_L + delta_e_ent (strictly below, by energy, so
    degenerate levels are handled as sets).  The kept component must point
    along a product state; one minus its weight is sandwiched between the
    entanglement and E_f / delta_e_ent.

    The bound's excess over the entanglement splits exactly as
        excess = ef_bound - entanglement =
            overshoot_local + overshoot_interaction + entanglement_gap:
    the local energy overshoot of the cut expansion, the interaction
    frustration over delta_e_ent, and the gap between the leftover weight
    and the entanglement itself.
    """

    below_threshold: tuple[tuple[int, ...], ...]
    sum_alpha_sq: float
    truncated_norm: float
    truncated_entanglement: float | None
    truncated_is_product: bool
    weight_bound: float  # 1 - sum_alpha_sq
    weight_leq_ef_bound: bool
    entanglement_leq_weight: bool
    excess: float
    overshoot_local: float  # (local_frustration - weight_bound * delta_e_ent) / delta_e_ent
    overshoot_interaction: float  # interaction_frustration / delta_e_ent
    entanglement_gap: float  # weight_bound - entanglement

    @property
    def all_ok(self) -> bool:
        return self.truncated_is_product and self.weight_leq_ef_bound and self.entanglement_leq_weight

    @property
    def identity_residual(self) -> float:
        return self.excess - (self.overshoot_local + self.overshoot_interaction + self.entanglement_gap)


def proof_step_check(spec: LocalSpectrum, report: FrustrationReport,
                     ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS) -> ProofStepDiagnostics:
    """Check each step of a ground-state report's cut expansion in one model's local spectrum and split its excess."""
    if spec.energies.ndim > 1:
        raise ValueError("a family's local spectrum holds many models: pass its member(m)")
    delta = spec.delta_e_ent
    if report.ef_bound is None or delta <= 0:
        raise UndefinedBoundError(f"delta_e_ent = {delta:g} leaves the bound undefined")

    threshold = report.E0_L + delta
    below = np.flatnonzero(spec.energies < threshold - STRUCTURAL_TOL * tol_scale(threshold))
    alpha = local_coefficients(spec, report.ground_state.amplitudes)
    sum_alpha_sq = float(np.sum(np.abs(alpha[below]) ** 2))
    truncated = np.zeros_like(alpha)
    truncated[below] = alpha[below]
    truncated = truncated.reshape(spec.dims)
    for vecs in spec.site_eigenvectors:  # the inverse of local_coefficients
        truncated = np.tensordot(truncated, vecs, axes=([0], [1]))
    truncated = truncated.reshape(-1)
    tnorm = float(np.linalg.norm(truncated))
    if tnorm > ZERO_NORM:
        tpsi = ent.PureState.normalized(truncated, spec.dims)
        truncated_entanglement, _ = state_entanglement(tpsi, ent_opts)
        is_product = truncated_entanglement <= STRUCTURAL_TOL
    else:
        truncated_entanglement = None
        is_product = True  # empty component: nothing to test

    weight_bound = 1.0 - sum_alpha_sq
    return ProofStepDiagnostics(
        below_threshold=tuple(spec.config_of_flat(int(f)) for f in below),
        sum_alpha_sq=sum_alpha_sq,
        truncated_norm=tnorm,
        truncated_entanglement=truncated_entanglement,
        truncated_is_product=is_product,
        weight_bound=weight_bound,
        weight_leq_ef_bound=weight_bound <= report.ef_bound + STRUCTURAL_TOL,
        entanglement_leq_weight=report.entanglement <= weight_bound + TOL_ENT,
        excess=report.ef_bound - report.entanglement,
        overshoot_local=(report.local_frustration - weight_bound * delta) / delta,
        overshoot_interaction=report.interaction_frustration / delta,
        entanglement_gap=weight_bound - report.entanglement,
    )


@dataclass(frozen=True, eq=False)
class ProductSubspace:
    """Product states differing only at one site, on a fixed background.

    Spanned by local eigenstates that share the configuration everywhere
    except ``varying_site``; every superposition of members factorizes.
    """

    varying_site: int
    fixed_configuration: tuple[int | None, ...]  # None marks the varying site
    members: tuple[tuple[int, ...], ...]
    member_energies: tuple[float, ...]


def _site_members(dims, flat: int, site: int) -> np.ndarray:
    """Flat indices of the product states equal to ``flat`` except at ``site``, by level."""
    stride = math.prod(dims[site + 1:])
    base = flat - (flat // stride % dims[site]) * stride
    return base + stride * np.arange(dims[site])


def delta_j_ent(spec: LocalSpectrum, config) -> tuple[float, ProductSubspace]:
    """Best-case cost of leaving a product subspace through a given state.

    Over the subspaces containing the state (one per varying site), returns
    the largest minimal energy distance to the states outside, i.e. the cost
    of exciting or de-exciting at least two subsystems; ties break toward
    the lowest varying-site index.  The subspace varying site s holds the
    d_s flat indices base + stride * arange(d_s) (``_site_members``), so
    each site's outside energies are one ``np.delete`` of the product
    energies.
    """
    config = tuple(int(c) for c in config)
    flat = spec.flat_of_config(config)
    e_j = float(spec.energies[flat])
    best_delta, best_site = -np.inf, 0
    for s in range(len(spec.dims)):
        outside = np.delete(spec.energies, _site_members(spec.dims, flat, s))
        delta = float(np.min(np.abs(e_j - outside)))
        if delta > best_delta + TIE_TOL:
            best_delta, best_site = delta, s
    members = _site_members(spec.dims, flat, best_site)
    fixed = tuple(None if s == best_site else c for s, c in enumerate(config))
    return best_delta, ProductSubspace(best_site, fixed, tuple(spec.config_of_flat(m) for m in members),
                                       tuple(float(e) for e in spec.energies[members]))


@dataclass(frozen=True, eq=False)
class ExcitedBoundReport:
    """Entanglement bounds for the j-th eigenstate of H (ascending energy).

    ``h_i_norm`` is the operator norm of H_I, which for a Hermitian H_I is
    also its spectral radius.  ``bound_29`` uses the spectral radius in the
    denominator margin, ``bound_30`` the operator norm, so the two coincide.
    ``bound_exact_gap`` is the sharper variant computed from the exact
    eigenvalue's distance to the local spectrum outside the chosen subspace.
    Bounds are absent (None) where their margins close.
    """

    j: int
    E_j: float
    local_config: tuple[int, ...]
    E_L_j: float
    chosen_subspace: ProductSubspace
    delta_j_ent: float
    delta_j_Kperp: float
    h_i_norm: float
    e_i_max_eigenvalue: float
    bound_29: float | None
    bound_30: float | None
    bound_exact_gap: float | None
    entanglement: float
    entanglement_method: str
    precondition_met: bool
    pairing_flag: bool


def analyze_excited(splitting: Splitting, j: int | Sequence[int], ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS
                    ) -> ExcitedBoundReport | list[ExcitedBoundReport]:
    """Bound report for the j-th eigenstate, paired with the j-th local level.

    The pairing is by sorted index on both sides, local levels sorted stably
    (ties in configuration order).  When the maximal-overlap product state
    is at another local level, the report is flagged (``pairing_flag``).

    Given a sequence of indices, the list of their reports, in order.  The
    spectra of H and H_L, the tolerance scale and the extremes of H_I are
    read once per call, and the eigenstates' entanglement is one batched
    ``state_entanglement`` call, each value the one its state alone gives.
    """
    one = isinstance(j, (int, np.integer))
    js = [j] if one else j
    if not isinstance(splitting.model, SpinModel):
        raise ValueError("a family's splitting is read by analyze_ground only: split one model")
    dec = splitting.model.spectrum
    dimension = dec.eigenvalues.size
    for i in js:
        if i < 0 or i >= dimension:
            raise IndexError(f"eigenstate index {i} out of range for dimension {dimension}")
    scale = tol_scale(dec.eigenvalues[0], dec.eigenvalues[-1])
    margin_tol = CLOSED_MARGIN_TOL * scale
    e_i_0, e_i_max = interaction_extremes(splitting)
    h_norm = max(abs(e_i_0), abs(e_i_max))
    spec = splitting.local
    order = np.argsort(spec.energies, kind="stable")
    psis = [ent.PureState(dec.eigenvectors[:, j], splitting.model.dims) for j in js]
    measured = state_entanglement(psis, ent_opts)

    reports = []
    for j, (value, method) in zip(js, measured):
        e_j = float(dec.eigenvalues[j])
        flat_j = int(order[j])
        e_l_j = float(spec.energies[flat_j])
        config_j = spec.config_of_flat(flat_j)
        delta_j, subspace = delta_j_ent(spec, config_j)
        # delta_j_Kperp: distance from E_j to the local energies outside the subspace
        outside = np.delete(spec.energies, _site_members(spec.dims, flat_j, subspace.varying_site))
        delta_kperp = float(np.min(np.abs(e_j - outside)))
        margin = delta_j - h_norm
        bound_29 = h_norm * h_norm / (margin * margin) if margin > margin_tol else None
        bound_exact = h_norm * h_norm / (delta_kperp * delta_kperp) if delta_kperp > margin_tol else None
        top_flat = int(np.argmax(np.abs(local_coefficients(spec, dec.eigenvectors[:, j]))))
        reports.append(ExcitedBoundReport(
            j=int(j),
            E_j=e_j,
            local_config=config_j,
            E_L_j=e_l_j,
            chosen_subspace=subspace,
            delta_j_ent=delta_j,
            delta_j_Kperp=delta_kperp,
            h_i_norm=h_norm,
            e_i_max_eigenvalue=e_i_max,
            bound_29=bound_29,
            bound_30=bound_29,
            bound_exact_gap=bound_exact,
            entanglement=value,
            entanglement_method=method,
            precondition_met=delta_j > h_norm,
            pairing_flag=abs(float(spec.energies[top_flat]) - e_l_j) > STRUCTURAL_TOL * scale,
        ))
    return reports[0] if one else reports
