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
upper bound on the eigenstate's entanglement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import entanglement as ent
from .errors import EnumerationCapError, UndefinedBoundError
from .linalg import CLOSED_MARGIN_TOL, STRUCTURAL_TOL, TIE_TOL, TOL_ENT, ZERO_NORM, tol_scale
from .models import LocalSpectrum, SpinModel, Splitting, interaction_extremes

SUBSPACE_MEMBER_CAP = 10**6


@dataclass(frozen=True)
class EntanglementOptions:
    """Knobs for the entanglement computation inside bound reports."""

    restarts: int = ent.DEFAULT_RESTARTS
    tol: float = ent.DEFAULT_TOL
    max_iters: int = ent.DEFAULT_MAX_ITERS
    seed: int = ent.DEFAULT_SEED


DEFAULT_ENT_OPTS = EntanglementOptions()


def multipartite_entanglement(psi: ent.PureState, opts: EntanglementOptions = DEFAULT_ENT_OPTS):
    """(value, method) from the alternating optimizer, for any number of sites."""
    res = ent.geometric_measure_multipartite(
        psi, restarts=opts.restarts, tol=opts.tol, max_iters=opts.max_iters, seed=opts.seed
    )
    return res.value, res.method


def state_entanglement(psi: ent.PureState, opts: EntanglementOptions = DEFAULT_ENT_OPTS):
    """(value, method): exact Schmidt route for two parties, alternating otherwise."""
    if psi.num_sites == 2:
        res = ent.geometric_measure_bipartite(psi)
        return res.value, res.method
    return multipartite_entanglement(psi, opts)


def ground_entanglement(model: SpinModel, opts: EntanglementOptions = DEFAULT_ENT_OPTS):
    """(value, method) of the model's ground state, computed once per options.

    The ground state is the first eigenvector of the decomposition the model
    keeps, so the result depends only on (model, opts); it is kept in
    ``model.entanglement_memo`` and shared by every splitting of the model.
    """
    memo = model.entanglement_memo
    if opts not in memo:
        psi = ent.PureState(model.spectrum.eigenvectors[:, 0], model.dims)
        memo[opts] = state_entanglement(psi, opts)
    return memo[opts]


def local_coefficients(spec: LocalSpectrum, vector: np.ndarray) -> np.ndarray:
    """Expansion coefficients of a state in the product eigenbasis of H_L.

    Returned flat in configuration (lex) order: alpha[flat] = <prod_flat|v>.
    """
    t = np.asarray(vector, dtype=complex).reshape(spec.dims)
    for vecs in spec.site_eigenvectors:
        t = np.tensordot(t, vecs.conj(), axes=([0], [0]))
    return t.reshape(-1)


@dataclass(frozen=True, eq=False)
class FrustrationReport:
    """Ground-state energies, frustration split, entanglement, and bounds."""

    model: str
    E0: float
    ground_state: ent.PureState
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

    def to_dict(self, include_state: bool = True) -> dict:
        out = {
            "model": self.model,
            "E0": self.E0,
            "E0_L": self.E0_L,
            "E0_I": self.E0_I,
            "E_f": self.E_f,
            "delta_e_ent": self.delta_e_ent,
            "entanglement": self.entanglement,
            "entanglement_method": self.entanglement_method,
            "ef_bound": self.ef_bound,
            "ef_bound_reason": self.ef_bound_reason,
            "ratio_bound": self.ratio_bound,
            "ratio_bound_reason": self.ratio_bound_reason,
            "E_I_max": self.E_I_max,
            "E_I_tot": self.E_I_tot,
            "local_frustration": self.local_frustration,
            "interaction_frustration": self.interaction_frustration,
            "degenerate_ground": self.degenerate_ground,
        }
        if include_state:
            out["ground_state"] = {
                "dims": list(self.ground_state.dims),
                "amplitudes": [[float(a.real), float(a.imag)] for a in self.ground_state.amplitudes],
            }
        return out


def cut_expansion(spec: LocalSpectrum, report: FrustrationReport):
    """The ground state's product-basis expansion, cut at E0_L + delta_e_ent.

    The cut is strict by energy, so degenerate levels are kept or dropped as
    sets.  Returns (flat indices below the cut, all coefficients alpha,
    weight below the cut).
    """
    threshold = report.E0_L + spec.delta_e_ent
    eps = STRUCTURAL_TOL * tol_scale(threshold)
    below = np.flatnonzero(spec.energies < threshold - eps)
    alpha = local_coefficients(spec, report.ground_state.amplitudes)
    return below, alpha, float(np.sum(np.abs(alpha[below]) ** 2))


def analyze_ground(splitting: Splitting,
                   ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS) -> FrustrationReport:
    """Full frustration report for one splitting.

    With a degenerate ground level the solver's first eigenvector is used
    and flagged; the bounds hold for any ground state, so no minimization
    over the ground space is attempted.
    """
    dec = splitting.model.spectrum
    vals = dec.eigenvalues
    scale = tol_scale(vals[0], vals[-1])
    degenerate = bool(vals.size > 1 and vals[1] - vals[0] <= STRUCTURAL_TOL * scale)
    e0 = float(vals[0])
    ground = dec.eigenvectors[:, 0]
    psi = ent.PureState(ground, splitting.model.dims)

    spec = splitting.local
    e0_l = float(np.sum([v[0] for v in spec.site_eigenvalues]))
    e0_i, e_i_max, e_i_tot = interaction_extremes(splitting)
    e_f = e0 - e0_l - e0_i

    hl = splitting.dense_local()
    hi = splitting.dense_interaction()
    exp_l = float(np.real(ground.conj() @ (hl @ ground)))
    exp_i = float(np.real(ground.conj() @ (hi @ ground)))

    value, method = ground_entanglement(splitting.model, ent_opts)

    delta = spec.delta_e_ent
    if delta > STRUCTURAL_TOL * scale:
        ef_bound, ef_reason = e_f / delta, None
        ratio_bound, ratio_reason = e_i_tot / delta, None
    else:
        reason = f"delta_e_ent = {delta:g}"
        ef_bound = ratio_bound = None
        ef_reason = ratio_reason = reason

    return FrustrationReport(
        model=splitting.model.name,
        E0=e0,
        ground_state=psi,
        E0_L=e0_l,
        E0_I=e0_i,
        E_f=e_f,
        delta_e_ent=delta,
        entanglement=value,
        entanglement_method=method,
        ef_bound=ef_bound,
        ef_bound_reason=ef_reason,
        ratio_bound=ratio_bound,
        ratio_bound_reason=ratio_reason,
        E_I_max=e_i_max,
        E_I_tot=e_i_tot,
        local_frustration=exp_l - e0_l,
        interaction_frustration=exp_i - e0_i,
        degenerate_ground=degenerate,
    )


@dataclass(frozen=True, eq=False)
class ProofStepDiagnostics:
    """Checks of the chain of inequalities behind the ground-state bound.

    The expansion of the ground state in the product eigenbasis of H_L is
    cut at local energy E0_L + delta_e_ent (strictly below, by energy, so
    degenerate levels are handled as sets).  The kept component must point
    along a product state; one minus its weight is sandwiched between the
    entanglement and E_f / delta_e_ent.
    """

    below_threshold: tuple[tuple[int, ...], ...]
    sum_alpha_sq: float
    truncated_norm: float
    truncated_entanglement: float | None
    truncated_is_product: bool
    weight_bound: float  # 1 - sum_alpha_sq
    weight_leq_ef_bound: bool
    entanglement_leq_weight: bool

    @property
    def all_ok(self) -> bool:
        return self.truncated_is_product and self.weight_leq_ef_bound and self.entanglement_leq_weight


def proof_step_check(splitting: Splitting,
                     report: FrustrationReport | None = None,
                     ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS) -> ProofStepDiagnostics:
    """Recompute the cut expansion of the ground state and verify each step."""
    if report is None:
        report = analyze_ground(splitting, ent_opts)
    spec = splitting.local
    delta = spec.delta_e_ent
    if report.ef_bound is None or delta <= 0:
        raise UndefinedBoundError(f"delta_e_ent = {delta:g} leaves the bound undefined")

    below, alpha, sum_alpha_sq = cut_expansion(spec, report)
    truncated = np.zeros(spec.dimension, dtype=complex)
    for flat in below:
        truncated += alpha[flat] * spec.product_vector(spec.config_of_flat(int(flat)))
    tnorm = float(np.linalg.norm(truncated))
    if tnorm > ZERO_NORM:
        tpsi = ent.PureState.normalized(truncated, splitting.model.dims)
        tval, _ = state_entanglement(tpsi, ent_opts)
        truncated_entanglement = tval
        is_product = tval <= STRUCTURAL_TOL
    else:
        truncated_entanglement = None
        is_product = True  # empty component: nothing to test

    weight_bound = 1.0 - sum_alpha_sq
    ok_weight = weight_bound <= report.ef_bound + STRUCTURAL_TOL
    ok_ent = report.entanglement <= weight_bound + TOL_ENT

    return ProofStepDiagnostics(
        below_threshold=tuple(spec.config_of_flat(int(f)) for f in below),
        sum_alpha_sq=sum_alpha_sq,
        truncated_norm=tnorm,
        truncated_entanglement=truncated_entanglement,
        truncated_is_product=is_product,
        weight_bound=weight_bound,
        weight_leq_ef_bound=ok_weight,
        entanglement_leq_weight=ok_ent,
    )


@dataclass(frozen=True, eq=False)
class ProductSubspace:
    """Product states differing only at one site, on a fixed background.

    Spanned by local eigenstates that share the configuration everywhere
    except ``varying_site``; every superposition of members factorizes.
    """

    varying_site: int
    fixed_config: tuple[int | None, ...]  # None marks the varying site
    members: tuple[tuple[int, ...], ...]
    member_energies: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "varying_site": self.varying_site,
            "fixed_configuration": [c for c in self.fixed_config],
            "members": [list(m) for m in self.members],
            "member_energies": list(self.member_energies),
        }


def _subspace(spec: LocalSpectrum, varying: int, config) -> ProductSubspace:
    members = []
    energies = []
    for level in range(spec.dims[varying]):
        c = list(config)
        c[varying] = level
        members.append(tuple(c))
        energies.append(float(spec.energies[spec.flat_of_config(c)]))
    fixed = tuple(None if s == varying else int(config[s]) for s in range(len(spec.dims)))
    return ProductSubspace(varying, fixed, tuple(members), tuple(energies))


def enumerate_product_subspaces(spec: LocalSpectrum) -> list[ProductSubspace]:
    """All product subspaces: one per (varying site, background configuration).

    There are sum_s prod_{i != s} d_i of them; each product state belongs to
    exactly one subspace per choice of varying site.
    """
    n = len(spec.dims)
    if n < 2:
        raise ValueError("product subspaces need at least 2 sites")
    total_members = n * spec.dimension
    if total_members > SUBSPACE_MEMBER_CAP:
        raise EnumerationCapError(
            f"{total_members} subspace members exceed the cap {SUBSPACE_MEMBER_CAP}"
        )
    out = []
    for s in range(n):
        other_ranges = [range(d) for i, d in enumerate(spec.dims) if i != s]
        for rest in itertools.product(*other_ranges):
            config = list(rest[:s]) + [0] + list(rest[s:])
            out.append(_subspace(spec, s, config))
    return out


def delta_j_ent(spec: LocalSpectrum, config) -> tuple[float, ProductSubspace]:
    """Best-case cost of leaving a product subspace through a given state.

    Over the subspaces containing the state (one per varying site), returns
    the largest minimal energy distance to the states outside, i.e. the cost
    of exciting or de-exciting at least two subsystems; ties break toward
    the lowest varying-site index.
    """
    config = tuple(int(c) for c in config)
    n = len(spec.dims)
    flat_all = np.arange(spec.dimension)
    coords = np.stack(np.unravel_index(flat_all, spec.dims), axis=1)
    e_j = float(spec.energies[spec.flat_of_config(config)])
    eq = coords == np.array(config)

    best_delta = -np.inf
    best_site = 0
    for s in range(n):
        others = [t for t in range(n) if t != s]
        in_subspace = np.all(eq[:, others], axis=1)
        outside = spec.energies[~in_subspace]
        delta = float(np.min(np.abs(e_j - outside))) if outside.size else np.inf
        if delta > best_delta + TIE_TOL:
            best_delta = delta
            best_site = s
    return best_delta, _subspace(spec, best_site, config)


def eigenstate_setup(splitting: Splitting, j: int):
    """(scale, E_j, |E_j>, local spectrum, max eigenvalue of H_I, ||H_I||).

    The j-th eigenstate of H comes from the decomposition the model keeps;
    ||H_I|| is the spectral radius, which equals the operator norm of the
    Hermitian interaction.
    """
    dec = splitting.model.spectrum
    scale = tol_scale(dec.eigenvalues[0], dec.eigenvalues[-1])
    dimension = dec.eigenvalues.size
    if j < 0 or j >= dimension:
        raise IndexError(f"eigenstate index {j} out of range for dimension {dimension}")
    e_i_0, e_i_max, _ = interaction_extremes(splitting)
    return (scale, float(dec.eigenvalues[j]), dec.eigenvectors[:, j], splitting.local,
            e_i_max, max(abs(e_i_0), abs(e_i_max)))


def outside_subspace(spec: LocalSpectrum, energy: float, subspace: ProductSubspace):
    """(mask of the product states outside the subspace, delta_j_Kperp).

    delta_j_Kperp is the distance from the energy to the local energies of
    the states outside the subspace.
    """
    outside = np.ones(spec.dimension, dtype=bool)
    outside[[spec.flat_of_config(m) for m in subspace.members]] = False
    return outside, float(np.min(np.abs(energy - spec.energies[outside])))


@dataclass(frozen=True, eq=False)
class ExcitedBoundReport:
    """Entanglement bounds for the j-th eigenstate of H (ascending energy).

    ``bound_29`` uses the spectral radius of H_I in the denominator margin,
    ``bound_30`` the operator norm; for Hermitian interactions the two
    coincide.  ``bound_exact_gap`` is the sharper variant computed from the
    exact eigenvalue's distance to the local spectrum outside the chosen
    subspace.  Bounds are absent (None) where their margins close.
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
    e_i_spectral_radius: float
    bound_29: float | None
    bound_30: float | None
    bound_exact_gap: float | None
    entanglement: float
    entanglement_method: str
    precondition_met: bool
    pairing_flag: bool

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "E_j": self.E_j,
            "local_config": list(self.local_config),
            "E_L_j": self.E_L_j,
            "chosen_subspace": self.chosen_subspace.to_dict(),
            "delta_j_ent": self.delta_j_ent,
            "delta_j_Kperp": self.delta_j_Kperp,
            "h_i_norm": self.h_i_norm,
            "e_i_max_eigenvalue": self.e_i_max_eigenvalue,
            "e_i_spectral_radius": self.e_i_spectral_radius,
            "bound_29": self.bound_29,
            "bound_30": self.bound_30,
            "bound_exact_gap": self.bound_exact_gap,
            "entanglement": self.entanglement,
            "entanglement_method": self.entanglement_method,
            "precondition_met": self.precondition_met,
            "pairing_flag": self.pairing_flag,
        }


def analyze_excited(splitting: Splitting, j: int,
                    ent_opts: EntanglementOptions = DEFAULT_ENT_OPTS) -> ExcitedBoundReport:
    """Bound report for the j-th eigenstate, paired with the j-th local level.

    The pairing is by sorted index on both sides.  When the maximal-overlap
    product state belongs to a different local energy level, the report is
    flagged (``pairing_flag``) rather than silently reassociated.
    """
    scale, e_j, vec_j, spec, e_i_max, h_norm = eigenstate_setup(splitting, j)
    config_j = spec.sorted_config(j)
    e_l_j = float(spec.energies[spec.flat_of_config(config_j)])

    delta_j, subspace = delta_j_ent(spec, config_j)
    _, delta_kperp = outside_subspace(spec, e_j, subspace)
    radius = h_norm  # Hermitian interaction: operator norm equals spectral radius

    margin_tol = CLOSED_MARGIN_TOL * scale
    precondition = delta_j > radius
    bound_29 = h_norm**2 / (delta_j - radius) ** 2 if delta_j - radius > margin_tol else None
    bound_30 = h_norm**2 / (delta_j - h_norm) ** 2 if delta_j - h_norm > margin_tol else None
    bound_exact = h_norm**2 / delta_kperp**2 if delta_kperp > margin_tol else None

    value, method = multipartite_entanglement(ent.PureState(vec_j, splitting.model.dims), ent_opts)

    alpha = local_coefficients(spec, vec_j)
    top_flat = int(np.argmax(np.abs(alpha)))
    pairing_flag = abs(float(spec.energies[top_flat]) - e_l_j) > STRUCTURAL_TOL * scale

    return ExcitedBoundReport(
        j=j,
        E_j=e_j,
        local_config=config_j,
        E_L_j=e_l_j,
        chosen_subspace=subspace,
        delta_j_ent=delta_j,
        delta_j_Kperp=delta_kperp,
        h_i_norm=h_norm,
        e_i_max_eigenvalue=e_i_max,
        e_i_spectral_radius=radius,
        bound_29=bound_29,
        bound_30=bound_30,
        bound_exact_gap=bound_exact,
        entanglement=value,
        entanglement_method=method,
        precondition_met=precondition,
        pairing_flag=pairing_flag,
    )
