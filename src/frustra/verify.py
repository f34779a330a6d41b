"""Randomized verification suites, the instance ensembles they draw from,
and the transverse-Ising comparison against closed forms.

Each suite replays a seeded ensemble of random instances against the
package's inequalities and reports failure counts plus worst margins.
The same runners back the command-line selftest and the acceptance tests,
so trial counts are parameters rather than constants.  ``ising_sweep_row``
compares the numeric two-spin analysis with the closed forms at one field;
the ``sweep`` subcommand prints one row per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import entanglement as ent
from .bounds import analyze_ground, proof_step_check
from .errors import DegenerateSeparationError
from .linalg import (
    MIN_GAP, ORACLE_EXACT_TOL, ORACLE_GRID_TOL, ORACLE_W_TOL, ROUNDOFF_TOL, STRUCTURAL_TOL, TOL_ENT,
    NormKind, appendix_norm_check, haar_unitary, tol_scale, ui_norm,
)
from .models import (
    OperatorTerm,
    SpinModel,
    dense_bipartite_model,
    dense_terms,
    ising2,
    ising2_exact_bound_asymmetric,
    ising2_exact_bound_symmetric,
    ising2_exact_entanglement,
    split,
)
from .perturbation import check_theorem, hermitian_instance
from .saturation import excess_decomposition, saturation_sweep, schmidt_splitting

# ---------------------------------------------------------------------------
# ensembles


def gaussian_hermitian(rng: np.random.Generator, n: int, norm: float | None = None) -> np.ndarray:
    """Hermitian matrix with Gaussian entries; optionally rescaled in operator norm."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    if norm is not None:
        current = float(np.linalg.norm(h, 2))
        if current == 0.0:
            raise ValueError("zero draw cannot be normalized")
        h = h * (norm / current)
    return h


def random_state(rng: np.random.Generator, dims) -> ent.PureState:
    total = int(np.prod(dims))
    z = rng.normal(size=total) + 1j * rng.normal(size=total)
    return ent.PureState.normalized(z, tuple(dims))


def random_two_site_model(rng: np.random.Generator, d: int, name: str = "random2") -> SpinModel:
    """Random local terms on both sites plus three random product interactions."""
    terms = [
        OperatorTerm(1.0, [(0, gaussian_hermitian(rng, d))]),
        OperatorTerm(1.0, [(1, gaussian_hermitian(rng, d))]),
    ]
    for _ in range(3):
        terms.append(OperatorTerm(
            rng.normal(),
            [(0, gaussian_hermitian(rng, d, norm=1.0)), (1, gaussian_hermitian(rng, d, norm=1.0))],
        ))
    return SpinModel(name=name, dims=(d, d), terms=tuple(terms))


def random_weak_chain(rng: np.random.Generator) -> SpinModel:
    """Three qubits with local gaps at least ten times the interaction norm."""
    local_terms = []
    gaps = []
    for site in range(3):
        g = rng.uniform(0.5, 1.5)
        u = haar_unitary(2, rng)
        op = g * (u @ np.diag([-1.0, 1.0]) @ u.conj().T)
        local_terms.append(OperatorTerm(1.0, [(site, op)]))
        gaps.append(2.0 * g)
    couplings = []
    for pair in ((0, 1), (1, 2)):
        couplings.append(OperatorTerm(
            1.0,
            [(pair[0], gaussian_hermitian(rng, 2, norm=1.0)),
             (pair[1], gaussian_hermitian(rng, 2, norm=1.0))],
        ))
    h_i = dense_terms(couplings, (2, 2, 2))
    current = float(np.linalg.norm(h_i, 2))
    target = min(gaps) / 10.0 * rng.uniform(0.3, 1.0)
    scaled = [OperatorTerm(t.coeff * target / current, t.factors) for t in couplings]
    return SpinModel(name="weak3", dims=(2, 2, 2), terms=tuple(local_terms + scaled))


# ---------------------------------------------------------------------------
# closed-form comparison


def ising_sweep_row(g: float) -> dict:
    """One comparison row: numeric analysis against closed forms at field g."""
    g = float(g)  # a numpy scalar would warn, not give inf, where 4 g^2 overflows
    if not np.isfinite(1.0 + 4.0 * g * g):  # the closed forms' sqrt(1 + 4 g^2), past |g| ~ 6.7e153
        raise OverflowError(f"1 + 4 g^2 at g = {g:g} is not finite")
    model = ising2(g)
    sym = analyze_ground(split(model))
    asym = analyze_ground(split(model, local=[0]))
    gse = ising2_exact_entanglement(g)
    fb = ising2_exact_bound_symmetric(g)
    fb2 = ising2_exact_bound_asymmetric(g)
    return {
        "g": g,
        "entanglement": sym.entanglement,
        "ef_bound_symmetric": sym.ef_bound,
        "ef_bound_asymmetric": asym.ef_bound,
        "closed_form_gse": gse,
        "closed_form_fb": fb,
        "closed_form_fb2": fb2,
        "dev_entanglement": abs(sym.entanglement - gse),
        "dev_ef_symmetric": abs(sym.ef_bound - fb) if sym.ef_bound is not None else None,
        "dev_ef_asymmetric": abs(asym.ef_bound - fb2) if asym.ef_bound is not None else None,
    }


# ---------------------------------------------------------------------------
# suite results


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    ok: bool
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# suites


def bound_property_suite(trials_per_kind: int = 500, seed: int = 2024) -> SuiteResult:
    """Random two-qubit and two-qutrit models against the ground-state bounds.

    Checks E_f >= -STRUCTURAL_TOL * scale, E_f <= E_I_tot + STRUCTURAL_TOL * scale,
    and, when delta_e_ent > MIN_GAP, entanglement <= both bounds + TOL_ENT and
    every step of the bound's proof (``bounds.proof_step_check`` on the
    model's report).  A trial fails when any check fails.
    """
    failures = 0
    worst_ef = np.inf
    worst_slack = -np.inf
    total = 0
    for d in (2, 3):
        for t in range(trials_per_kind):
            total += 1
            rng = np.random.default_rng([seed, d, t])
            model = random_two_site_model(rng, d, name=f"random2(d={d},t={t})")
            splitting = split(model)
            report = analyze_ground(splitting)
            scale = tol_scale(report.E0, report.E0_L, report.E0_I, report.E_I_tot)
            ok = report.E_f >= -STRUCTURAL_TOL * scale
            ok = ok and report.E_f <= report.E_I_tot + STRUCTURAL_TOL * scale
            worst_ef = min(worst_ef, report.E_f)
            if report.delta_e_ent > MIN_GAP:
                slack = max(report.entanglement - report.ef_bound,
                            report.entanglement - report.ratio_bound)
                worst_slack = max(worst_slack, slack)
                proof_ok = proof_step_check(splitting, report).all_ok
                ok = ok and slack <= TOL_ENT and proof_ok
            if not ok:
                failures += 1
    return SuiteResult(
        name="bound-properties",
        trials=total,
        failures=failures,
        ok=failures == 0,
        stats={"min_E_f": worst_ef, "worst_bound_slack": worst_slack},
    )


def saturation_suite(instances: int = 50, seed: int = 77,
                     gammas=(1e-1, 1e-2, 1e-3)) -> SuiteResult:
    """Schmidt-splitting sweeps on random bipartite Hamiltonians.

    An instance fails when the excess over the entanglement is not strictly
    positive at every gamma, or when a record breaks the exact identity of
    ``saturation.excess_decomposition`` by more than
    STRUCTURAL_TOL * max(1, |ef_bound|), or when its leftover weight differs
    from the entanglement (``entanglement_gap``) by more than STRUCTURAL_TOL,
    which the construction makes exact.  The suite also needs the excess to
    decay like the smallest gamma for most instances, and to be negligible
    against the entanglement at gamma = 1e-3.
    """
    failures = 0
    decay_ok = 0
    ratios = []
    for i in range(instances):
        d = 2 if i % 2 == 0 else 3
        rng = np.random.default_rng([seed, i])
        h = gaussian_hermitian(rng, d * d)
        model = dense_bipartite_model(h, (d, d), name=f"gue(d={d},i={i})")
        records = saturation_sweep(model, gammas)
        ex = [r.excess for r in records]
        if any(not np.isfinite(e) or e <= 0.0 for e in ex):
            failures += 1
            continue
        decompositions = [
            excess_decomposition(schmidt_splitting(model, r.gamma), r.report)
            for r in records
        ]
        if any(abs(dec.identity_residual) > STRUCTURAL_TOL * tol_scale(dec.ef_bound)
               or abs(dec.entanglement_gap) > STRUCTURAL_TOL for dec in decompositions):
            failures += 1
            continue
        if ex[-1] <= 0.3 * ex[-2]:
            decay_ok += 1
        e_val = records[-1].report.entanglement
        if e_val >= 0.05:
            ratios.append(ex[-1] / e_val)
    decay_fraction = decay_ok / instances
    median_ratio = float(np.median(ratios)) if ratios else 0.0
    ok = failures == 0 and decay_fraction >= 0.9 and median_ratio <= 0.05
    return SuiteResult(
        name="saturation",
        trials=instances,
        failures=failures,
        ok=ok,
        stats={"decay_fraction": decay_fraction, "median_excess_ratio": median_ratio},
    )


PERTURBATION_C_NORMS = (0.01, 0.1, 1.0)  # ||C|| of the trials, one per cycle through dims


def perturbation_trial(seed: int, index: int, dims=(4, 8, 16)):
    """One seeded theorem check; redraws (deterministically) if the selected
    eigenvalue lands on the beta set, which would make the bound vacuous."""
    n = dims[index % len(dims)]
    c_norm = PERTURBATION_C_NORMS[(index // len(dims)) % len(PERTURBATION_C_NORMS)]
    for attempt in range(64):
        rng = np.random.default_rng([seed, index, attempt])
        b = gaussian_hermitian(rng, n, norm=1.0)
        c = gaussian_hermitian(rng, n, norm=c_norm)
        try:
            inst = hermitian_instance(b, c, range(n // 2, n))
            if inst.delta_a < 0.02:
                continue
            return check_theorem(inst)
        except DegenerateSeparationError:
            continue
    raise DegenerateSeparationError(f"no well-separated draw for trial {index}")


def sharpness_witness(eps: float = 1e-3) -> float:
    """Tightness ratio of the 2x2 family diag(0,1) + eps*offdiag.

    The canonical cosine between the perturbed ground state and the upper
    eigenvector approaches ||C|| / Delta_a as eps -> 0; the returned ratio
    cosine * Delta_a / ||C|| therefore tends to 1.
    """
    b = np.diag([0.0, 1.0]).astype(complex)
    c = eps * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    inst = hermitian_instance(b, c, [1])
    rep = check_theorem(inst)
    cosine = float(rep.canonical_cosines[0])
    return cosine * inst.delta_a / eps


def perturbation_suite(trials: int = 500, dims=(4, 8, 16), seed: int = 1, collect=None) -> SuiteResult:
    """Seeded random Hermitian instances against both operator inequalities
    and the three-norm chain, plus the 2x2 sharpness witness.

    ``collect(trial, report)``, when given, sees every report in trial order.
    """
    failures = 0
    worst_margin = np.inf
    for t in range(trials):
        rep = perturbation_trial(seed, t, dims=dims)
        worst_margin = min(worst_margin, rep.op_ineq_margin)
        if not rep.all_ok:
            failures += 1
        if collect is not None:
            collect(t, rep)
    ratio = sharpness_witness(1e-3)
    ok = failures == 0 and ratio >= 0.99
    return SuiteResult(
        name="perturbation-theorem",
        trials=trials,
        failures=failures,
        ok=ok,
        stats={"worst_psd_margin": worst_margin, "sharpness_ratio": ratio},
    )


def oracle_suite(two_qubit: int = 200, three_qubit: int = 50, seed: int = 5) -> SuiteResult:
    """Alternating optimizer against the exact Schmidt value and the grid oracle."""
    failures = 0
    worst_bi = 0.0
    worst_tri = 0.0
    pairs = [random_state(np.random.default_rng([seed, 2, t]), (2, 2)) for t in range(two_qubit)]
    alts = ent.geometric_measures_multipartite(pairs)
    for psi, alt in zip(pairs, alts):
        err = abs(alt.value - ent.geometric_measure_bipartite(psi).value)
        worst_bi = max(worst_bi, err)
        if err > ORACLE_EXACT_TOL:
            failures += 1

    ghz = ent.PureState.normalized(
        np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex), (2, 2, 2))
    w = ent.PureState.normalized(
        np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex), (2, 2, 2))
    triples = [random_state(np.random.default_rng([seed, 3, t]), (2, 2, 2))
               for t in range(three_qubit)]
    *alts, ghz_res, w_res = ent.geometric_measures_multipartite(triples + [ghz, w])
    for psi, alt in zip(triples, alts):
        err = abs(alt.value - ent.brute_force_geometric_measure(psi, grid_depth=5).value)
        worst_tri = max(worst_tri, err)
        if err > ORACLE_GRID_TOL:
            failures += 1
    ghz_val, w_val = ghz_res.value, w_res.value
    if abs(ghz_val - 0.5) > ORACLE_EXACT_TOL:
        failures += 1
    if abs(w_val - 5.0 / 9.0) > ORACLE_W_TOL:
        failures += 1
    return SuiteResult(
        name="measure-oracle",
        trials=two_qubit + three_qubit + 2,
        failures=failures,
        ok=failures == 0,
        stats={"worst_bipartite_err": worst_bi, "worst_tripartite_err": worst_tri,
               "ghz": ghz_val, "w": w_val},
    )


def norm_suite(matrices: int = 200, seed: int = 9) -> SuiteResult:
    """Operator <= Hilbert-Schmidt <= trace on random matrices,
    with exact three-way equality on rank-1 dyads."""
    failures = 0
    for t in range(matrices):
        rng = np.random.default_rng([seed, t])
        n = 2 + t % 15
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if not appendix_norm_check(m):
            failures += 1
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        dyad = np.outer(v / np.linalg.norm(v), (w / np.linalg.norm(w)).conj())
        values = [ui_norm(dyad, kind) for kind in NormKind]
        if max(values) - min(values) > ROUNDOFF_TOL:
            failures += 1
    return SuiteResult(
        name="norm-dominance", trials=matrices, failures=failures, ok=failures == 0
    )


def run_all(seed: int = 0, scale: float = 1.0) -> list[SuiteResult]:
    """Every randomized suite, with trial counts scaled for quick runs."""
    def k(n):
        return max(1, int(round(n * scale)))

    return [
        bound_property_suite(trials_per_kind=k(500), seed=seed + 2024),
        saturation_suite(instances=k(50), seed=seed + 77),
        perturbation_suite(trials=k(500), seed=seed + 1),
        oracle_suite(two_qubit=k(200), three_qubit=k(50), seed=seed + 5),
        norm_suite(matrices=k(200), seed=seed + 9),
    ]
