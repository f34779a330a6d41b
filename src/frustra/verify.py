"""Randomized verification suites, the instance ensembles they draw from,
and the transverse-Ising comparison against closed forms.

Each suite replays a seeded ensemble of random instances against the
package's inequalities and reports failure counts plus worst margins.
The same runners back the command-line selftest and the acceptance tests,
so trial counts are parameters rather than constants.  ``ising_sweep_rows``
compares the numeric two-spin analysis with the closed forms, one row per
field of a grid split as one family; the ``sweep`` subcommand prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import entanglement as ent
from .bounds import analyze_ground, proof_step_check
from .errors import DegenerateSeparationError, FrustraError
from .linalg import (
    MIN_GAP, ORACLE_EXACT_TOL, ORACLE_GRID_TOL, ORACLE_W_TOL, ROUNDOFF_TOL, STACK_ENTRIES, STRUCTURAL_TOL, TOL_ENT,
    NormKind, _lapack, appendix_norm_check, haar_unitary, op_norm, singular_values, sv_norm, tol_scale,
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
from .saturation import saturation_sweep, schmidt_splitting

# ---------------------------------------------------------------------------
# ensembles


def gaussian_hermitian(rng: np.random.Generator, n: int, norm: float | None = None, lead: tuple = ()) -> np.ndarray:
    """Hermitian matrix with Gaussian entries, or a lead-shaped stack of them from one draw, each matrix's bits
    those of one call per matrix; optionally rescaled in operator norm."""
    x = rng.normal(size=(*lead, 2, n, n))
    z = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    h = (z + z.conj().swapaxes(-1, -2)) / 2.0
    return h if norm is None else _normalized(h, norm)


def _normalized(h: np.ndarray, norm) -> np.ndarray:
    """h rescaled to operator norm ``norm``, or each matrix of a stack to its own entry of an array of norms."""
    current = _lapack(np.linalg.svd, h, compute_uv=False)[..., 0]  # np.linalg.norm(h, 2) of each matrix
    if not current.all():
        raise ValueError("zero draw cannot be normalized")
    return h * (norm / current)[..., None, None]


def random_state(rng: np.random.Generator, dims) -> ent.PureState:
    total = int(np.prod(dims))
    z = rng.normal(size=total) + 1j * rng.normal(size=total)
    return ent.PureState.normalized(z, tuple(dims))


def random_two_site_model(rng: np.random.Generator, d: int, name: str = "random2") -> SpinModel:
    """Random local terms on both sites plus three random product interactions, each pair one draw after its
    coefficient."""
    terms = [
        OperatorTerm(1.0, [(0, gaussian_hermitian(rng, d))]),
        OperatorTerm(1.0, [(1, gaussian_hermitian(rng, d))]),
    ]
    for _ in range(3):
        coeff = rng.normal()
        a, b = gaussian_hermitian(rng, d, norm=1.0, lead=(2,))
        terms.append(OperatorTerm(coeff, [(0, a), (1, b)]))
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
    for left in (0, 1):  # the bonds (0, 1) and (1, 2), each pair one draw
        a, b = gaussian_hermitian(rng, 2, norm=1.0, lead=(2,))
        couplings.append(OperatorTerm(1.0, [(left, a), (left + 1, b)]))
    h_i = dense_terms(couplings, (2, 2, 2))
    current = op_norm(h_i)
    target = min(gaps) / 10.0 * rng.uniform(0.3, 1.0)
    scaled = [OperatorTerm(t.coeff * target / current, t.factors) for t in couplings]
    return SpinModel(name="weak3", dims=(2, 2, 2), terms=tuple(local_terms + scaled))


# ---------------------------------------------------------------------------
# closed-form comparison


def ising_sweep_rows(gs) -> list[dict]:
    """One comparison row per field g: numeric analysis against closed forms.

    The models ising2(g) are split as one family by the default policy (both
    fields local) and with site 0's field alone local; each row is what the
    two analyze_ground reports of its model give.
    """
    gs = [float(g) for g in gs]  # a numpy scalar would warn, not give inf, where 4 g^2 overflows
    for g in gs:
        if not np.isfinite(1.0 + 4.0 * g * g):  # the closed forms' sqrt(1 + 4 g^2), past |g| ~ 6.7e153
            raise OverflowError(f"1 + 4 g^2 at g = {g:g} is not finite")
    if not gs:
        return []
    models = [ising2(g) for g in gs]
    rows = []
    for g, sym, asym in zip(gs, *(analyze_ground(split(models, local)) for local in (None, [0]))):
        gse, fb, fb2 = ising2_exact_entanglement(g), ising2_exact_bound_symmetric(g), ising2_exact_bound_asymmetric(g)
        rows.append({
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
        })
    return rows


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
    every step of the bound's proof (``bounds.proof_step_check`` on the report
    and the family's ``local.member(m)``).  A trial fails when any check fails.
    The models are split and analyzed in families of STACK_ENTRIES // d^4.
    """
    failures = 0
    worst_ef = np.inf
    worst_slack = -np.inf
    for d in (2, 3):
        size = max(1, STACK_ENTRIES // d**4)
        for lo in range(0, trials_per_kind, size):
            models = [random_two_site_model(np.random.default_rng([seed, d, t]), d, name=f"random2(d={d},t={t})")
                      for t in range(lo, min(lo + size, trials_per_kind))]
            family = split(models)
            for m, report in enumerate(analyze_ground(family)):
                scale = tol_scale(report.E0, report.E0_L, report.E0_I, report.E_I_tot)
                ok = report.E_f >= -STRUCTURAL_TOL * scale
                ok = ok and report.E_f <= report.E_I_tot + STRUCTURAL_TOL * scale
                worst_ef = min(worst_ef, report.E_f)
                if report.delta_e_ent > MIN_GAP:
                    slack = max(report.entanglement - report.ef_bound,
                                report.entanglement - report.ratio_bound)
                    worst_slack = max(worst_slack, slack)
                    proof_ok = proof_step_check(family.local.member(m), report).all_ok
                    ok = ok and slack <= TOL_ENT and proof_ok
                if not ok:
                    failures += 1
            del models, family  # so that two families are never held at once
    return SuiteResult(
        name="bound-properties",
        trials=2 * trials_per_kind,
        failures=failures,
        ok=failures == 0,
        stats={"min_E_f": worst_ef, "worst_bound_slack": worst_slack},
    )


def saturation_suite(instances: int = 50, seed: int = 77,
                     gammas=(1e-1, 1e-2, 1e-3)) -> SuiteResult:
    """Schmidt-splitting sweeps on random bipartite Hamiltonians.

    An instance fails when the excess over the entanglement is absent (an
    undefined bound) or not strictly positive at some gamma, or when
    ``bounds.proof_step_check`` in the local spectrum of a record's Schmidt
    splitting finds a step broken (``all_ok``; the construction promises
    that the kept component is a product state), or the exact excess
    identity broken by more than STRUCTURAL_TOL * max(1, |ef_bound|), or the
    leftover weight off the entanglement (``entanglement_gap``) by more than
    STRUCTURAL_TOL, which the construction makes exact.  The suite also
    needs the excess to decay like the smallest gamma for most instances,
    and to be negligible against the entanglement at gamma = 1e-3.
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
        if any(e is None or not 0.0 < e < np.inf for e in ex):
            failures += 1
            continue
        diags = [proof_step_check(schmidt_splitting(model, r.gamma).local, r.report) for r in records]
        if any(not diag.all_ok or abs(diag.identity_residual) > STRUCTURAL_TOL * tol_scale(r.report.ef_bound)
               or abs(diag.entanglement_gap) > STRUCTURAL_TOL for r, diag in zip(records, diags)):
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


def perturbation_trial(seed: int, index, dims=(4, 8, 16)):
    """One seeded theorem check, or a list of them for a sequence of trial indices, each bit for bit its own.

    Each dimension's trials are solved as stacks of STACK_ENTRIES // d^2 trials (at least one), in
    redraw rounds (_trial_stack): a stack's arrays hold at most that many entries, or one trial's.  An error, or the
    64-attempt cap, is raised for the lowest trial that meets it.
    """
    indices = [index] if np.ndim(index) == 0 else [int(t) for t in index]
    done = {}  # trial -> its report, or the error it raised
    for n in dict.fromkeys(dims):
        group = [t for t in dict.fromkeys(indices) if dims[t % len(dims)] == n]
        size = max(1, STACK_ENTRIES // (n * n))
        for lo in range(0, len(group), size):
            done.update(_trial_stack(seed, group[lo:lo + size], 0, dims))
    for t in sorted(t for t, outcome in done.items() if isinstance(outcome, Exception))[:1]:
        raise done[t]
    return [done[t] for t in indices] if np.ndim(index) else done[index]


def _trial_stack(seed: int, trials: list, attempt: int, dims) -> dict:
    """{trial: its report, or the error it raised} for trials of one dimension solved as one stack, drawn at attempt.

    A trial draws B and C from default_rng([seed, trial, attempt]), and redraws at attempt + 1 if its selected
    eigenvalue lands near or on the beta set (delta_a < 0.02, or DegenerateSeparationError), which would make the
    bound vacuous.  A stack that raises is solved again member by member, so each error is its own trial's.
    """
    if not trials or attempt == 64:
        return {t: DegenerateSeparationError(f"no well-separated draw for trial {t}") for t in trials}
    n = dims[trials[0] % len(dims)]
    draws = np.array([gaussian_hermitian(np.random.default_rng([seed, t, attempt]), n, lead=(2,)) for t in trials])
    norms = np.array([[1.0, PERTURBATION_C_NORMS[(t // len(dims)) % len(PERTURBATION_C_NORMS)]] for t in trials])
    try:
        b, c = _normalized(draws, norms).swapaxes(0, 1)
        inst = hermitian_instance(b, c, range(n // 2, n))
        done = {t: rep for t, rep, far in zip(trials, check_theorem(inst), inst.delta_a >= 0.02) if far}
    except (FrustraError, ValueError, ArithmeticError) as exc:  # ValueError: a zero draw, or entries not finite
        if len(trials) > 1:
            return {t: out for one in trials for t, out in _trial_stack(seed, [one], attempt, dims).items()}
        done = {} if isinstance(exc, DegenerateSeparationError) else {trials[0]: exc}
    return done | _trial_stack(seed, [t for t in trials if t not in done], attempt + 1, dims)


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
    reports = perturbation_trial(seed, range(trials), dims=dims)
    for t, rep in enumerate(reports if collect is not None else []):
        collect(t, rep)
    failures = sum(not rep.all_ok for rep in reports)
    ratio = sharpness_witness(1e-3)
    return SuiteResult(
        name="perturbation-theorem",
        trials=trials,
        failures=failures,
        ok=failures == 0 and ratio >= 0.99,
        stats={"worst_psd_margin": min([np.inf] + [rep.op_ineq_margin for rep in reports]), "sharpness_ratio": ratio},
    )


def oracle_suite(two_qubit: int = 200, three_qubit: int = 50, seed: int = 5) -> SuiteResult:
    """Alternating optimizer against the exact Schmidt value and the grid oracle."""
    failures = 0
    worst_bi = 0.0
    worst_tri = 0.0
    pairs = [random_state(np.random.default_rng([seed, 2, t]), (2, 2)) for t in range(two_qubit)]
    alts = ent.geometric_measures_multipartite(pairs)
    for alt, exact in zip(alts, ent.geometric_measure_bipartite(pairs)):  # one SVD for all pairs
        err = abs(alt.value - exact.value)
        worst_bi = max(worst_bi, err)
        if err > ORACLE_EXACT_TOL:
            failures += 1

    ghz = ent.PureState.normalized([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
    w = ent.PureState.normalized([0, 1, 1, 0, 1, 0, 0, 0], (2, 2, 2))
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
        sv = singular_values(dyad)
        values = [sv_norm(sv, kind) for kind in NormKind]
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
