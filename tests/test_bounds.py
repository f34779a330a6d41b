import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import frustra.bounds
import frustra.models
import frustra.entanglement
import frustra.verify
from frustra.bounds import (
    EntanglementOptions,
    analyze_excited,
    analyze_ground,
    json_values,
    delta_j_ent,
    local_coefficients,
    proof_step_check,
    state_entanglement,
)
from frustra.entanglement import (
    PureState, geometric_measure_bipartite, geometric_measure_multipartite, geometric_measures_multipartite, schmidt,
)
from frustra.errors import InvalidAssignmentError, UndefinedBoundError
from frustra.linalg import RECONSTRUCTION_TOL
from frustra.models import (
    OperatorTerm,
    SpinModel,
    build_dense,
    chain3,
    ising2,
    local_spectrum,
    split,
    transverse_chain,
    triangle,
)
from frustra.perturbation import hermitian_instance
from frustra.saturation import schmidt_splitting
from frustra.verify import (
    bound_property_suite, gaussian_hermitian, ising_sweep_rows, perturbation_trial, random_state,
    random_two_site_model, random_weak_chain,
)
from conftest import product_vector

FAST = EntanglementOptions(restarts=8)


def exact_symmetric_bound(g):
    return (1 + 2 * g - np.sqrt(1 + 4 * g * g)) / (2 * g)


def exact_entanglement(g):
    return 0.5 - g / np.sqrt(1 + 4 * g * g)


# ---------------------------------------------------------------------------
# analyze_ground


def test_ising_symmetric_report():
    r = analyze_ground(split(ising2(1.0)))
    assert abs(r.E_f - (3 - np.sqrt(5.0))) < 1e-12
    assert abs(r.delta_e_ent - 2.0) < 1e-12
    assert abs(r.ef_bound - exact_symmetric_bound(1.0)) < 1e-12
    assert abs(r.ef_bound - 0.3819660) < 1e-7
    assert abs(r.entanglement - exact_entanglement(1.0)) < 1e-9
    assert abs(r.entanglement - 0.0527864) < 1e-7
    assert not r.degenerate_ground
    # ratio bound: E_I_tot = 2, delta = 2
    assert abs(r.E_I_tot - 2.0) < 1e-12
    assert abs(r.ratio_bound - 1.0) < 1e-12


def test_ising_asymmetric_report():
    r = analyze_ground(split(ising2(1.0), local=[0]))
    expected = 0.5 - (np.sqrt(5.0) - np.sqrt(2.0)) / 2.0
    assert abs(r.ef_bound - expected) < 1e-12
    assert abs(r.ef_bound - 0.0890728) < 1e-7
    assert r.entanglement <= r.ef_bound + 1e-9


def test_triangle_report_degenerate_and_undefined():
    r = analyze_ground(split(triangle(1.0)))
    assert abs(r.E0 + 1.0) < 1e-12
    assert abs(r.E0_L) == 0.0
    assert abs(r.E0_I + 1.0) < 1e-12
    assert abs(r.E_f) < 1e-12
    assert r.delta_e_ent == 0.0
    assert r.ef_bound is None and r.ratio_bound is None
    assert r.ef_bound_reason == "delta_e_ent = 0"
    assert r.degenerate_ground


@given(st.integers(0, 3_000), st.sampled_from([2, 3]))
def test_report_identities_random(seed, d):
    model = random_two_site_model(np.random.default_rng(seed), d)
    r = analyze_ground(split(model))
    scale = max(1.0, abs(r.E0), abs(r.E0_L), abs(r.E0_I))
    assert abs(r.E_f - (r.E0 - r.E0_L - r.E0_I)) <= 1e-10 * scale
    assert r.E_f >= -1e-9 * scale
    assert abs(r.local_frustration + r.interaction_frustration - r.E_f) <= 1e-9 * scale
    assert r.local_frustration <= r.E_f + 1e-9 * scale
    assert r.interaction_frustration >= -1e-9 * scale
    assert r.E_f <= r.E_I_tot + 1e-9 * scale
    if r.ef_bound is not None:
        assert r.entanglement <= r.ef_bound + 1e-6
        assert r.entanglement <= r.ratio_bound + 1e-6


def test_bound_depends_on_splitting_entanglement_does_not():
    model = ising2(1.0)
    reports = [
        analyze_ground(split(model)),
        analyze_ground(split(model, local=[0])),
        analyze_ground(schmidt_splitting(model, 0.05)),
    ]
    ents = [r.entanglement for r in reports]
    assert max(ents) - min(ents) < 1e-8
    bounds = [r.ef_bound for r in reports]
    assert max(bounds) - min(bounds) > 1e-3


def test_frustration_zero_iff_shared_ground():
    # commuting pieces with a shared ground state: E_f = 0
    shared = SpinModel("shared", (2, 2), (
        OperatorTerm(-1.0, [(0, "Z")]),
        OperatorTerm(-1.0, [(1, "Z")]),
        OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
    ))
    r = analyze_ground(split(shared))
    assert abs(r.E_f) < 1e-12
    # perturbed interaction: no shared ground state, E_f > 0
    clash = SpinModel("clash", (2, 2), (
        OperatorTerm(-1.0, [(0, "Z")]),
        OperatorTerm(-1.0, [(1, "Z")]),
        OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
        OperatorTerm(0.3, [(0, "X"), (1, "X")]),
    ))
    r2 = analyze_ground(split(clash))
    assert r2.E_f > 1e-6


# ---------------------------------------------------------------------------
# proof steps


def test_proof_steps_ising():
    s = split(ising2(1.0))
    r = analyze_ground(s)
    diag = proof_step_check(s.local, r)
    # only the (0,0) = |++> configuration lies strictly below E0_L + delta
    assert diag.below_threshold == ((0, 0),)
    lam0_sq = 0.5 + 1 / np.sqrt(5.0)
    assert abs(diag.sum_alpha_sq - lam0_sq) < 1e-12
    assert abs(diag.weight_bound - r.entanglement) < 1e-9
    assert diag.truncated_is_product
    assert diag.all_ok


def test_proof_steps_commuting_zero_slack():
    model = SpinModel("shared", (2, 2), (
        OperatorTerm(-1.0, [(0, "Z")]),
        OperatorTerm(-1.0, [(1, "Z")]),
        OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
    ))
    s = split(model)
    diag = proof_step_check(s.local, analyze_ground(s))
    assert diag.all_ok
    assert diag.weight_bound <= 1e-12  # ground state is the kept product state


@given(st.integers(0, 2_000))
def test_proof_steps_random_two_qutrit(seed):
    model = random_two_site_model(np.random.default_rng(seed), 3)
    s = split(model)
    r = analyze_ground(s)
    if r.ef_bound is None or r.delta_e_ent < 1e-6:
        return
    diag = proof_step_check(s.local, r)
    assert diag.all_ok


def test_proof_steps_with_an_empty_kept_component():
    """Fields -(Z_0 + Z_1) keep only |00> below E0_L + delta_e_ent = 0, and J |00><00| with J > 2 lifts it past the
    degenerate ground level {|01>, |10>}: the kept component is empty, so there is no product state to test."""
    p0 = np.diag([1.0, 0.0])
    model = SpinModel("lifted", (2, 2), (OperatorTerm(-1.0, [(0, "Z")]), OperatorTerm(-1.0, [(1, "Z")]),
                                         OperatorTerm(3.0, [(0, p0), (1, p0)])))
    s = split(model)
    report = analyze_ground(s)
    assert report.degenerate_ground and report.E0 == 0.0 and report.ef_bound == 1.0
    diag = proof_step_check(s.local, report)
    assert diag.below_threshold == ((0, 0),) and diag.sum_alpha_sq == 0.0 and diag.truncated_norm == 0.0
    assert diag.truncated_entanglement is None and diag.truncated_is_product
    assert diag.weight_bound == 1.0 and diag.all_ok


def test_proof_steps_undefined():
    s = split(triangle(1.0))
    with pytest.raises(UndefinedBoundError):
        proof_step_check(s.local, analyze_ground(s))


def test_bound_suite_counts_a_failed_proof_step(monkeypatch):
    real = frustra.verify.proof_step_check

    def failing(splitting, report):
        return dataclasses.replace(real(splitting, report), truncated_is_product=False)

    monkeypatch.setattr(frustra.verify, "proof_step_check", failing)
    result = bound_property_suite(trials_per_kind=2)
    assert result.trials == 4 and result.failures == 4 and not result.ok


def test_bound_suite_solves_each_family_s_local_spectrum_once(monkeypatch):
    """500 trials a kind are one two-qubit family and three two-qutrit ones; the proof checks read their members."""
    calls, solve = [], frustra.models.local_spectrum
    monkeypatch.setattr(frustra.models, "local_spectrum", lambda s: calls.append(s) or solve(s))
    assert bound_property_suite(trials_per_kind=500).ok
    assert len(calls) == 4


def test_bound_suite_draws_its_families_in_chunks(monkeypatch):
    """At 2 * 81 entries a family, 13 trials a kind are two-qubit families of 10 and 3 and two-qutrit ones of 2 (six
    times) and 1, with the stats of one family a kind."""
    whole = json.dumps(dataclasses.asdict(bound_property_suite(trials_per_kind=13, seed=5)))
    families, split_ = [], frustra.verify.split

    def spy(model, local=None):
        families.extend([] if isinstance(model, SpinModel) else [len(model)])
        return split_(model, local)

    monkeypatch.setattr(frustra.verify, "split", spy)
    monkeypatch.setattr(frustra.verify, "STACK_ENTRIES", 2 * 81)
    assert json.dumps(dataclasses.asdict(bound_property_suite(trials_per_kind=13, seed=5))) == whole
    assert families == [10, 3] + [2] * 6 + [1]


# ---------------------------------------------------------------------------
# product subspaces


def test_subspace_superpositions_are_product(rng):
    model = random_two_site_model(rng, 3)
    spec = local_spectrum(split(model))
    for flat in np.argsort(spec.energies, kind="stable")[:3]:
        _, sub = delta_j_ent(spec, spec.config_of_flat(flat))
        weights = rng.normal(size=len(sub.members)) + 1j * rng.normal(size=len(sub.members))
        vec = np.zeros(spec.energies.size, dtype=complex)
        for w, member in zip(weights, sub.members):
            vec += w * product_vector(spec, member)
        psi = PureState.normalized(vec, spec.dims)
        res = geometric_measure_multipartite(psi, restarts=4)
        assert res.value <= 1e-9


# ---------------------------------------------------------------------------
# delta_j_ent


def test_delta_j_ent_ising_ground():
    spec = local_spectrum(split(ising2(1.0)))
    delta, sub = delta_j_ent(spec, (0, 0))
    assert abs(delta - 2.0) < 1e-12
    assert sub.varying_site == 0  # tie with site 1 broken to the lowest index
    assert sub.members == ((0, 0), (1, 0))


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 3)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_delta_j_ent_brute_force_oracle(dims, monkeypatch):
    # random per-site fields and a weak coupling, so E_j leaves the local
    # levels; the oracle enumerates every configuration, every subspace
    # containing it and every energy outside, with energies summed per site
    rng = np.random.default_rng(17)
    terms = [OperatorTerm(1.0, [(i, gaussian_hermitian(rng, d))]) for i, d in enumerate(dims)]
    terms.append(OperatorTerm(0.1, [(0, gaussian_hermitian(rng, dims[0], norm=1.0)),
                                    (1, gaussian_hermitian(rng, dims[1], norm=1.0))]))
    s = split(SpinModel("fields", dims, tuple(terms)))
    spec = s.local
    configs = list(itertools.product(*map(range, dims)))
    energy = {c: sum(spec.site_eigenvalues[i][c[i]] for i in range(len(dims))) for c in configs}

    def members(config, site):
        return tuple(config[:site] + (level,) + config[site + 1:] for level in range(dims[site]))

    def distance_outside(e, config, site):
        return min(abs(e - energy[k]) for k in configs if k not in members(config, site))

    def chosen_site(config):
        dists = [distance_outside(energy[config], config, i) for i in range(len(dims))]
        return next(i for i, d in enumerate(dists) if d >= max(dists) - 1e-12), max(dists)

    for config in configs:
        site, best = chosen_site(config)
        delta, sub = delta_j_ent(spec, config)
        assert abs(delta - best) < 1e-12
        assert sub.varying_site == site
        assert sub.members == members(config, site)
        np.testing.assert_allclose(sub.member_energies, [energy[m] for m in sub.members],
                                   rtol=0, atol=1e-12)
        assert sub.fixed_configuration == tuple(None if i == site else c
                                                for i, c in enumerate(config))

    e_h = np.linalg.eigvalsh(build_dense(s.model))
    ranked = sorted(configs, key=energy.get)
    reports = analyze_excited(s, list(range(spec.energies.size)),
                              EntanglementOptions(restarts=0, max_iters=1))
    for j, r in enumerate(reports):
        assert r.local_config == ranked[j]
        kperp = distance_outside(e_h[j], ranked[j], chosen_site(ranked[j])[0])
        assert abs(r.delta_j_Kperp - kperp) < 1e-10

    # the truncated ground component against sum_f alpha_f |f>, one Kronecker chain per kept member
    ground = analyze_ground(s)
    measured = []
    monkeypatch.setattr(frustra.bounds, "state_entanglement",
                        lambda psi, opts: measured.append(psi) or state_entanglement(psi, opts))
    diag = proof_step_check(s.local, ground)
    alpha = local_coefficients(spec, ground.ground_state.amplitudes)
    ref = sum(alpha[spec.flat_of_config(c)] * product_vector(spec, c) for c in diag.below_threshold)
    ref_value, _ = state_entanglement(PureState.normalized(ref, dims))
    np.testing.assert_allclose(measured[0].amplitudes, ref / np.linalg.norm(ref), rtol=0, atol=1e-12)
    assert abs(diag.truncated_norm - np.linalg.norm(ref)) < 1e-12
    assert abs(diag.truncated_entanglement - ref_value) < 1e-12


def test_delta_j_ent_zero_local():
    spec = local_spectrum(split(triangle(1.0)))
    for config in itertools.product((0, 1), repeat=3):
        delta, _ = delta_j_ent(spec, config)
        assert delta == 0.0


# ---------------------------------------------------------------------------
# excited-state bounds


def test_excited_ising_g2():
    r = analyze_excited(split(ising2(2.0)), 0)
    assert abs(r.delta_j_ent - 4.0) < 1e-12
    assert abs(r.e_i_max_eigenvalue - 1.0) < 1e-12
    assert abs(r.h_i_norm - 1.0) < 1e-12
    assert abs(r.bound_29 - 1.0 / 9.0) < 1e-12
    assert abs(r.entanglement - (0.5 - 2 / np.sqrt(17.0))) < 1e-8
    assert r.entanglement <= r.bound_29
    assert r.precondition_met
    assert not r.pairing_flag


def test_excited_no_interaction():
    model = SpinModel("local-only", (2, 2), (
        OperatorTerm(-1.0, [(0, "X")]),
        OperatorTerm(-1.0, [(1, "X")]),
    ))
    r = analyze_excited(split(model), 0)
    assert r.bound_29 == 0.0
    assert r.entanglement <= 1e-9


def test_excited_index_range():
    with pytest.raises(IndexError):
        analyze_excited(split(ising2(1.0)), 4)


def test_excited_single_index_is_its_batch_member():
    s = split(chain3())
    batch = analyze_excited(s, range(8), FAST)
    assert len(batch) == 8
    for j, report in enumerate(batch):
        assert json_values(analyze_excited(s, j, FAST)) == json_values(report)
        assert json_values(analyze_excited(s, [j], FAST)[0]) == json_values(report)
    one = analyze_excited(s, np.int64(3), FAST)  # a numpy integer is one index
    assert one.j == 3 and type(one.j) is int
    assert json_values(one) == json_values(batch[3])
    with pytest.raises(IndexError):
        analyze_excited(s, [0, 8], FAST)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)], ids=["two-party", "three-party"])
def test_state_entanglement_single_is_its_batch_member(dims):
    psis = [random_state(np.random.default_rng([17, seed]), dims) for seed in range(3)]
    batch = state_entanglement(psis, FAST)
    assert len(batch) == 3
    assert [state_entanglement(psi, FAST) for psi in psis] == batch
    assert state_entanglement(psis[:1], FAST) == batch[:1]


def test_excited_weakly_coupled_sample():
    for seed in range(6):
        model = random_weak_chain(np.random.default_rng([31, seed]))
        s = split(model)
        for j in range(8):
            r = analyze_excited(s, j, FAST)
            if r.precondition_met and r.bound_29 is not None:
                assert r.entanglement <= r.bound_29 + 1e-9
            if r.bound_29 is not None and r.bound_30 is not None:
                assert r.bound_30 >= r.bound_29 - 1e-12


def test_chain3_per_bipartition_cuts():
    # every two-party cut of the three-spin chain obeys its own ratio bound;
    # a strong field on the middle spin suppresses its cut's bound
    from frustra.models import chain3, regroup

    model = chain3(1.0, 10.0, 1.0)
    cuts = {"A|BC": ((0,), (1, 2)), "B|AC": ((1,), (0, 2)), "C|AB": ((2,), (0, 1))}
    reports = {}
    for name, parts in cuts.items():
        r = analyze_ground(split(regroup(model, parts)))
        assert r.ratio_bound is not None
        assert r.entanglement <= r.ratio_bound + 1e-6
        reports[name] = r
    assert reports["B|AC"].ratio_bound < 1.0
    assert reports["B|AC"].ratio_bound < reports["A|BC"].ratio_bound


def test_local_coefficients_match_direct_overlaps(rng):
    model = random_two_site_model(rng, 3)
    s = split(model)
    spec = local_spectrum(s)
    vec = rng.normal(size=9) + 1j * rng.normal(size=9)
    vec /= np.linalg.norm(vec)
    alpha = local_coefficients(spec, vec)
    for flat in range(9):
        direct = np.vdot(product_vector(spec, spec.config_of_flat(flat)), vec)
        assert abs(alpha[flat] - direct) < 1e-12


def test_ground_entanglement_is_kept_per_options():
    model = transverse_chain(3)
    psi = PureState(model.spectrum.eigenvectors[:, 0], model.dims)
    short = EntanglementOptions(restarts=0, max_iters=1)
    splits = (split(model), split(model, local=[0]))
    values = []
    for opts in (short, FAST):
        want, _ = state_entanglement(psi, opts)
        assert [analyze_ground(s, opts).entanglement for s in splits] == [want, want]
        values.append(want)
    assert values[0] != values[1]  # the options matter for this state
    assert len(model.ground_state.entanglement_memo) == 2


def first_args(monkeypatch, module, name) -> list:
    """The first argument of each call of module.name, in call order."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda arg, *args, **kwargs: calls.append(arg) or real(arg, *args, **kwargs))
    return calls


def test_a_state_is_measured_once_per_options(monkeypatch):
    calls = first_args(monkeypatch, frustra.entanglement, "geometric_measures_multipartite")
    psi = random_state(np.random.default_rng(3), (2, 2, 2))
    first = state_entanglement(psi, FAST)
    assert state_entanglement(psi, EntanglementOptions(restarts=8)) == first  # equal options, one run
    assert len(calls) == 1
    state_entanglement(psi, EntanglementOptions(restarts=0, max_iters=1))
    assert len(calls) == 2 and len(psi.entanglement_memo) == 2


@pytest.mark.parametrize("dims, route", [((2, 2, 2), "geometric_measures_multipartite"), ((2, 3), "schmidt")])
def test_a_sequence_measures_only_its_unmeasured_states(monkeypatch, dims, route):
    psis = [random_state(np.random.default_rng(seed), dims) for seed in range(5)]
    fresh = [state_entanglement(PureState(p.amplitudes, dims), FAST) for p in psis]
    for p in psis[::2]:
        state_entanglement(p, FAST)
    calls = first_args(monkeypatch, frustra.entanglement, route)
    assert state_entanglement(psis, FAST) == fresh
    assert calls == [psis[1::2]]


# ---------------------------------------------------------------------------
# families: one stacked solve, each report bit for bit its model's own


def _bits(report):
    return json.dumps(json_values(report))  # float repr: every bit, the sign of zero included


def _close(got, want):
    """json_values trees equal but for floats, which agree to RECONSTRUCTION_TOL * max(1, |want|)."""
    if isinstance(want, float):
        assert abs(got - want) <= RECONSTRUCTION_TOL * max(1.0, abs(want))
    elif isinstance(want, (list, dict)):
        assert len(got) == len(want)
        for g, w in (zip(got.values(), want.values()) if isinstance(want, dict) else zip(got, want)):
            _close(g, w)
    else:
        assert got == want


@pytest.mark.parametrize("gs", [[0.0], [-1.5], [0.7], list(np.linspace(-3, 3, 13)), [1e150, -2.5, 0.0, 3e-300]],
                         ids=["zero", "negative", "single", "grid", "extremes"])
def test_sweep_rows_are_the_per_point_reports(gs):
    models = [ising2(g) for g in gs]
    sym, asym = (analyze_ground(split(models, local)) for local in (None, [0]))
    for g, row, s, a in zip(gs, ising_sweep_rows(gs), sym, asym):
        model = ising2(g)
        want_s, want_a = analyze_ground(split(model)), analyze_ground(split(model, local=[0]))
        assert _bits(s) == _bits(want_s) and _bits(a) == _bits(want_a)
        assert (row["g"], row["entanglement"], row["ef_bound_symmetric"], row["ef_bound_asymmetric"]) == (
            g, want_s.entanglement, want_s.ef_bound, want_a.ef_bound)


@pytest.mark.parametrize("make", [
    lambda x: chain3(ga=x, jbc=1.0 - x),
    lambda x: SpinModel("qutrits", (3, 3), tuple(OperatorTerm(c * x, t.factors) for c, t in zip(
        (1.0, -0.5, 2.0), random_two_site_model(np.random.default_rng(4), 3).terms[1:4]))),
], ids=["chain3", "qutrits"])
def test_family_reports_are_each_model_s_own(make):
    xs = [-0.4, 0.0, 0.3, 1.2]
    models = [make(x) for x in xs]
    splits = (None, [0], [])
    reports = [analyze_ground(split(models, local)) for local in splits]
    for local, row in zip(splits, reports):
        for model, report in zip(models, row):
            fresh = make(xs[models.index(model)])
            assert _bits(report) == _bits(analyze_ground(split(fresh, local)))


def test_a_family_whose_y_field_crosses_zero_is_solved_in_complex():
    """The member at Y coefficient 0 has no imaginary part, but its family's stacks are complex: its report matches
    its own to round-off, and every other member's report is its own bit for bit."""
    def make(y):
        return SpinModel("y-field", (2, 2), ising2(0.7).terms + (OperatorTerm(y, [(1, "Y")]),))

    ys = [-0.6, 0.0, 0.5]
    for local in (None, [0], []):
        for y, report in zip(ys, analyze_ground(split([make(y) for y in ys], local))):
            want = analyze_ground(split(make(y), local))
            if y:
                assert _bits(report) == _bits(want)
            else:
                _close(json_values(report), json_values(want))


def test_a_family_of_real_and_complex_members_is_solved_in_complex():
    """Members whose factors are all real, and members with complex ones, on the same sites: the family's stacks are
    complex, so a real member's report matches its own to round-off and a complex member's is its own bit for bit."""
    def make(t, real):
        model = random_two_site_model(np.random.default_rng([31, t]), 2)
        if not real:
            return model
        return SpinModel(model.name, model.dims, tuple(
            OperatorTerm(term.coeff, [(i, op.real) for i, op in term.factors]) for term in model.terms))

    kinds = [True, False, False, True, False]
    assert [build_dense(make(t, real)).dtype for t, real in enumerate(kinds)] == [
        np.float64 if real else np.complex128 for real in kinds]
    for local in (None, [0], []):
        family = analyze_ground(split([make(t, real) for t, real in enumerate(kinds)], local))
        for t, (real, report) in enumerate(zip(kinds, family)):
            want = analyze_ground(split(make(t, real), local))
            if real:
                _close(json_values(report), json_values(want))
            else:
                assert _bits(report) == _bits(want)


def test_a_family_shares_its_dims_and_term_sites():
    with pytest.raises(ValueError, match="family"):
        analyze_ground(split([ising2(1.0), triangle(1.0)], None))
    with pytest.raises(ValueError, match="family"):
        analyze_ground(split([transverse_chain(8), transverse_chain(8, 2.0)], None))  # the ground tier
    with pytest.raises(ValueError, match="family"):  # equal dims, but the coupling on other sites
        split([ising2(1.0), SpinModel("moved", (2, 2), ising2(1.0).terms[:2] + (OperatorTerm(-1.0, [(1, "Z")]),))])
    for bad in ([0, 0], [3], [2]):  # a repeat, out of range, an interaction term: split's own errors
        with pytest.raises(InvalidAssignmentError):
            analyze_ground(split([ising2(1.0)], bad))
    assert ising_sweep_rows([]) == []
    with pytest.raises(ValueError, match="family"):
        split([])

    def rebuilt(scale):  # ising2(1.0)'s terms at twice the coefficients, each factor a new matrix times scale
        return SpinModel(f"rebuilt({scale!r})", (2, 2), tuple(
            OperatorTerm(2 * t.coeff, [(i, np.array(op) * scale) for i, op in t.factors]) for t in ising2(1.0).terms))

    scales = [1.0, 1 + 2**-52, 1.5]  # the second one ulp off in every nonzero entry
    for local in (None, [0], []):
        family = analyze_ground(split([ising2(1.0)] + [rebuilt(x) for x in scales], local))
        assert _bits(family[0]) == _bits(analyze_ground(split(ising2(1.0), local)))
        for x, report in zip(scales, family[1:]):
            assert _bits(report) == _bits(analyze_ground(split(rebuilt(x), local)))


@pytest.mark.parametrize("call, want", [
    (lambda: geometric_measure_bipartite([]), []),
    (lambda: geometric_measures_multipartite([]), []),
    (lambda: state_entanglement([]), []),
    (lambda: analyze_excited(split(ising2(1.0)), []), []),
    (lambda: schmidt([]), "at least one state"),  # one stacked decomposition: there is none of nothing
    (lambda: split([]), "family"),  # one Splitting, likewise
    (lambda: perturbation_trial(1, []), []),
    (lambda: hermitian_instance(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), [1]), "stack"),  # one stacked instance
], ids=["geometric_measure_bipartite", "geometric_measures_multipartite", "state_entanglement", "analyze_excited",
        "schmidt", "split", "perturbation_trial", "hermitian_instance"])
def test_an_empty_sequence_gives_an_empty_list_or_a_value_error(call, want):
    if want == []:
        assert call() == []
    else:
        with pytest.raises(ValueError, match=want):
            call()


def test_a_family_s_splitting_is_read_by_analyze_ground_only():
    family = split([ising2(1.0), ising2(2.0)])
    with pytest.raises(ValueError, match="analyze_ground"):
        analyze_excited(family, 0)
    assert "local" not in vars(family)  # refused before any local solve


def test_proof_step_check_refuses_a_family_s_spectrum():
    family = split([ising2(1.0), ising2(2.0)])
    with pytest.raises(ValueError, match=r"member\(m\)"):
        proof_step_check(family.local, analyze_ground(family)[0])


@pytest.mark.parametrize("models", [
    lambda: [ising2(g) for g in (-2.0, -0.5, 0.3, 1.0, 1.7, 4.0)],
    lambda: [random_two_site_model(np.random.default_rng([11, t]), 3) for t in range(6)],
], ids=["ising2-grid", "random-qutrit"])
def test_a_family_member_s_spectrum_is_the_model_s_own(models):
    """member(m) of a family's local spectrum is split(models[m]).local bit for bit, dtypes included, and so is the
    proof check that reads it."""
    models = models()
    family = split(models)
    for m, report in enumerate(analyze_ground(family)):
        own, mine = split(models[m]).local, family.local.member(m)
        assert mine.dims == own.dims
        for a, b in zip([*mine.site_eigenvalues, *mine.site_eigenvectors, mine.gaps, mine.energies],
                        [*own.site_eigenvalues, *own.site_eigenvectors, own.gaps, own.energies]):
            assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
        assert np.shares_memory(mine.energies, family.local.energies)  # views, not copies
        assert type(mine.delta_e_ent) is type(mine.e0) is float
        assert (mine.delta_e_ent, mine.e0) == (own.delta_e_ent, own.e0)
        assert vars(proof_step_check(mine, report)) == vars(proof_step_check(own, report))
