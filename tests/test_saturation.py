import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

import frustra.entanglement
import frustra.verify
from frustra.bounds import analyze_ground, json_values
from frustra.entanglement import PureState, schmidt
from frustra.errors import NotBipartiteError, UndefinedBoundError
from frustra.models import (
    OperatorTerm,
    SpinModel,
    build_dense,
    chain3,
    dense_bipartite_model,
    dense_terms,
    ising2,
    load_model,
    local_spectrum,
    regroup,
    split,
    triangle,
)
from frustra.saturation import (
    excess_decomposition,
    saturation_sweep,
    schmidt_splitting,
)
from frustra.verify import gaussian_hermitian, saturation_suite
from conftest import dense_interaction
from test_entanglement import assert_close_json

GAMMAS = (1e-1, 1e-2, 1e-3)
DATA = Path(__file__).parent / "data"


def ground_schmidt(model):
    return schmidt(PureState(model.ground.vector, model.dims))


def test_schmidt_splitting_ising_picks_plus():
    ss = schmidt_splitting(ising2(1.0), 0.5)
    (term,) = ss.local_terms
    assert term.coeff == -0.5
    np.testing.assert_allclose(term.factors[0][1], np.full((2, 2), 0.5), atol=1e-12)
    assert ss.per_site_local[1].max() == 0.0


def test_schmidt_splitting_rebuild_random():
    rng = np.random.default_rng(21)
    h = gaussian_hermitian(rng, 9)
    model = dense_bipartite_model(h, (3, 3))
    ss = schmidt_splitting(model, 0.2)
    total = dense_terms(ss.local_terms, model.dims) + dense_interaction(ss)
    np.testing.assert_allclose(total, build_dense(ss.model), atol=1e-12 * max(1.0, np.abs(h).max()))


@pytest.mark.parametrize("model", [
    ising2(1.0),
    regroup(chain3(), ((1,), (0, 2))),
    load_model(DATA / "saturate_qutrit_model.json"),
], ids=["ising2", "chain3-B|AC", "qutrit"])
def test_schmidt_interaction_matches_compensated_build(model):
    # reference: every model term plus a compensator +gamma P on party 0
    for gamma in (0.5, 1e-3):
        ss = schmidt_splitting(model, gamma)
        a0 = ground_schmidt(model).left_vectors[:, 0]
        compensator = OperatorTerm(gamma, [(0, np.outer(a0, a0.conj()))])
        reference = dense_terms(model.terms + (compensator,), model.dims)
        assert dense_interaction(ss).dtype == reference.dtype
        np.testing.assert_array_equal(dense_interaction(ss), reference)


@pytest.mark.parametrize("model", [load_model(DATA / "saturate_qutrit_model.json"), ising2(1.3)],
                         ids=["qutrit", "ising2"])
def test_schmidt_routes_agree(model):
    # the splitting's H_I, built from its terms, is the sweep's H + gamma P x I bit for bit
    for gamma in (0.3, 0.01, 0.0015):
        direct = analyze_ground(schmidt_splitting(model, gamma))
        swept = saturation_sweep(model, [gamma])[0].report
        for key in ("E0", "E0_I", "E_I_max", "interaction_frustration"):
            assert getattr(direct, key) == getattr(swept, key), (gamma, key)


def test_schmidt_splitting_gap_identity():
    ss = schmidt_splitting(ising2(1.0), 0.037)
    spec = local_spectrum(ss)
    assert abs(spec.delta_e_ent - 0.037) <= 1e-12
    np.testing.assert_allclose(sorted(spec.gaps), [0.0, 0.037], atol=1e-12)


def test_schmidt_splitting_requires_two_parties():
    with pytest.raises(NotBipartiteError):
        schmidt_splitting(triangle(1.0), 0.1)
    # but regrouping makes it bipartite
    ss = schmidt_splitting(regroup(triangle(1.0), ((0,), (1, 2))), 0.1)
    assert ss.model.dims == (2, 4)


def test_gamma_validation():
    with pytest.raises(ValueError):
        schmidt_splitting(ising2(1.0), 0.0)
    with pytest.raises(ValueError):
        saturation_sweep(ising2(1.0), [1e-2, 1e-1])  # not descending
    with pytest.raises(ValueError):
        saturation_sweep(ising2(1.0), [1e-3, 1e-8])  # below the floor
    with pytest.raises(ValueError):
        saturation_sweep(ising2(1.0), [])


@pytest.mark.parametrize("gamma", [np.nan, np.inf], ids=["nan", "inf"])
def test_schmidt_splitting_rejects_a_non_finite_gamma(gamma):
    """Refused up front, naming gamma, before any splitting arithmetic can warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            schmidt_splitting(ising2(1.0), gamma)


Y_COUPLED = SpinModel("y-coupled", (2, 2), (
    OperatorTerm(0.7, [(0, "Y"), (1, "Y")]),
    OperatorTerm(0.5, [(0, "X"), (1, "Z")]),
    OperatorTerm(0.3, [(0, "X")]),
    OperatorTerm(-0.4, [(1, "Z")]),
))


@pytest.mark.parametrize("model", [
    ising2(1.0),
    regroup(chain3(), ((1,), (0, 2))),
    load_model(DATA / "saturate_qutrit_model.json"),
    Y_COUPLED,
], ids=["ising2", "chain3-B|AC", "qutrit", "y-coupled"])
def test_sweep_reports_match_the_schmidt_splitting(model):
    # reference: the general report of the splitting the sweep never builds
    for r in saturation_sweep(model, (0.5,) + GAMMAS):
        want = json_values(analyze_ground(schmidt_splitting(model, r.gamma)))
        assert_close_json(json_values(r.report), want)


def test_sweep_ising_excess_decays():
    records = saturation_sweep(ising2(1.0), GAMMAS)
    ex = [r.excess for r in records]
    assert all(e > 0 for e in ex)
    assert ex[1] < ex[0] and ex[2] < ex[1]
    assert ex[2] <= 0.3 * ex[1]
    ents = [r.report.entanglement for r in records]
    assert max(ents) - min(ents) <= 1e-8
    assert not any(r.unreliable for r in records)
    # with this construction the local overshoot vanishes, so the excess
    # is exactly the interaction term
    for r in records:
        assert abs(r.excess - r.overshoot_interaction) < 1e-9


def test_sweep_maximally_entangled_ground():
    # H = -|Phi+><Phi+|: ground state maximally entangled, E = 1/2
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    h = -np.outer(phi, phi.conj())
    model = dense_bipartite_model(h, (2, 2), name="bell-projector")
    np.testing.assert_allclose(ground_schmidt(model).coefficients, [2 ** -0.5] * 2, atol=1e-12)
    records = saturation_sweep(model, GAMMAS)  # the tie takes the first Schmidt vector
    for r in records:
        assert abs(r.report.entanglement - 0.5) < 1e-9
    assert abs(records[-1].report.ef_bound - 0.5) < 5e-3  # approaches 1/2


def test_sweep_product_ground_state():
    model = SpinModel("classical", (2, 2), (
        OperatorTerm(-1.0, [(0, "Z")]),
        OperatorTerm(-1.0, [(1, "Z")]),
        OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
    ))
    for r in saturation_sweep(model, GAMMAS):
        assert abs(r.report.entanglement) <= 1e-12
        assert abs(r.report.ef_bound) <= 1e-9


def decompose(splitting):
    return excess_decomposition(splitting, analyze_ground(splitting))


def test_excess_decomposition_symmetric_ising():
    dec = decompose(split(ising2(1.0)))
    e = 0.5 - 1 / np.sqrt(5.0)
    assert abs(dec.overshoot_local - e) < 1e-9
    assert abs(dec.entanglement_gap) < 1e-9
    # ef_bound = 2E + interaction overshoot
    assert abs(dec.ef_bound - (2 * e + dec.overshoot_interaction)) < 1e-9
    assert abs(dec.overshoot_interaction - 0.2763932) < 1e-7
    assert abs(dec.identity_residual) < 1e-9


def test_excess_decomposition_schmidt_small_gamma():
    dec = decompose(schmidt_splitting(ising2(1.0), 1e-3))
    assert abs(dec.overshoot_local) <= 1e-9
    assert abs(dec.entanglement_gap) <= 1e-9
    assert abs(dec.identity_residual) < 1e-9


def test_excess_decomposition_commuting_zero():
    model = SpinModel("classical", (2, 2), (
        OperatorTerm(-1.0, [(0, "Z")]),
        OperatorTerm(-1.0, [(1, "Z")]),
        OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
    ))
    dec = decompose(split(model))
    assert abs(dec.overshoot_local) < 1e-12
    assert abs(dec.overshoot_interaction) < 1e-12
    assert abs(dec.entanglement_gap) < 1e-12


def test_excess_decomposition_undefined():
    with pytest.raises(UndefinedBoundError):
        decompose(split(triangle(1.0)))


def suite_with_shifted_decomposition(monkeypatch, **shift):
    real = frustra.verify.excess_decomposition

    def broken(splitting, report):
        dec = real(splitting, report)
        return dataclasses.replace(dec, **{k: getattr(dec, k) + v for k, v in shift.items()})

    monkeypatch.setattr(frustra.verify, "excess_decomposition", broken)
    return saturation_suite(instances=4)


def test_saturation_suite_counts_a_broken_excess_identity(monkeypatch):
    result = suite_with_shifted_decomposition(monkeypatch, overshoot_local=1e-6)
    assert result.trials == 4 and result.failures == 4 and not result.ok


def test_saturation_suite_counts_a_leftover_weight_off_the_entanglement(monkeypatch):
    # the excess identity still holds; the leftover weight no longer equals E
    result = suite_with_shifted_decomposition(monkeypatch, overshoot_local=-1e-6,
                                              entanglement_gap=1e-6)
    assert result.trials == 4 and result.failures == 4 and not result.ok


def test_saturation_suite_decomposes_each_ground_state_twice(monkeypatch):
    """One Schmidt decomposition for the model's ground projector, one for its entanglement, whatever the gammas."""
    calls = []
    real = frustra.entanglement.schmidt
    monkeypatch.setattr(frustra.entanglement, "schmidt", lambda psi: calls.append(psi.dims) or real(psi))
    for gammas in (GAMMAS, (0.5,) + GAMMAS):
        calls.clear()
        assert saturation_suite(instances=4, gammas=gammas).ok
        assert len(calls) == 2 * 4


def test_schmidt_splittings_read_the_model_s_decomposition(monkeypatch):
    """The projector's decomposition is the model's: a sweep and three splittings take two in all, one for the entanglement."""
    calls = []
    real = frustra.entanglement.schmidt
    monkeypatch.setattr(frustra.entanglement, "schmidt", lambda psi: calls.append(psi.dims) or real(psi))
    model = ising2(1.3)
    saturation_sweep(model, GAMMAS)
    for gamma in GAMMAS:
        schmidt_splitting(model, gamma)
    assert len(calls) == 2
    dec = model.ground_schmidt
    assert not any(a.flags.writeable for a in (dec.coefficients, dec.left_vectors, dec.right_vectors))


def test_strict_positivity_of_excess():
    # instances with 0 < E < max never reach the bound exactly
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = gaussian_hermitian(rng, 4)
        model = dense_bipartite_model(h, (2, 2))
        records = saturation_sweep(model, GAMMAS)
        e_val = records[0].report.entanglement
        if 1e-6 < e_val < 0.5 - 1e-6:
            for r in records:
                assert r.excess > 1e-12
