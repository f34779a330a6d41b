from pathlib import Path

import numpy as np
import pytest

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
from frustra.verify import gaussian_hermitian

GAMMAS = (1e-1, 1e-2, 1e-3)
DATA = Path(__file__).parent / "data"


def test_schmidt_splitting_ising_picks_plus():
    ss = schmidt_splitting(ising2(1.0), 0.5)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(ss.a0, [s, s], atol=1e-12)
    assert not ss.degenerate_top
    assert ss.splitting.per_site_local[1].max() == 0.0


def test_schmidt_splitting_rebuild_random():
    rng = np.random.default_rng(21)
    h = gaussian_hermitian(rng, 9)
    model = dense_bipartite_model(h, (3, 3))
    ss = schmidt_splitting(model, 0.2)
    total = ss.splitting.dense_local() + ss.splitting.dense_interaction()
    np.testing.assert_allclose(total, build_dense(ss.splitting.model), atol=1e-12 * max(1.0, np.abs(h).max()))


@pytest.mark.parametrize("model", [
    ising2(1.0),
    regroup(chain3(), ((1,), (0, 2))),
    load_model(DATA / "saturate_qutrit_model.json"),
], ids=["ising2", "chain3-B|AC", "qutrit"])
def test_schmidt_interaction_matches_compensated_build(model):
    # reference: every model term plus a compensator +gamma P on party 0
    for gamma in (0.5, 1e-3):
        ss = schmidt_splitting(model, gamma)
        compensator = OperatorTerm(gamma, [(0, np.outer(ss.a0, ss.a0.conj()))])
        reference = dense_terms(model.terms + (compensator,), model.dims)
        assert ss.splitting.dense_interaction().dtype == reference.dtype
        np.testing.assert_array_equal(ss.splitting.dense_interaction(), reference)


def test_schmidt_splitting_gap_identity():
    ss = schmidt_splitting(ising2(1.0), 0.037)
    spec = local_spectrum(ss.splitting)
    assert abs(spec.delta_e_ent - 0.037) <= 1e-12
    np.testing.assert_allclose(sorted(spec.gaps), [0.0, 0.037], atol=1e-12)


def test_schmidt_splitting_requires_two_parties():
    with pytest.raises(NotBipartiteError):
        schmidt_splitting(triangle(1.0), 0.1)
    # but regrouping makes it bipartite
    ss = schmidt_splitting(regroup(triangle(1.0), ((0,), (1, 2))), 0.1)
    assert ss.splitting.model.dims == (2, 4)


def test_gamma_validation():
    with pytest.raises(ValueError):
        schmidt_splitting(ising2(1.0), 0.0)
    with pytest.raises(ValueError):
        saturation_sweep(ising2(1.0), [1e-2, 1e-1])  # not descending
    with pytest.raises(ValueError):
        saturation_sweep(ising2(1.0), [1e-3, 1e-8])  # below the floor
    with pytest.raises(ValueError):
        saturation_sweep(ising2(1.0), [])


def test_sweep_ising_excess_decays():
    sweep = saturation_sweep(ising2(1.0), GAMMAS)
    ex = [r.excess for r in sweep.records]
    assert all(e > 0 for e in ex)
    assert ex[1] < ex[0] and ex[2] < ex[1]
    assert ex[2] <= 0.3 * ex[1]
    assert sweep.entanglement_spread <= 1e-8
    assert not any(r.unreliable for r in sweep.records)
    # with this construction the local overshoot vanishes, so the excess
    # is exactly the interaction term
    for r in sweep.records:
        assert abs(r.excess - r.interaction_term) < 1e-9


def test_sweep_maximally_entangled_ground():
    # H = -|Phi+><Phi+|: ground state maximally entangled, E = 1/2
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    h = -np.outer(phi, phi.conj())
    model = dense_bipartite_model(h, (2, 2), name="bell-projector")
    sweep = saturation_sweep(model, GAMMAS)
    assert sweep.degenerate_top  # both Schmidt coefficients are 1/sqrt(2)
    for r in sweep.records:
        assert abs(r.report.entanglement - 0.5) < 1e-9
    assert abs(sweep.records[-1].report.ef_bound - 0.5) < 5e-3  # approaches 1/2


def test_sweep_product_ground_state():
    model = SpinModel("classical", (2, 2), (
        OperatorTerm(-1.0, [(0, "Z")]),
        OperatorTerm(-1.0, [(1, "Z")]),
        OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
    ))
    sweep = saturation_sweep(model, GAMMAS)
    for r in sweep.records:
        assert abs(r.report.entanglement) <= 1e-12
        assert abs(r.report.ef_bound) <= 1e-9


def test_excess_decomposition_symmetric_ising():
    dec = excess_decomposition(split(ising2(1.0)))
    e = 0.5 - 1 / np.sqrt(5.0)
    assert abs(dec.overshoot_local - e) < 1e-9
    assert abs(dec.entanglement_gap) < 1e-9
    # ef_bound = 2E + interaction overshoot
    assert abs(dec.ef_bound - (2 * e + dec.overshoot_interaction)) < 1e-9
    assert abs(dec.overshoot_interaction - 0.2763932) < 1e-7
    assert abs(dec.identity_residual) < 1e-9


def test_excess_decomposition_schmidt_small_gamma():
    ss = schmidt_splitting(ising2(1.0), 1e-3)
    dec = excess_decomposition(ss.splitting)
    assert abs(dec.overshoot_local) <= 1e-9
    assert abs(dec.entanglement_gap) <= 1e-9
    assert abs(dec.identity_residual) < 1e-9


def test_excess_decomposition_commuting_zero():
    model = SpinModel("classical", (2, 2), (
        OperatorTerm(-1.0, [(0, "Z")]),
        OperatorTerm(-1.0, [(1, "Z")]),
        OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
    ))
    dec = excess_decomposition(split(model))
    assert abs(dec.overshoot_local) < 1e-12
    assert abs(dec.overshoot_interaction) < 1e-12
    assert abs(dec.entanglement_gap) < 1e-12


def test_excess_decomposition_undefined():
    with pytest.raises(UndefinedBoundError):
        excess_decomposition(split(triangle(1.0)))


def test_strict_positivity_of_excess():
    # instances with 0 < E < max never reach the bound exactly
    rng = np.random.default_rng(3)
    for _ in range(5):
        h = gaussian_hermitian(rng, 4)
        model = dense_bipartite_model(h, (2, 2))
        sweep = saturation_sweep(model, GAMMAS)
        e_val = sweep.records[0].report.entanglement
        if 1e-6 < e_val < 0.5 - 1e-6:
            for r in sweep.records:
                assert r.excess > 1e-12
