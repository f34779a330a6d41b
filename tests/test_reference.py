"""analyze_ground, proof_step_check and analyze_excited against tests/reference.py, which builds every operator as a
full np.kron chain from the README's definitions: on random models of 2 to 4 sites, the built-in ones, chains on the
ground tier, a classical chain and Schmidt splittings."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from frustra.bounds import EntanglementOptions, analyze_excited, analyze_ground, proof_step_check
from frustra.errors import UndefinedBoundError
from frustra.linalg import RECONSTRUCTION_TOL
from frustra.models import OperatorTerm, SpinModel, chain3, ising2, load_model, split, transverse_chain, triangle
from frustra.saturation import schmidt_splitting
from reference import reference_excited, reference_proof_chain, reference_report

CHEAP = EntanglementOptions(restarts=1, max_iters=20)  # the reference gives no entanglement past two sites
ENERGIES = ("E0", "E0_L", "E0_I", "E_f", "E_I_max", "E_I_tot", "local_frustration", "interaction_frustration")


def scaled_tol(want) -> float:
    """RECONSTRUCTION_TOL * max(1, |energies|) of a reference report."""
    return RECONSTRUCTION_TOL * max(1.0, *(abs(want[key]) for key in ENERGIES))


def assert_matches_reference(report, model, local):
    """Every numeric field within RECONSTRUCTION_TOL * scale, scale = max(1, |energies|); a bound, an energy over
    delta_e_ent, within that over delta_e_ent."""
    want = reference_report(model, [model.terms[i] for i in local], report.ground_state.amplitudes)
    tol = scaled_tol(want)
    for key in ENERGIES + ("delta_e_ent",):
        assert abs(getattr(report, key) - want[key]) <= tol, key
    for key in ("ef_bound", "ratio_bound"):
        got = getattr(report, key)
        assert (got is None) == (want[key] is None), key
        assert got is None or abs(got - want[key]) <= tol / want["delta_e_ent"], key
    if want["entanglement"] is not None:
        assert abs(report.entanglement - want["entanglement"]) <= RECONSTRUCTION_TOL


def _factor(rng, d, kind) -> np.ndarray:
    """A real diagonal (kind 0), real symmetric (1) or complex Hermitian (2) d x d matrix."""
    if kind == 0:
        return np.diag(rng.normal(size=d))
    z = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if kind == 2 else 0)
    return (z + z.conj().T) / 2


def _models(seed, count, sites=None, min_fields=0, max_dim=3):
    """``count`` random models that share their dims and the sites of each term, and the indices of their degree-1
    terms.  A model has ``sites`` sites, or 2-3, each of dimension 2 to max_dim; each site gets min_fields-2 field
    terms, each pair of sites a bond or not, a model of 3 or more sites sometimes a term on all of them; the factors
    are real diagonal, real or complex per member, or every bond factor diagonal."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, max_dim + 1, size=rng.integers(2, 4) if sites is None else sites))
    n = len(dims)
    sites = [(s,) for s in range(n) for _ in range(rng.integers(min_fields, 3))]
    sites += [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.8] or [(0, 1)]
    sites += [tuple(range(n))] if n >= 3 and rng.random() < 0.5 else []
    diagonal_bonds = rng.random() < 0.3
    models = []
    for m in range(count):
        terms = []
        for ss in sites:
            kinds = [0 if diagonal_bonds and len(ss) > 1 else rng.integers(3) for _ in ss]
            terms.append(OperatorTerm(rng.normal(), [(s, _factor(rng, dims[s], k)) for s, k in zip(ss, kinds)]))
        models.append(SpinModel(f"ref{m}", dims, tuple(terms)))
    return models, [i for i, ss in enumerate(sites) if len(ss) == 1]


def assert_family_matches_reference(seed, explicit, models, fields):
    """One model and a family of three, under the default split or with a random subset of the fields local."""
    rng = np.random.default_rng([seed, 1])
    local = sorted(int(i) for i in fields if rng.random() < 0.5) if explicit else fields
    one, family = models[0], models[1:]
    assert_matches_reference(analyze_ground(split(one, local), CHEAP), one, local)
    for model, report in zip(family, analyze_ground(split(family, local), CHEAP)):
        assert_matches_reference(report, model, local)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_ground_reports_match_the_reference(seed, explicit):
    """Models of 2-3 sites with dims 2-3."""
    assert_family_matches_reference(seed, explicit, *_models(seed, 4))


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_four_qubit_reports_match_the_reference(seed, explicit):
    assert_family_matches_reference(seed, explicit, *_models(seed, 4, sites=4, max_dim=2))


CLASSICAL = load_model(Path(__file__).parent / "data" / "classical_chain8_model.json")


def seeded_chain(n: int, seed: int) -> SpinModel:
    """-sum g_i X_i - sum J_i Z_i Z_{i+1}, g_i uniform in [0.5, 2] and J_i in [0.5, 1.5], drawn from seed."""
    rng = np.random.default_rng(seed)
    terms = [OperatorTerm(-g, [(i, "X")]) for i, g in enumerate(rng.uniform(0.5, 2.0, n))]
    terms += [OperatorTerm(-j, [(i, "Z"), (i + 1, "Z")]) for i, j in enumerate(rng.uniform(0.5, 1.5, n - 1))]
    return SpinModel(f"chain{n}-seed{seed}", (2,) * n, tuple(terms))


@pytest.mark.parametrize("model, local", [
    (ising2(), [0, 1]), (ising2(0.3), [1]), (chain3(), [0, 1, 2]), (chain3(0.5, 2.0), [1]), (triangle(), []),
    (transverse_chain(8, g=0.7), list(range(8))),  # d = 256: the ground tier
    (CLASSICAL, [i for i, t in enumerate(CLASSICAL.terms) if t.degree == 1]),
], ids=["ising2", "ising2-one-field", "chain3", "chain3-middle-field", "triangle", "chain8", "classical-chain8"])
def test_named_models_match_the_reference(model, local):
    assert_matches_reference(analyze_ground(split(model, local), CHEAP), model, local)


def test_a_seeded_chain_on_the_ground_tier_matches_the_reference():
    model = seeded_chain(9, 512)  # d = 512
    assert_matches_reference(analyze_ground(split(model), CHEAP), model, list(range(9)))
    assert "spectrum" not in vars(model)  # the ground tier certified its state: H was never fully decomposed


PROOF_FIELDS = ("sum_alpha_sq", "weight_bound", "excess", "overshoot_local", "overshoot_interaction",
                "entanglement_gap")


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_proof_chains_match_the_reference(seed, explicit):
    """A two-site model under the default split or with a random subset of the fields local, and its Schmidt
    splittings at gamma = 1e-1, 1e-2 and 1e-3: the cut, its weight and the excess's three slacks, each within
    RECONSTRUCTION_TOL * scale / delta_e_ent."""
    (model,), fields = _models(seed, 1, sites=2)
    rng = np.random.default_rng([seed, 1])
    local = sorted(int(i) for i in fields if rng.random() < 0.5) if explicit else fields
    for s in [split(model, local)] + [schmidt_splitting(model, gamma) for gamma in (1e-1, 1e-2, 1e-3)]:
        report = analyze_ground(s, CHEAP)
        want = reference_proof_chain(model, s.local_terms, report.ground_state.amplitudes)
        if want is None:
            with pytest.raises(UndefinedBoundError):
                proof_step_check(s.local, report)
            continue
        diag = proof_step_check(s.local, report)
        assert list(diag.below_threshold) == want["below_threshold"]
        tol = scaled_tol(want) / want["delta_e_ent"]
        for key in PROOF_FIELDS:
            assert abs(getattr(diag, key) - want[key]) <= tol, key


def assert_square_ratio_close(got, want, h, denominator, tol):
    """(h / denominator)^2 within first-order error propagation from h and the denominator, each off by at most tol
    and twice that."""
    assert (got is None) == (want is None)
    assert got is None or abs(got - want) <= 2 * tol * want * (1 / h + 2 / denominator)


EXCITED_FIELDS = ("E_j", "E_L_j", "delta_j_ent", "delta_j_Kperp", "h_i_norm", "e_i_max_eigenvalue")


@given(st.integers(0, 2**32 - 1))
def test_excited_reports_match_the_reference(seed):
    """Every eigenstate of a 2- or 3-site model under the default split, each site with a field.  Draws with
    degenerate levels of H or of H_L are skipped: the pairing by sorted index is ambiguous there."""
    (model,), fields = _models(seed, 1, min_fields=1)
    s = split(model, fields)
    wants = reference_excited(model, s.local_terms)
    scale = max(1.0, abs(wants[0]["E_j"]), abs(wants[-1]["E_j"]))
    for key in ("E_j", "E_L_j"):
        assume(np.diff([want[key] for want in wants]).min() > 1e-6 * scale)
    reports = analyze_excited(s, list(range(len(wants))), EntanglementOptions(restarts=0, max_iters=1))
    tol = RECONSTRUCTION_TOL * scale
    for report, want in zip(reports, wants):
        assert report.local_config == want["local_config"]
        assert report.precondition_met == want["precondition_met"]
        for key in EXCITED_FIELDS:
            assert abs(getattr(report, key) - want[key]) <= tol, key
        h = want["h_i_norm"]
        assert_square_ratio_close(report.bound_29, want["bound_29"], h, want["delta_j_ent"] - h, tol)
        assert_square_ratio_close(report.bound_exact_gap, want["bound_exact_gap"], h, want["delta_j_Kperp"], tol)
