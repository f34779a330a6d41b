import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frustra.errors import (
    DimensionCapError,
    InvalidAssignmentError,
    InvalidBipartitionError,
    NonHermitianTermError,
)
from frustra.linalg import ROUNDOFF_TOL, eigvalsh, hermitian_eig, op_norm, tol_scale
from frustra.bounds import analyze_excited, analyze_ground
from frustra.models import (
    GROUND_TIER_MIN_DIM,
    OperatorTerm,
    SpinModel,
    PAULI,
    Splitting,
    build_dense,
    chain3,
    dense_bipartite_model,
    dense_terms,
    expectation,
    interaction_extremes,
    ising2,
    ising2_exact_energy,
    load_model,
    local_spectrum,
    make_builtin,
    model_from_dict,
    model_to_dict,
    regroup,
    site_operators,
    split,
    transverse_chain,
    triangle,
)
from frustra.saturation import schmidt_splitting
from frustra.verify import random_two_site_model
from conftest import dense_interaction, product_vector, save_model

DATA = Path(__file__).parent / "data"


def test_ising2_dense_ground_energy():
    h = build_dense(ising2(1.0))
    assert h.shape == (4, 4)
    vals = np.linalg.eigvalsh(h)
    assert abs(vals[0] - (-np.sqrt(5.0))) < 1e-12
    assert abs(vals[0] - ising2_exact_energy(1.0)) < 1e-12


def test_empty_term_list_gives_zero():
    model = SpinModel("empty", (2, 2), ())
    np.testing.assert_array_equal(build_dense(model), np.zeros((4, 4)))


def _kron_reference(terms, dims):
    """Full Kronecker chain per term, summed in term order, in complex arithmetic."""
    total = int(np.prod(dims))
    h = np.zeros((total, total), dtype=complex)
    for term in terms:
        ops = dict(term.factors)
        out = np.array([[term.coeff]], dtype=complex)
        for site, d in enumerate(dims):
            out = np.kron(out, ops.get(site, np.eye(d)))
        h += out
    return h


@given(st.integers(0, 10_000), st.lists(st.integers(2, 3), min_size=1, max_size=4))
def test_dense_terms_matches_kron_reference(seed, dims):
    rng = np.random.default_rng(seed)
    real = bool(rng.integers(2))
    terms = [OperatorTerm(rng.normal(), [])]  # a constant
    for _ in range(4):
        sites = rng.choice(len(dims), size=rng.integers(1, len(dims) + 1), replace=False)
        factors = []
        for site in sorted(int(x) for x in sites):
            z = rng.normal(size=(dims[site],) * 2)
            if not real:
                z = z + 1j * rng.normal(size=z.shape)
            factors.append((site, (z + z.conj().T) / 2))
        terms.append(OperatorTerm(rng.normal(), factors))
    h = dense_terms(terms, dims)
    assert h.dtype == (np.float64 if real else np.complex128)
    np.testing.assert_array_equal(h, _kron_reference(terms, dims))


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_family_build_is_each_member_s_own(k, real):
    """One term list per member, each with its own factors and coefficients: member m of dense_terms and of
    site_operators is bit for bit the build of member m's terms alone."""
    rng = np.random.default_rng([k, real])
    dims = (2, 3, 2)

    def factor(site):
        z = rng.normal(size=(dims[site],) * 2) + (0 if real else 1j * rng.normal(size=(dims[site],) * 2))
        return site, (z + z.conj().T) / 2

    rows = []
    for _ in range(k):
        terms = [OperatorTerm(rng.normal(), [])]  # a constant
        for sites in ((0,), (1,), (0, 1), (1, 2), (0, 2), (0, 1, 2)):
            terms.append(OperatorTerm(rng.normal(), [factor(site) for site in sites]))
        terms.append(OperatorTerm(rng.normal(), [factor(1), (2, "Z" if real else "Y")]))  # one array in all members
        rows.append(terms)
    rows[0][2] = OperatorTerm(0.0, rows[0][2].factors)  # a member whose term vanishes
    family = dense_terms(rows, dims)
    assert family.shape == (k, 12, 12) and family.dtype == (np.float64 if real else np.complex128)
    per_site = site_operators([row[:3] for row in rows], dims)  # the constant and the two one-site terms
    for m, row in enumerate(rows):
        assert family[m].tobytes() == dense_terms(row, dims).tobytes()
        for stack, own in zip(per_site, site_operators(row[:3], dims), strict=True):
            assert stack.shape == (k,) + own.shape and stack[m].tobytes() == own.tobytes()
    assert dense_terms(rows[:1], dims).shape == (1, 12, 12)  # a family of one is a stack of one
    with pytest.raises(InvalidAssignmentError, match="degree 2"):
        site_operators([row[3:4] for row in rows], dims)


def test_terms_keep_their_factors():
    """A term copies each explicit factor, so changing the caller's array later changes no model."""
    y = np.array([[0, -1j], [1j, 0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    model = SpinModel("m", (2, 2), (OperatorTerm(0.5, [(0, y), (1, z)]), OperatorTerm(-1.0, [(1, "X")])))
    want = build_dense(SpinModel("m", (2, 2), (OperatorTerm(0.5, [(0, "Y"), (1, "Z")]),
                                              OperatorTerm(-1.0, [(1, "X")]))))
    y[0, 1], z[1, 1] = 7.0, 3.0
    h = build_dense(model)
    np.testing.assert_array_equal(h, want)
    np.testing.assert_array_equal(h, h.conj().T)
    for term in model.terms:
        for _, op in term.factors:
            assert op.dtype == complex and not op.flags.writeable
    for op in PAULI.values():
        assert not op.flags.writeable


@pytest.mark.parametrize("op", [[[0, 1], [0, 0]], [[np.nan, 0], [0, 1]]], ids=["non-hermitian", "nan"])
def test_term_checks_its_factor_when_made(op):
    with pytest.raises(NonHermitianTermError, match="site 0"):
        OperatorTerm(1.0, [(0, op)])


REFUSALS = {
    "unknown-letter": (lambda: OperatorTerm(1.0, [(0, "Q")]), NonHermitianTermError,
                       "unknown operator letter 'Q' on site 0"),
    "non-square-factor": (lambda: OperatorTerm(1.0, [(1, [[1.0, 0.0, 0.0]])]), NonHermitianTermError,
                          r"factor on site 1 must be a square matrix, got shape \(1, 3\)"),
    "empty-factor": (lambda: OperatorTerm(1.0, [(0, np.zeros((0, 0)))]), NonHermitianTermError,
                     r"must be a square matrix, got shape \(0, 0\)"),
    "one-level-site": (lambda: SpinModel("m", (2, 1), ()), ValueError, r"every site dimension must be >= 2"),
    "no-sites": (lambda: SpinModel("m", (), ()), ValueError, r"every site dimension must be >= 2, got \(\)"),
    "infinite-coefficient": (lambda: SpinModel("m", (2, 2), (OperatorTerm(1.0, [(0, "Z")]),
                                                             OperatorTerm(np.inf, [(1, "Z")]))),
                             NonHermitianTermError, "term 1: coefficient must be finite"),
    "one-site-local-spectrum": (lambda: split(SpinModel("m", (2,), (OperatorTerm(1.0, [(0, "Z")]),))).local,
                                ValueError, "local spectrum requires at least 2 sites"),
    "dense-shape": (lambda: dense_bipartite_model(np.eye(4), (2, 3)), ValueError,
                    r"matrix shape \(4, 4\) does not match dims \(2, 3\)"),
    "dense-not-hermitian": (lambda: dense_bipartite_model(np.triu(np.ones((4, 4))), (2, 2)), NonHermitianTermError,
                            "input matrix is not Hermitian"),
}


@pytest.mark.parametrize("make, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_models_refuse_with_their_message(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_dense_build_is_shared_and_read_only():
    model = chain3()
    h = build_dense(model)
    assert h.dtype == np.float64 and build_dense(model) is h
    s = split(model)
    assert dense_interaction(s) is dense_interaction(s)
    for mat in (h, dense_interaction(s)):
        assert not mat.flags.writeable
    assert build_dense(SpinModel("y", (2,), (OperatorTerm(1.0, [(0, PAULI["Y"])]),))).dtype == complex


@pytest.mark.parametrize("family", [False, True], ids=["model", "family"])
def test_splitting_arrays_are_read_only(family):
    """Assigning into a per-site H_j or any local-spectrum array raises, so no caller can move E0_L."""
    s = split([ising2(1.0), ising2(0.5)] if family else ising2(1.0))
    spec = s.local
    arrays = [*s.per_site_local, *spec.site_eigenvalues, *spec.site_eigenvectors, spec.gaps, spec.energies]
    for a in arrays + ([spec.delta_e_ent, spec.e0] if family else []):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 5.0


def test_triangle_matches_classical_enumeration():
    # oracle: energies of the 8 classical configurations, z = +1 for |0>
    h = build_dense(triangle(1.0))
    assert np.max(np.abs(h - np.diag(np.diagonal(h)))) == 0.0
    expected = []
    for bits in itertools.product((1, -1), repeat=3):
        z1, z2, z3 = bits
        expected.append(z1 * z2 + z2 * z3 + z1 * z3)
    np.testing.assert_allclose(np.real(np.diagonal(h)), expected, atol=1e-14)
    vals = np.sort(np.real(np.diagonal(h)))
    assert vals[0] == -1.0 and np.all(vals[:6] == -1.0) and np.all(vals[6:] == 3.0)


def test_term_validation_errors():
    with pytest.raises(InvalidAssignmentError):
        SpinModel("bad", (2, 2), (OperatorTerm(1.0, [(5, "X")]),))
    with pytest.raises(InvalidAssignmentError):
        SpinModel("bad", (2, 2), (OperatorTerm(1.0, [(0, "X"), (0, "Z")]),))
    with pytest.raises(NonHermitianTermError):
        SpinModel("bad", (2, 2), (OperatorTerm(1.0, [(0, np.array([[0, 1], [0, 0]]))]),))
    with pytest.raises(NonHermitianTermError):
        SpinModel("bad", (3, 2), (OperatorTerm(1.0, [(0, "X")]),))  # 2x2 op on qutrit


def test_dimension_cap(monkeypatch):
    with pytest.raises(DimensionCapError):
        SpinModel("big", (2,) * 13, ())
    monkeypatch.setenv("FRUSTRA_DIM_CAP", "8")
    SpinModel("ok", (2, 2, 2), ())
    with pytest.raises(DimensionCapError):
        SpinModel("big", (2, 2, 2, 2), ())
    monkeypatch.setenv("FRUSTRA_DIM_CAP", "banana")
    with pytest.raises(DimensionCapError):
        SpinModel("ok", (2, 2), ())


# ---------------------------------------------------------------------------
# splitting


def test_default_split_ising():
    m = ising2(1.0)
    s = split(m)
    assert s.local_terms == m.terms[:2]
    for h_j in s.per_site_local:
        np.testing.assert_array_equal(h_j, -PAULI["X"])
    np.testing.assert_array_equal(dense_interaction(s), -np.diag([1.0, -1.0, -1.0, 1.0]))


def test_explicit_split_single_site_local():
    m = ising2(1.0)
    s = split(m, local=[0])
    assert s.local_terms == m.terms[:1]
    # interaction = -g X2 - Z1 Z2
    hi = dense_interaction(s)
    vals = np.linalg.eigvalsh(hi)
    np.testing.assert_allclose(vals, [-np.sqrt(2), -np.sqrt(2), np.sqrt(2), np.sqrt(2)], atol=1e-12)


def test_split_assignment_errors():
    m = ising2(1.0)
    with pytest.raises(InvalidAssignmentError):
        split(m, local=[0, 0])
    with pytest.raises(InvalidAssignmentError):
        split(m, local=[7])
    with pytest.raises(InvalidAssignmentError):
        split(m, local=[2])  # the coupling has degree 2


def test_splitting_checks_itself():
    m = ising2(1.0)
    s = Splitting(m, m.terms[:2])
    np.testing.assert_array_equal(s.per_site_local[0], -PAULI["X"])
    np.testing.assert_array_equal(dense_terms(s.local_terms, m.dims) + dense_interaction(s),
                                  build_dense(m))
    with pytest.raises(InvalidAssignmentError, match="degree"):
        Splitting(m, m.terms)


def test_all_interaction_split():
    s = split(triangle(1.0))
    assert len(s.local_terms) == 0
    assert not any(h_j.any() for h_j in s.per_site_local)
    spec = local_spectrum(s)
    np.testing.assert_array_equal(spec.gaps, [0.0, 0.0, 0.0])
    assert spec.delta_e_ent == 0.0


@given(st.integers(0, 5_000), st.sampled_from([2, 3]))
def test_rebuild_identity_random(seed, d):
    model = random_two_site_model(np.random.default_rng(seed), d)
    h = build_dense(model)
    for s in (split(model), split(model, local=[0]), split(model, local=[])):
        resid = np.max(np.abs(dense_terms(s.local_terms, model.dims) + dense_interaction(s) - h))
        assert resid <= 1e-12 * max(1.0, np.max(np.abs(h)))


def _complement(s):
    """The model terms a splitting leaves out of H_L, in model order."""
    return [t for t in s.model.terms if not any(t is local for local in s.local_terms)]


@pytest.mark.parametrize("s", [
    split(ising2(1.3)),
    split(ising2(1.3), local=[0]),
    split(chain3()),
    split(regroup(chain3(), ((1,), (0, 2)))),
    split(transverse_chain(6)),
], ids=["ising2", "ising2-asym", "chain3", "chain3-B|AC", "chain6"])
def test_interaction_is_complement_bitwise(s):
    # where local and interaction terms write disjoint entries, H - H_L is exact
    hi = dense_terms(_complement(s), s.model.dims)
    assert dense_interaction(s).dtype == hi.dtype
    np.testing.assert_array_equal(dense_interaction(s), hi)


@given(st.integers(0, 10_000), st.lists(st.integers(2, 3), min_size=2, max_size=3))
def test_interaction_is_complement_random(seed, dims):
    # local and interaction terms overlap here, so H - H_L matches to round-off
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(6):
        sites = rng.choice(len(dims), size=rng.integers(0, len(dims) + 1), replace=False)
        factors = []
        for site in sorted(int(x) for x in sites):
            z = rng.normal(size=(dims[site],) * 2) + 1j * rng.normal(size=(dims[site],) * 2)
            factors.append((site, (z + z.conj().T) / 2))
        terms.append(OperatorTerm(rng.normal(), factors))
    model = SpinModel("random", tuple(dims), tuple(terms))
    candidates = [i for i, t in enumerate(terms) if t.degree <= 1]
    local = [i for i in candidates if rng.integers(2)]
    for s in (split(model), split(model, local=local)):
        hi = dense_terms(_complement(s), model.dims)
        resid = np.max(np.abs(dense_interaction(s) - hi))
        assert resid <= ROUNDOFF_TOL * tol_scale(np.max(np.abs(build_dense(model))))


def _twice_listed():
    field = OperatorTerm(0.7, [(0, "X")])  # one term object, listed twice
    return SpinModel("twice", (2, 2), (field, OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]), field))


def _with_constant():
    return SpinModel("constant", (2, 2), (OperatorTerm(1.5, []), OperatorTerm(-0.4, [(1, "Z")]),
                                          OperatorTerm(0.9, [(0, "X"), (1, "Y")])))


SPLITS = {
    "default": lambda: split(random_two_site_model(np.random.default_rng(5), 3)),
    "explicit": lambda: split(random_two_site_model(np.random.default_rng(6), 3), local=[1]),
    "schmidt": lambda: schmidt_splitting(load_model(DATA / "saturate_qutrit_model.json"), 0.2),
    "twice-both-local": lambda: split(_twice_listed()),
    "twice-one-local": lambda: split(_twice_listed(), local=[0]),
    "constant": lambda: split(_with_constant()),
}


@pytest.mark.parametrize("make", SPLITS.values(), ids=SPLITS.keys())
def test_interaction_from_its_terms_is_h_minus_h_l(make):
    s = make()
    h, h_l = build_dense(s.model), dense_terms(s.local_terms, s.model.dims)
    tol = ROUNDOFF_TOL * tol_scale(np.max(np.abs(h)), np.max(np.abs(h_l)))
    assert np.max(np.abs(dense_interaction(s) - (h - h_l))) <= tol
    z = np.array([1.0, 1j]) @ np.random.default_rng(1).normal(size=(2, s.model.dimension))
    for psi in (s.model.ground.vector, z / np.linalg.norm(z)):
        assert abs(s.local_expectation(psi) - float(np.real(psi.conj() @ (h_l @ psi)))) <= tol


@pytest.mark.parametrize("make", SPLITS.values(), ids=SPLITS.keys())
def test_expectations_are_the_per_vector_products(make):
    # the contractions that also take a family's stacks give, bit for bit, the per-vector products they replaced
    s = make()
    dims, h_i = s.model.dims, dense_interaction(s)
    z = np.array([1.0, 1j]) @ np.random.default_rng(1).normal(size=(2, s.model.dimension))
    for psi in (s.model.ground.vector, z / np.linalg.norm(z)):  # a strided column of H's eigenvectors, a new vector
        sites = [psi.reshape(int(np.prod(dims[:j])), d, -1) for j, d in enumerate(dims)]
        assert s.local_expectation(psi) == sum(float(np.vdot(x, h[None] @ x).real)
                                               for x, h in zip(sites, s.per_site_local))
        assert s.interaction_expectation(psi) == float(np.real(psi.conj() @ (h_i @ psi)))
        stack = np.array([0.5, 1.0, 3.0])[:, None, None] * h_i + build_dense(s.model)  # saturate's: one psi, a stack
        assert expectation(stack, psi).tolist() == [float(np.real(psi.conj() @ (h @ psi))) for h in stack]


def test_split_builds_no_dense_operator():
    m = load_model(DATA / "transverse_chain10_model.json")
    tracemalloc.start()
    try:
        s = split(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and "_interaction" not in s.__dict__  # a dense H_L would take 8 MiB


@given(st.integers(0, 10_000), st.integers(2, 6), st.booleans())
def test_diagonal_interaction_matches_the_dense_route(seed, n, complex_typed):
    """Real diagonal bonds under X, Y or Z fields, as float or complex-typed factors: H_I is held as its diagonal,
    which is the dense build's bit for bit and H - H_L to round-off; its eigenvalues and expectations are the dense
    route's, bit for bit, for one model and for a family."""
    rng = np.random.default_rng(seed)
    kind = complex if complex_typed else float
    fields = ["XYZ"[rng.integers(3)] for _ in range(n)]

    def member():
        terms = [OperatorTerm(rng.normal(), [(i, PAULI[f])]) for i, f in enumerate(fields)]
        terms += [OperatorTerm(rng.normal(), [(i, np.diag(rng.normal(size=2)).astype(kind)), (i + 1, PAULI["Z"])])
                  for i in range(n - 1)]
        return SpinModel("diagonal-bonds", (2,) * n, tuple(terms))

    model = member()
    family = [member() for _ in range(3)] if n <= 4 else []
    for s in [split(model)] + ([split(family)] if family else []):
        hi = dense_interaction(s)
        diagonal, held = s._interaction
        assert diagonal and held.tobytes() == np.ascontiguousarray(np.diagonal(hi, 0, -2, -1)).tobytes()
        assert np.array_equal(s.interaction_eigenvalues, eigvalsh(hi))
        assert np.array_equal(s.interaction_eigenvalues, np.linalg.eigvalsh(hi))
        lead = hi.shape[:-2]
        z = rng.normal(size=lead + (2**n,)) + 1j * rng.normal(size=lead + (2**n,))
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        ground = (model.ground.vector if s.model is model else  # analyze_ground's strided columns
                  np.array([m.spectrum.eigenvectors for m in family])[:, :, 0])
        for psi in (ground, z, z.real / np.linalg.norm(z.real, axis=-1, keepdims=True)):
            assert s.interaction_expectation(psi) == expectation(hi, psi).tolist()
    s, h = split(model), build_dense(model)
    h_l = dense_terms(s.local_terms, model.dims)
    assert np.max(np.abs(dense_interaction(s) - (h - h_l))) <= ROUNDOFF_TOL * tol_scale(np.max(np.abs(h)))


def test_one_non_diagonal_factor_builds_the_dense_interaction():
    """A family is held as its diagonal only when every member's every factor is real and diagonal."""
    bonds = [np.diag([1.0, -2.0]), np.array([[1.0, 0.5], [0.5, -2.0]]), np.diag([1.0, -2.0 + 1e-14j])]
    members = [SpinModel("m", (2, 2), (OperatorTerm(-1.0, [(0, "X")]), OperatorTerm(0.7, [(0, b), (1, "Z")])))
               for b in bonds]
    assert [split(m)._interaction[0] for m in members] == [True, False, False]
    assert split(members[:1] * 2)._interaction[0]
    for family in (members[:2], members[::2]):
        s = split(family)
        assert not s._interaction[0]
        assert np.array_equal(s.interaction_eigenvalues, eigvalsh(dense_interaction(s)))


def test_splitting_keeps_its_local_spectrum():
    s = split(chain3())
    assert s.local is s.local
    np.testing.assert_array_equal(s.local.gaps, local_spectrum(s).gaps)


# ---------------------------------------------------------------------------
# the ground tier


def test_ground_below_the_tier_reads_the_spectrum():
    m = transverse_chain(7)
    assert m.dimension < GROUND_TIER_MIN_DIM
    g = m.ground
    vals = m.spectrum.eigenvalues
    assert g.energy == vals[0] and g.scale == tol_scale(vals[0], vals[-1]) and not g.degenerate
    np.testing.assert_array_equal(g.vector, m.spectrum.eigenvectors[:, 0])


def test_ground_tier_skips_the_full_decomposition():
    m = transverse_chain(8)
    assert m.dimension == GROUND_TIER_MIN_DIM
    g = m.ground
    assert "spectrum" not in m.__dict__
    assert m.ground is g  # cached
    assert not g.vector.flags.writeable and not g.degenerate
    dec = m.spectrum
    scale = tol_scale(dec.eigenvalues[0], dec.eigenvalues[-1])
    assert g.scale >= scale  # from the Gershgorin bound, which is at least lam_max
    assert abs(g.energy - dec.eigenvalues[0]) <= ROUNDOFF_TOL * scale
    assert np.linalg.norm(g.vector - dec.eigenvectors[:, 0]) <= ROUNDOFF_TOL * scale


def test_degenerate_ground_falls_back_to_the_spectrum():
    zz = SpinModel("zz6", (2,) * 6, tuple(OperatorTerm(-1.0, [(i, "Z"), (i + 1, "Z")])
                                          for i in range(5)))
    g = zz.ground
    assert g.degenerate and g.energy == zz.spectrum.eigenvalues[0]
    np.testing.assert_array_equal(g.vector, zz.spectrum.eigenvectors[:, 0])


def test_failed_certificate_falls_back_to_the_spectrum(monkeypatch):
    def not_positive_definite(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    m = transverse_chain(8)
    g = m.ground
    assert "spectrum" in m.__dict__ and not g.degenerate
    assert g.energy == m.spectrum.eigenvalues[0]
    np.testing.assert_array_equal(g.vector, m.spectrum.eigenvectors[:, 0])


def test_degenerate_diagonal_model_falls_back_to_the_spectrum():
    """A ZZ chain without fields has two ground states; the certificate refuses its diagonal H."""
    zz = SpinModel("zz8", (2,) * 8, tuple(
        OperatorTerm(-1.0, [(i, PAULI["Z"]), (i + 1, PAULI["Z"])]) for i in range(7)))
    assert zz.dimension >= GROUND_TIER_MIN_DIM
    g = zz.ground
    assert "spectrum" in zz.__dict__ and g.degenerate
    assert g.energy == zz.spectrum.eigenvalues[0]
    np.testing.assert_array_equal(g.vector, zz.spectrum.eigenvectors[:, 0])


def test_analyze_solves_only_what_it_uses(solver_sizes, monkeypatch):
    factors = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(len(a)) or cholesky(a))
    report = analyze_ground(split(transverse_chain(8)))
    assert report.degenerate_ground is False
    # the per-site local spectra, Lanczos's 40 x 40 tridiagonal and the refinement's 2 x 2; no eigh of H
    assert {shape[-1] for shape in solver_sizes["eigh"]} == {2, 40}
    assert solver_sizes["eigvalsh"] == []  # no eigenvalues of H; the ZZ bonds make H_I diagonal
    assert factors == [64] * 4  # the certificate's four leaves


# ---------------------------------------------------------------------------
# local spectrum


def test_local_spectrum_symmetric_ising():
    spec = local_spectrum(split(ising2(1.0)))
    np.testing.assert_allclose(spec.gaps, [2.0, 2.0], atol=1e-14)
    assert abs(spec.delta_e_ent - 2.0) < 1e-14
    np.testing.assert_allclose(np.sort(spec.energies), [-2.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_local_spectrum_asymmetric_ising():
    spec = local_spectrum(split(ising2(1.0), local=[0]))
    np.testing.assert_allclose(np.sort(spec.gaps), [0.0, 2.0], atol=1e-14)
    assert abs(spec.delta_e_ent - 2.0) < 1e-14  # second smallest of {0, 2}


def test_product_basis_completeness_and_additivity(rng):
    model = random_two_site_model(rng, 3)
    spec = local_spectrum(split(model))
    assert spec.energies.size == 9
    configs = [spec.config_of_flat(flat) for flat in range(spec.energies.size)]
    vectors = np.stack([product_vector(spec, config) for config in configs], axis=1)
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(9))) < 1e-10
    for config, energy in zip(configs, spec.energies):
        direct = sum(spec.site_eigenvalues[i][c] for i, c in enumerate(config))
        assert abs(energy - direct) <= 1e-10 * max(1.0, abs(direct))


def test_per_site_local_embeds_to_dense_local():
    # sum of the embedded per-site matrices must equal H_L exactly
    from frustra.saturation import schmidt_splitting

    for s in (split(ising2(1.3)), split(ising2(1.3), local=[0]),
              schmidt_splitting(ising2(1.3), 0.2)):
        dims = s.model.dims
        embedded = np.zeros((4, 4), dtype=complex)
        for site, h in enumerate(s.per_site_local):
            ops = [np.eye(d) for d in dims]
            ops[site] = h
            embedded += np.kron(ops[0], ops[1])
        np.testing.assert_allclose(embedded, dense_terms(s.local_terms, dims), atol=1e-14)


def test_sorted_config_stable_ties():
    # local energies -2, 0, 0, 2; the two middle states tie and keep lex order when analyze_excited pairs levels
    ranked = [r.local_config for r in analyze_excited(split(ising2(1.0)), [0, 1, 2, 3])]
    assert ranked == [(0, 0), (0, 1), (1, 0), (1, 1)]


@given(st.integers(0, 5_000), st.sampled_from([2, 3]))
def test_ground_energy_superadditive(seed, d):
    # E0 >= E0_L + E0_I for any splitting
    model = random_two_site_model(np.random.default_rng(seed), d)
    s = split(model)
    e0 = np.linalg.eigvalsh(build_dense(model))[0]
    e0_l = np.linalg.eigvalsh(dense_terms(s.local_terms, model.dims))[0]
    e0_i = np.linalg.eigvalsh(dense_interaction(s))[0]
    assert e0 >= e0_l + e0_i - 1e-9 * max(1.0, abs(e0))


# ---------------------------------------------------------------------------
# interaction extremes


def test_interaction_extremes_coupling_only():
    e0, emax = interaction_extremes(split(ising2(1.0)))
    np.testing.assert_allclose([e0, emax], [-1.0, 1.0], atol=1e-12)


def test_interaction_extremes_zero():
    model = SpinModel("local-only", (2, 2),
                      (OperatorTerm(1.0, [(0, "Z")]), OperatorTerm(1.0, [(1, "Z")])))
    e0, emax = interaction_extremes(split(model))
    assert e0 == emax == 0.0


def test_interaction_extremes_asymmetric_ising():
    e0, _ = interaction_extremes(split(ising2(1.0), local=[0]))
    assert abs(e0 - (-np.sqrt(2.0))) < 1e-12


# ---------------------------------------------------------------------------
# regroup and dense import


def test_regroup_chain3_spectrum_preserved():
    model = chain3(1.0, 10.0, 1.0)
    grouped = regroup(model, ((1,), (0, 2)))
    assert grouped.dims == (2, 4)
    assert grouped.site_labels == ("B", "AC")
    v1 = np.linalg.eigvalsh(build_dense(model))
    v2 = np.linalg.eigvalsh(build_dense(grouped))
    np.testing.assert_allclose(v1, v2, atol=1e-10)


def test_regroup_dense_is_permutation_conjugate():
    model = chain3(0.7, 2.0, 1.3)
    grouped = regroup(model, ((1,), (0, 2)))
    h = build_dense(model).reshape(2, 2, 2, 2, 2, 2)
    permuted = h.transpose(1, 0, 2, 4, 3, 5).reshape(8, 8)
    np.testing.assert_allclose(build_dense(grouped), permuted, atol=1e-12)


def test_regroup_errors():
    model = chain3()
    with pytest.raises(InvalidBipartitionError):
        regroup(model, ((0,), (1,)))
    with pytest.raises(InvalidBipartitionError):
        regroup(model, ((0, 1, 2), ()))


@pytest.mark.parametrize("da, db", [(2, 2), (3, 3), (2, 3), (3, 2)], ids=["2x2", "3x3", "2x3", "3x2"])
def test_dense_bipartite_model_roundtrip(rng, da, db):
    d = da * db
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (z + z.conj().T) / 2
    model = dense_bipartite_model(h, (da, db))
    np.testing.assert_allclose(build_dense(model), h, atol=1e-12 * max(1.0, op_norm(h)))
    assert len(model.terms) <= min(da * da, db * db)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_bipartite_model_rejects_non_finite_input(bad):
    h = np.eye(4, dtype=complex)
    h[1, 2] = h[2, 1] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        dense_bipartite_model(h, (2, 2))


# ---------------------------------------------------------------------------
# builtins and JSON files


def test_make_builtin_validates_params():
    m = make_builtin("ising2", g=2.5)
    assert "2.5" in m.name
    with pytest.raises(KeyError):
        make_builtin("ising2", J=1.0)
    with pytest.raises(KeyError):
        make_builtin("nope")


def test_model_json_roundtrip(tmp_path):
    model = chain3(1.0, 2.0, 3.0)
    doc = model_to_dict(model)
    again = model_from_dict(doc)
    np.testing.assert_allclose(build_dense(again), build_dense(model), atol=1e-14)

    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    np.testing.assert_allclose(build_dense(loaded), build_dense(model), atol=1e-14)


def test_model_json_explicit_matrix(tmp_path):
    doc = {
        "name": "custom",
        "sites": [2, 3],
        "terms": [
            {"coeff": 0.5, "factors": [{"site": 0, "op": "Z"}]},
            {"coeff": -1.0, "factors": [
                {"site": 1, "op": [[0, [0, -1], 0], [[0, 1], 0, 0], [0, 0, 2]]},
            ]},
        ],
    }
    model = model_from_dict(doc)
    h = build_dense(model)
    dec = hermitian_eig(h)  # must be Hermitian and finite
    assert dec.eigenvalues.size == 6
    path = tmp_path / "custom.json"
    save_model(model, str(path))
    reloaded = load_model(str(path))
    np.testing.assert_allclose(build_dense(reloaded), h, atol=1e-14)


_hermitian_2x2 = st.tuples(*[st.floats(-2, 2)] * 4).map(
    lambda x: np.array([[x[0], x[2] + 1j * x[3]], [x[2] - 1j * x[3], x[1]]]))


@st.composite
def _models(draw):
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        sites = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        ops = [draw(st.sampled_from(["X", "Y", "Z"]) | _hermitian_2x2) for _ in sites]
        coeff = draw(st.floats(-1e6, 1e6, allow_nan=False))
        terms.append(OperatorTerm(coeff, list(zip(sites, ops))))
    return SpinModel(draw(st.text(max_size=8)), (2,) * n, tuple(terms), site_labels=tuple(labels))


@given(_models())
def test_model_json_roundtrip_property(model):
    again = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert (again.name, again.dims, again.site_labels) == (model.name, model.dims, model.site_labels)
    assert len(again.terms) == len(model.terms)
    for a, b in zip(again.terms, model.terms):
        assert a.coeff == b.coeff and a.sites == b.sites
        for (_, op_a), (_, op_b) in zip(a.factors, b.factors):
            np.testing.assert_array_equal(op_a, op_b)


def test_model_json_labels_optional():
    doc = model_to_dict(chain3())
    assert doc["labels"] == ["A", "B", "C"]
    del doc["labels"]
    assert model_from_dict(doc).site_labels == ("0", "1", "2")
    doc["labels"] = ["A", "B"]
    with pytest.raises(ValueError):
        model_from_dict(doc)


def test_model_json_malformed():
    with pytest.raises(ValueError):
        model_from_dict({"name": "x", "sites": [2]})
    with pytest.raises(ValueError):
        model_from_dict({"name": "x", "terms": []})
