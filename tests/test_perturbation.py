import numpy as np
import pytest

import frustra.verify
from frustra.bounds import EntanglementOptions, analyze_excited, delta_j_ent
from frustra.errors import DegenerateSeparationError, NotProjectorError
from frustra.linalg import NormKind, haar_unitary
from frustra.models import OperatorTerm, SpinModel, build_dense, ising2, local_spectrum, split
from frustra.perturbation import (
    PerturbationInstance,
    canonical_cosines,
    check_theorem,
    dk_entanglement_chain,
    hermitian_instance,
    shared_basis_instance,
)
from frustra.verify import (
    perturbation_trial,
    random_weak_chain,
    sharpness_witness,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
FAST = EntanglementOptions(restarts=8)


def two_level_overlap(eps):
    """Exact overlap of the perturbed ground state with the unperturbed
    excited one, from the hand-solved 2x2 quadratic."""
    a = (1.0 - np.sqrt(1.0 + 4.0 * eps * eps)) / 2.0
    r = a / eps
    return abs(r) / np.sqrt(1.0 + r * r)


def test_two_level_instance_against_closed_form():
    eps = 0.01
    inst = hermitian_instance(np.diag([0.0, 1.0]).astype(complex), eps * SX,
                              a_select="ground", beta_select=[1])
    rep = check_theorem(inst)
    expected = two_level_overlap(eps)
    assert abs(rep.canonical_cosines[0] - expected) < 1e-12
    assert abs(expected - 0.0099985) < 1e-7
    # and the theorem bound covers it: cosine <= ||C|| / delta_a
    assert rep.canonical_cosines[0] <= eps / inst.delta_a + 1e-12
    assert abs(inst.delta_a - (1.0 + (np.sqrt(1 + 4 * eps**2) - 1) / 2)) < 1e-12
    assert rep.all_ok


def test_zero_perturbation_trivial():
    b = np.diag([0.0, 1.0, 2.0]).astype(complex)
    inst = hermitian_instance(b, np.zeros((3, 3)), a_select="ground", beta_select=[1, 2])
    rep = check_theorem(inst)
    assert rep.all_ok
    np.testing.assert_allclose(rep.canonical_cosines, 0.0, atol=1e-14)
    assert rep.op_ineq_margin >= -1e-14


def test_random_hermitian_trials():
    for t in range(60):
        rep = perturbation_trial(101, t)
        assert rep.all_ok
        assert rep.op_ineq_margin >= -1e-8
        for kind in NormKind:
            x, y, z = rep.norm_chain[kind]
            assert x <= y + 1e-9 * max(1.0, z)
            assert y <= z + 1e-9 * max(1.0, z)
        assert np.all(rep.canonical_cosines <= 1.0)


def test_normal_shared_basis_smoke():
    for seed in range(10):
        rng = np.random.default_rng([55, seed])
        n = 6
        u = haar_unitary(n, rng)
        a_diag = rng.normal(size=n) + 1j * rng.normal(size=n)
        b_diag = a_diag + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        inst = shared_basis_instance(u, a_diag, b_diag, 0, [n - 2, n - 1])
        rep = check_theorem(inst)
        assert rep.all_ok


def test_degenerate_separation_raises():
    u = np.eye(2, dtype=complex)
    with pytest.raises(DegenerateSeparationError):
        shared_basis_instance(u, [1.0, 2.0], [1.0, 5.0], 0, [0])  # delta = 0
    inst = PerturbationInstance(
        a_matrix=np.diag([0.0, 1.0]).astype(complex),
        b_matrix=np.diag([0.0, 1.0]).astype(complex),
        c_matrix=np.zeros((2, 2), dtype=complex),
        a_value=0.0,
        p_a=np.diag([1.0, 0.0]).astype(complex),
        beta_values=(0.0 + 1e-12,),
        q=np.diag([1.0, 0.0]).astype(complex),
        delta_a=1e-12,
    )
    with pytest.raises(DegenerateSeparationError):
        check_theorem(inst)


def test_value_selectors():
    b = np.diag([0.0, 1.0, 2.0]).astype(complex)
    c = 0.01 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    ground = np.linalg.eigvalsh(b + c)[0]
    inst = hermitian_instance(b, c, a_select=("value", ground),
                              beta_select=("values", [1.0, 2.0]))
    assert abs(inst.a_value - ground) < 1e-12
    assert inst.beta_values == (1.0, 2.0)
    assert check_theorem(inst).all_ok
    with pytest.raises(ValueError):
        hermitian_instance(b, c, a_select=("value", 0.37))
    with pytest.raises(ValueError):
        hermitian_instance(b, c, beta_select=("values", [0.5]))


def test_instance_validation():
    good = hermitian_instance(np.diag([0.0, 1.0]).astype(complex), 0.1 * SX)
    good.validate()
    bad = PerturbationInstance(
        a_matrix=good.a_matrix,
        b_matrix=good.b_matrix,
        c_matrix=good.c_matrix + 1.0,
        a_value=good.a_value,
        p_a=good.p_a,
        beta_values=good.beta_values,
        q=good.q,
        delta_a=good.delta_a,
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_trial_takes_one_singular_value_pass_per_matrix(monkeypatch):
    # A, P_a Q, P_a C Q and C: every norm, the dominance test and the
    # cosines come from these singular values (np.linalg.norm(x, 2) is one too)
    inside, counted = [False], []
    svd, norm, check = np.linalg.svd, np.linalg.norm, frustra.verify.check_theorem

    def counting_svd(a, *args, compute_uv=True, **kwargs):
        if inside[0] and not compute_uv:
            counted.append("svd")
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if inside[0] and ord == 2:
            counted.append("norm2")
        return norm(x, ord, *args, **kwargs)

    def counting_check(inst, *args, **kwargs):
        inside[0] = True
        try:
            return check(inst, *args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(frustra.verify, "check_theorem", counting_check)
    for index in range(3):
        counted.clear()
        assert perturbation_trial(5, index).all_ok
        assert 3 <= len(counted) <= 4


def test_projector_residuals_use_frobenius_norm():
    # I + d S (S the 4x4 shift): its asymmetry is 1.62 d in the spectral norm
    # and 2.45 d in the Frobenius norm; at d = 0.55e-10 only the latter fails 1e-10
    p = np.eye(4, dtype=complex) + 0.55e-10 * np.eye(4, k=1)
    asym = p - p.conj().T
    assert np.linalg.norm(asym, 2) < 1e-10 < np.linalg.norm(asym)
    with pytest.raises(NotProjectorError, match="Hermitian"):
        canonical_cosines(p, np.eye(4))


# ---------------------------------------------------------------------------
# canonical cosines


def test_canonical_cosines_aligned_and_orthogonal():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(canonical_cosines(p, p), [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(canonical_cosines(p, q), 0.0, atol=1e-14)


def test_canonical_cosines_plane_angle():
    theta = np.pi / 6
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.outer(v, v.conj())
    cosines = canonical_cosines(p, q)
    assert abs(cosines[0] - np.cos(theta)) < 1e-12
    assert abs(cosines[0] - 0.8660254) < 1e-7


def test_canonical_cosines_rejects_non_projector():
    with pytest.raises(NotProjectorError):
        canonical_cosines(2 * np.eye(2), np.eye(2))
    with pytest.raises(NotProjectorError):
        canonical_cosines(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2))


def test_sharpness_witness_ratio():
    ratio = sharpness_witness(1e-3)
    assert ratio >= 0.99
    # tightens as eps shrinks
    assert abs(sharpness_witness(1e-4) - 1.0) <= abs(sharpness_witness(1e-2) - 1.0)


# ---------------------------------------------------------------------------
# entanglement chain


def test_dk_chain_no_interaction():
    model = SpinModel("local-only", (2, 2), (
        OperatorTerm(-1.0, [(0, "X")]),
        OperatorTerm(-1.0, [(1, "X")]),
    ))
    s = split(model)
    spec = local_spectrum(s)
    _, sub = delta_j_ent(spec, spec.sorted_config(0))
    rep = dk_entanglement_chain(s, 0, sub, FAST)
    assert rep.pjq_norm <= 1e-9
    assert rep.norm_step_ok and rep.ent_step_ok


def test_dk_chain_ising_g2():
    s = split(ising2(2.0))
    r = analyze_excited(s, 0, FAST)
    assert [list(m) for m in r.chosen_subspace.members] == [[0, 0], [1, 0]]
    rep = dk_entanglement_chain(s, 0, r.chosen_subspace, FAST)
    # the weight outside {|++>, |-+>} is the |--> amplitude of the ground
    # state; its square is the exact bipartite entanglement
    expected_sq = 0.5 - 2 / np.sqrt(17.0)
    assert abs(rep.pjq_norm**2 - expected_sq) < 1e-12
    assert abs(rep.delta_j_Kperp - (np.sqrt(17.0) - 0.0)) < 1e-12
    assert rep.norm_step_ok and rep.ent_step_ok


def test_dk_chain_explicit_projector_cross_check(rng):
    # the closed-form ||P_j Q|| must match the dense projector computation
    model = random_weak_chain(rng)
    s = split(model)
    spec = local_spectrum(s)
    j = 2
    _, sub = delta_j_ent(spec, spec.sorted_config(j))
    rep = dk_entanglement_chain(s, j, sub, FAST)
    from frustra.linalg import hermitian_eig

    dec = hermitian_eig(build_dense(s.model))
    vec = dec.eigenvectors[:, j]
    q = np.eye(spec.dimension, dtype=complex)
    for member in sub.members:
        pv = spec.product_vector(member)
        q -= np.outer(pv, pv.conj())
    pj = np.outer(vec, vec.conj())
    dense_norm = np.linalg.norm(pj @ q, 2)
    assert abs(rep.pjq_norm - dense_norm) < 1e-10


def test_dk_chain_weakly_coupled_all_states():
    model = random_weak_chain(np.random.default_rng(77))
    s = split(model)
    spec = local_spectrum(s)
    for j in range(8):
        _, sub = delta_j_ent(spec, spec.sorted_config(j))
        try:
            rep = dk_entanglement_chain(s, j, sub, FAST)
        except DegenerateSeparationError:
            continue
        assert rep.norm_step_ok and rep.ent_step_ok
