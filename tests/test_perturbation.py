import dataclasses
import json

import numpy as np
import pytest

import frustra.verify
from frustra.bounds import json_values
from frustra.errors import DegenerateSeparationError, NotHermitianError, NotProjectorError
from frustra.linalg import NormKind, haar_unitary
from frustra.perturbation import PerturbationInstance, check_theorem, hermitian_instance
from frustra.verify import perturbation_suite, perturbation_trial, sharpness_witness

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def projector_instance(p, q):
    """Instance with P_a = p (eigenvalue 0 of A = I - p) and Q = q (eigenvalue 2 of B)."""
    eye = np.eye(p.shape[0], dtype=complex)
    a = eye - p
    b = 2 * q + 3 * (eye - q)
    return PerturbationInstance(a, b, a - b, 0.0, p, (2.0,), q, 2.0)


def two_level_overlap(eps):
    """Exact overlap of the perturbed ground state with the unperturbed
    excited one, from the hand-solved 2x2 quadratic."""
    a = (1.0 - np.sqrt(1.0 + 4.0 * eps * eps)) / 2.0
    r = a / eps
    return abs(r) / np.sqrt(1.0 + r * r)


def test_two_level_instance_against_closed_form():
    eps = 0.01
    inst = hermitian_instance(np.diag([0.0, 1.0]).astype(complex), eps * SX, [1])
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
    inst = hermitian_instance(b, np.zeros((3, 3)), [1, 2])
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
    # A = U diag(a) U^dag and B = U diag(b) U^dag are normal, not Hermitian, and
    # share the eigenbasis U, so their eigenprojectors are projectors onto columns of U
    n = 6
    for seed in range(10):
        rng = np.random.default_rng([55, seed])
        u = haar_unitary(n, rng)
        a_diag = rng.normal(size=n) + 1j * rng.normal(size=n)
        b_diag = a_diag + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        a = (u * a_diag) @ u.conj().T
        b = (u * b_diag) @ u.conj().T
        beta = u[:, n - 2:]
        delta = float(min(abs(a_diag[0] - b_diag[n - 2:])))
        inst = PerturbationInstance(a, b, a - b, a_diag[0], np.outer(u[:, 0], u[:, 0].conj()),
                                    tuple(b_diag[n - 2:]), beta @ beta.conj().T, delta)
        inst.validate()
        assert check_theorem(inst).all_ok


def test_degenerate_separation_raises():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([1.0, 5.0]).astype(complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DegenerateSeparationError):
        PerturbationInstance(a, b, a - b, 1.0, p, (1.0,), p, 0.0).validate()  # delta = 0
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


def test_instance_validation():
    good = hermitian_instance(np.diag([0.0, 1.0]).astype(complex), 0.1 * SX, [1])
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
    # a stack raises when any member fails: here member 1's P_a is not idempotent
    pair = hermitian_instance(np.stack([good.b_matrix] * 2), np.stack([good.c_matrix] * 2), [1])
    pair.validate()
    p_a = pair.p_a.copy()
    p_a[1] *= 2.0
    with pytest.raises(NotProjectorError, match="P_a is not idempotent"):
        dataclasses.replace(pair, p_a=p_a).validate()


def test_trial_decomposes_each_matrix_once(monkeypatch):
    # check_theorem: full SVDs of P_a Q and P_a C Q and a values-only pass of C;
    # hermitian_instance: at most op_norm(A), the tolerance scale, and no projector SVD
    # (np.linalg.norm(x, 2) is an SVD too)
    phase, counts = [None], {"hermitian_instance": [], "check_theorem": []}
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting_svd(*args, **kwargs):
        if phase[0]:
            counts[phase[0]][-1] += 1
        return svd(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if phase[0] and ord == 2:
            counts[phase[0]][-1] += 1
        return norm(x, ord, *args, **kwargs)

    def counted(name):
        inner = getattr(frustra.verify, name)

        def wrapper(*args, **kwargs):
            phase[0] = name
            counts[name].append(0)
            try:
                return inner(*args, **kwargs)
            finally:
                phase[0] = None
        monkeypatch.setattr(frustra.verify, name, wrapper)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    counted("hermitian_instance")
    counted("check_theorem")
    for index in range(3):
        assert perturbation_trial(5, index).all_ok
    assert counts["check_theorem"] == [3, 3, 3]
    assert counts["hermitian_instance"] and max(counts["hermitian_instance"]) <= 1


# ---------------------------------------------------------------------------
# stacked trials: one solve per dimension and redraw round


def _json(report) -> str:
    return json.dumps(json_values(report))


@pytest.mark.parametrize("dims, seed", [((4, 8, 16), 3), ((2, 3), 72)])
def test_suite_reports_are_each_trial_alone(dims, seed):
    reports = []
    perturbation_suite(trials=13, dims=dims, seed=seed, collect=lambda t, r: reports.append((t, _json(r))))
    assert [t for t, _ in reports] == list(range(13))
    assert [r for _, r in reports] == [_json(perturbation_trial(seed, t, dims)) for t in range(13)]
    assert list(map(_json, perturbation_trial(seed, [12, 3, 3], dims))) == [reports[i][1] for i in (12, 3, 3)]


def test_a_stack_holds_at_most_its_entries(monkeypatch):
    # 48 entries: three 4x4 trials a stack, the seventh alone, and one 8x8 trial a stack
    whole = list(map(_json, perturbation_trial(3, range(13), (4, 8))))
    sizes, stack = [], frustra.verify._trial_stack

    def spy(seed, trials, attempt, dims):  # the stacks of the first round
        sizes.extend([] if attempt else [len(trials)])
        return stack(seed, trials, attempt, dims)

    monkeypatch.setattr(frustra.verify, "STACK_ENTRIES", 48)
    monkeypatch.setattr(frustra.verify, "_trial_stack", spy)
    assert list(map(_json, perturbation_trial(3, range(13), (4, 8)))) == whole
    assert sizes == [3, 3, 1] + [1] * 6
    assert whole == [_json(perturbation_trial(3, t, (4, 8))) for t in range(13)]


def test_stacked_instance_members_are_each_pair_alone():
    rng = np.random.default_rng(21)
    b = np.array([frustra.verify.gaussian_hermitian(rng, 6, norm=1.0) for _ in range(4)])
    c = np.array([frustra.verify.gaussian_hermitian(rng, 6, norm=0.1) for _ in range(4)])
    stacked = hermitian_instance(b, c, [3, 4, 5])
    assert stacked.a_matrix.shape == (4, 6, 6) and stacked.beta_values.shape == (4, 3)
    reports = check_theorem(stacked)
    for m in range(4):
        alone = hermitian_instance(b[m], c[m], [3, 4, 5])
        for name in ("a_matrix", "p_a", "q"):
            assert np.array_equal(getattr(stacked, name)[m], getattr(alone, name))
        assert complex(stacked.a_value[m]) == alone.a_value and stacked.scale[m] == alone.scale
        assert tuple(stacked.beta_values[m]) == alone.beta_values and stacked.delta_a[m] == alone.delta_a
        assert _json(reports[m]) == _json(check_theorem(alone))


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_a_stacked_draw_is_its_calls_bit_for_bit(n):
    """gaussian_hermitian's lead-shaped stack is one normal draw with the bits of one call per matrix, each the real
    then the imaginary parts: a trial's B and C are the two draws they were."""
    def one(rng):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (z + z.conj().T) / 2.0

    for seed in range(20):
        stacked = frustra.verify.gaussian_hermitian(np.random.default_rng(seed), n, lead=(2,))
        rng = np.random.default_rng(seed)
        assert stacked.tobytes() == np.array([one(rng), one(rng)]).tobytes()
        assert frustra.verify.gaussian_hermitian(np.random.default_rng(seed), n).tobytes() == stacked[0].tobytes()


def test_seed_72_redraws_trial_4(monkeypatch):
    seeds, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: seeds.append(list(s)) or default_rng(s))
    perturbation_suite(trials=12, dims=(2, 3), seed=72)
    assert [s for s in seeds if len(s) == 3 and s[2] > 0] == [[72, 4, 1]]


def test_an_error_is_raised_for_the_lowest_trial(monkeypatch):
    # trial 5 draws zeros (ValueError) at once; trial 2, in the same dimension's stack, first draws
    # B = C = I (delta_a = 0.01, a redraw), then a matrix far from Hermitian (NotHermitianError)
    draw = frustra.verify.gaussian_hermitian

    def failing(rng, n, norm=None, lead=()):
        _, trial, attempt = rng.bit_generator.seed_seq.entropy
        h = draw(rng, n, norm, lead)  # B and C of a trial, from one draw
        if trial == 2:
            return h + np.triu(np.ones((n, n)), 1) if attempt else np.zeros_like(h) + np.eye(n)
        return np.zeros_like(h) if trial == 5 else h

    monkeypatch.setattr(frustra.verify, "gaussian_hermitian", failing)
    with pytest.raises(NotHermitianError, match="asymmetry"):
        perturbation_suite(trials=8)
    with pytest.raises(NotHermitianError, match="asymmetry"):
        perturbation_trial(1, [5, 2, 0])
    with pytest.raises(ValueError, match="zero draw"):
        perturbation_trial(1, [0, 1, 3, 4, 5, 6])
    assert perturbation_trial(1, 4).all_ok


def test_projector_residuals_use_frobenius_norm():
    # I + d S (S the 4x4 shift): its asymmetry is 1.62 d in the spectral norm
    # and 2.45 d in the Frobenius norm; at d = 0.55e-10 only the latter fails 1e-10
    p = np.eye(4, dtype=complex) + 0.55e-10 * np.eye(4, k=1)
    asym = p - p.conj().T
    assert np.linalg.norm(asym, 2) < 1e-10 < np.linalg.norm(asym)
    with pytest.raises(NotProjectorError, match="Hermitian"):
        projector_instance(p, np.eye(4, dtype=complex)).validate()


# ---------------------------------------------------------------------------
# canonical cosines (the singular values of P_a Q, as check_theorem reports them)


def reported_cosines(p, q):
    inst = projector_instance(p, q)
    inst.validate()
    return check_theorem(inst).canonical_cosines


def test_canonical_cosines_aligned_and_orthogonal():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(reported_cosines(p, p), [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(reported_cosines(p, q), 0.0, atol=1e-14)


def test_canonical_cosines_plane_angle():
    theta = np.pi / 6
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.outer(v, v.conj())
    cosines = reported_cosines(p, q)
    assert abs(cosines[0] - np.cos(theta)) < 1e-12
    assert abs(cosines[0] - 0.8660254) < 1e-7


def test_canonical_cosines_rejects_non_projector():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(NotProjectorError):
        reported_cosines(2 * eye, eye)
    with pytest.raises(NotProjectorError):
        reported_cosines(np.array([[0, 1], [0, 0]], dtype=complex), eye)


def test_sharpness_witness_ratio():
    ratio = sharpness_witness(1e-3)
    assert ratio >= 0.99
    # tightens as eps shrinks
    assert abs(sharpness_witness(1e-4) - 1.0) <= abs(sharpness_witness(1e-2) - 1.0)
