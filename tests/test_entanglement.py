import itertools
import json
import math
import tracemalloc
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import frustra.entanglement
from frustra.cli import main
from frustra.entanglement import (
    DEFAULT_TOL,
    GeometricMeasureResult,
    PureState,
    _alternating,
    _initial_vectors,
    brute_force_geometric_measure,
    geometric_measure_bipartite,
    geometric_measure_multipartite,
    geometric_measures_multipartite,
    overlap_with_product,
    product_state,
    schmidt,
)
from frustra.errors import InvalidBipartitionError, NotBipartiteError, OracleScaleError
from frustra.linalg import fix_phases, haar_unitary
from frustra.models import build_dense, chain3, ising2, regroup
from frustra.verify import random_state

BELL = PureState.normalized(np.array([1, 0, 0, 1], dtype=complex), (2, 2))
GHZ3 = PureState.normalized(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex), (2, 2, 2))
W3 = PureState.normalized(np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex), (2, 2, 2))


def random_product_state(rng, dims):
    vecs = []
    for d in dims:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        vecs.append(v / np.linalg.norm(v))
    return product_state(vecs)


def ising_ground(g):
    h = build_dense(ising2(g))
    _, vecs = np.linalg.eigh(h)
    return PureState.normalized(vecs[:, 0], (2, 2))


# ---------------------------------------------------------------------------
# state plumbing


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), (2,))  # not normalized
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0]), (2, 2))  # wrong size


def test_pure_state_keeps_its_amplitudes():
    a = np.array([1, 0, 0, 0], dtype=complex)
    psi = PureState(a, (2, 2))
    a[:] = [3, 0, 0, 4]
    assert np.linalg.norm(psi.amplitudes) == 1.0 and not psi.amplitudes.flags.writeable
    assert geometric_measure_bipartite(psi).value == 0.0
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_regroup_state_partition_check():
    # a three-site state reaches the two-party routes through models.regroup,
    # which keeps the partition check the state-level regrouping had
    model = chain3(0.7, 2.0, 1.3)
    with pytest.raises(InvalidBipartitionError):
        regroup(model, ((0, 1), (1, 2)))
    _, vecs = np.linalg.eigh(build_dense(model))
    _, grouped_vecs = np.linalg.eigh(build_dense(regroup(model, ((1,), (0, 2)))))
    # the B|AC cut of the original ground state, by transposing its tensor
    cut = vecs[:, 0].reshape(2, 2, 2).transpose(1, 0, 2).reshape(2, 4)
    want = np.linalg.svd(cut, compute_uv=False)
    got = schmidt(PureState.normalized(grouped_vecs[:, 0], (2, 4))).coefficients
    np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# schmidt


def test_schmidt_bell():
    dec = schmidt(BELL)
    np.testing.assert_allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_product_state():
    plus = np.array([1, 1]) / np.sqrt(2)
    psi = product_state([np.array([1, 0]), plus])
    dec = schmidt(psi)
    np.testing.assert_allclose(dec.coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_ising_ground_top_coefficient():
    # lambda_0^2 = 1/2 + g / sqrt(1 + 4 g^2) at g = 1
    dec = schmidt(ising_ground(1.0))
    assert abs(dec.coefficients[0] ** 2 - (0.5 + 1 / np.sqrt(5.0))) < 1e-12


def test_schmidt_bad_bipartition():
    # a larger state is cut into two parties by regrouping its model, not here
    for route in (schmidt, geometric_measure_bipartite):
        with pytest.raises(NotBipartiteError):
            route(GHZ3)


def test_a_two_party_state_keeps_its_decomposition(monkeypatch):
    psi = random_state(np.random.default_rng(7), (2, 3))
    want = schmidt(psi)
    calls = []
    real = frustra.entanglement.schmidt
    monkeypatch.setattr(frustra.entanglement, "schmidt", lambda p: calls.append(p) or real(p))
    dec = psi.schmidt_decomposition
    for got, kept in zip((dec.coefficients, dec.left_vectors, dec.right_vectors),
                         (want.coefficients, want.left_vectors, want.right_vectors)):
        assert got.dtype == kept.dtype and got.tobytes() == kept.tobytes() and not got.flags.writeable
    assert psi.schmidt_decomposition is dec
    geometric_measure_bipartite(psi)  # reads the kept decomposition
    assert calls == [psi]


@given(st.integers(0, 5_000))
def test_schmidt_weights_and_reconstruction(seed):
    psi = random_state(np.random.default_rng(seed), (2, 3))
    dec = schmidt(psi)
    assert abs(np.sum(dec.coefficients**2) - 1.0) < 1e-10
    matrix = psi.tensor().reshape(2, 3)
    np.testing.assert_allclose(dec.reconstruct(), matrix, atol=1e-9)


# ---------------------------------------------------------------------------
# bipartite measure


def test_bipartite_bell_half():
    assert abs(geometric_measure_bipartite(BELL).value - 0.5) < 1e-12


def test_bipartite_maximally_entangled_qutrits():
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4, 8]] = 1 / np.sqrt(3)
    psi = PureState(amps, (3, 3))
    assert abs(geometric_measure_bipartite(psi).value - (1 - 1 / 3)) < 1e-12


def test_bipartite_ising_ground():
    res = geometric_measure_bipartite(ising_ground(1.0))
    assert abs(res.value - 0.0527864045) < 1e-9
    assert res.method == "schmidt_exact"


def test_result_consistency_invariants():
    res = geometric_measure_bipartite(ising_ground(0.7))
    assert res.value == 1.0 - res.overlap_sq
    recomputed = abs(overlap_with_product(ising_ground(0.7), res.maximizer)) ** 2
    assert abs(recomputed - res.overlap_sq) < 1e-9


def assert_per_state_results(call):
    """Each result of call() is the per-state construction from the ansatz that its route gave the batched builder:
    each vector phase-fixed, then overlap_with_product."""
    with mock.patch.object(frustra.entanglement, "_results", wraps=frustra.entanglement._results) as spy:
        got = call()
    got = [got] if isinstance(got, GeometricMeasureResult) else got
    ansatzes = [(psi, [v[s] for v in c.args[1]]) for c in spy.call_args_list for s, psi in enumerate(c.args[0])]
    assert len(ansatzes) == len(got)
    for (psi, vectors), res in zip(ansatzes, got):
        vecs = [fix_phases(np.asarray(v, dtype=complex)[:, None])[:, 0] for v in vectors]
        ov = min(abs(overlap_with_product(psi, vecs)) ** 2, 1.0)
        assert res.overlap_sq == ov and res.value == 1.0 - ov
        assert len(res.maximizer) == len(vecs)
        for a, b in zip(res.maximizer, vecs):
            np.testing.assert_array_equal(a, b)


@given(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=7), st.integers(1, 4), st.booleans(),
       st.integers(0, 2**32 - 1))
@example([3] * 7, 4, False, 1)
@example([2] * 5, 4, True, 2)
@settings(max_examples=50)
def test_every_route_builds_the_per_state_result(dims, k, real, seed):
    rng = np.random.default_rng(seed)
    size = math.prod(dims)
    amps = rng.normal(size=(k, size)) + (0 if real else 1j * rng.normal(size=(k, size)))
    psis = [PureState.normalized(a, dims) for a in amps]
    cut = int(rng.integers(1, len(dims)))
    pairs = [PureState(p.amplitudes, (math.prod(dims[:cut]), math.prod(dims[cut:]))) for p in psis]
    assert_per_state_results(lambda: geometric_measure_bipartite(pairs))
    assert_per_state_results(lambda: geometric_measures_multipartite(psis, restarts=2, max_iters=10))
    if size <= 32 and set(dims) == {2}:  # the oracle takes up to 64; its refinements grow as 25^(n - 2)
        assert_per_state_results(lambda: brute_force_geometric_measure(psis[0], grid_depth=1))


# ---------------------------------------------------------------------------
# multipartite measure


def test_multipartite_product_state_zero():
    psi = random_product_state(np.random.default_rng(1), (2, 2, 2))
    res = geometric_measure_multipartite(psi, restarts=4)
    assert res.value <= 1e-9
    assert res.converged


def test_multipartite_ghz():
    res = geometric_measure_multipartite(GHZ3)
    assert abs(res.value - 0.5) < 1e-6


def test_multipartite_w():
    # oracle agreement and the known value 5/9
    res = geometric_measure_multipartite(W3)
    oracle = brute_force_geometric_measure(W3, grid_depth=5)
    assert abs(res.value - 5.0 / 9.0) < 1e-4
    assert abs(res.value - oracle.value) < 1e-3


def test_multipartite_matches_exact_on_bipartite():
    for seed in range(12):
        psi = random_state(np.random.default_rng(seed), (2, 2))
        exact = geometric_measure_bipartite(psi).value
        alt = geometric_measure_multipartite(psi).value
        assert alt <= exact + 1e-9  # optimizer cannot report below the true E
        assert abs(alt - exact) < 1e-6


def test_multipartite_seed_determinism():
    psi = random_state(np.random.default_rng(77), (2, 2, 2))
    a = geometric_measure_multipartite(psi, seed=123)
    b = geometric_measure_multipartite(psi, seed=123)
    assert a.value == b.value and a.iterations == b.iterations
    for va, vb in zip(a.maximizer, b.maximizer):
        np.testing.assert_array_equal(va, vb)


def test_monotone_overlap_within_run():
    # one run, cut off after 1, 2, ... sweeps: no sweep lowers its overlap
    psi = random_state(np.random.default_rng(42), (2, 2, 2))
    overlaps = [geometric_measure_multipartite(psi, restarts=0, max_iters=k).overlap_sq
                for k in range(1, 31)]
    assert overlaps[-1] <= 1.0
    assert np.all(np.diff(overlaps) >= -1e-12)


def test_converged_means_the_best_run_converged():
    # the amplitude run stops at the W state's product-basis fixed point after
    # 2 sweeps; the random runs beat it but are cut off at max_iters
    res = geometric_measure_multipartite(W3, restarts=4, max_iters=3)
    assert res.value < 1.0 - 1.0 / 3.0  # a random run won
    assert res.iterations < 5 * 3  # some run converged before max_iters
    assert not res.converged


# ---------------------------------------------------------------------------
# lockstep optimizer against a one-run-at-a-time kron reference


def serial_reference(psi, inits, tol, max_iters):
    """(value, total sweeps, best run converged, zero-norm resets), one run at a time.

    Each sweep contracts in the optimizer's order: site i's update is the
    state contracted with the new phi_0 .. phi_{i-1} on the left and the
    old phi_{i+1} x .. x phi_{n-1}, built from the right, on the right.
    """
    dims, n = psi.dims, psi.num_sites
    mat = psi.amplitudes.conj().reshape(dims[0], -1)
    best, best_vecs, best_conv, total, resets = -1.0, None, False, 0, 0
    for init in inits:
        phis = [v.copy() for v in init]
        overlap, conv, sweeps = 0.0, False, 0
        for sweeps in range(1, max_iters + 1):
            current = overlap
            right = [phis[-1]]
            for k in range(n - 2, 0, -1):
                right.insert(0, np.kron(phis[k], right[0]))
            right.append(np.ones(1))
            left = mat
            for i in range(n):
                left = left.reshape(dims[i], -1)
                w = left @ right[i]
                nrm = float(np.linalg.norm(w))
                if nrm == 0.0:
                    phis[i] = np.ones(dims[i], dtype=complex) / np.sqrt(dims[i])
                    resets += 1
                else:
                    phis[i], current = w.conj() / nrm, nrm
                left = phis[i] @ left
            conv = current - overlap < tol
            overlap = current
            if conv:
                break
        total += sweeps
        if overlap > best:
            best, best_vecs, best_conv = overlap, phis, conv
    value = 1.0 - min(abs(overlap_with_product(psi, best_vecs)) ** 2, 1.0)
    return value, total, best_conv, resets


def reference_starts(psis, restarts, seed):
    """Each state's per-run start vectors, one run at a time: the dominant
    product-basis amplitude, then per-site normal draws from default_rng([seed, r])."""
    dims = psis[0].dims
    seeded = []
    for r in range(restarts):
        x = np.random.default_rng([seed, r]).normal(size=2 * sum(dims))
        vecs = []
        for d in dims:
            v, x = x[:d] + 1j * x[d:2 * d], x[2 * d:]
            vecs.append(v / np.linalg.norm(v))
        seeded.append(vecs)
    inits = []
    for psi in psis:
        top = np.unravel_index(int(np.argmax(np.abs(psi.amplitudes))), dims)
        inits.append([[np.eye(d, dtype=complex)[top[i]] for i, d in enumerate(dims)]] + seeded)
    return inits


def site_stacks(inits):
    """The optimizer's per-site (states, runs, d_i) stacks of nested [state][run][site] vectors."""
    return [np.array([[run[i] for run in runs] for runs in inits]) for i in range(len(inits[0][0]))]


@pytest.mark.parametrize("restarts", [0, 3, 32])
@pytest.mark.parametrize("dims", [(3, 2, 4), (3, 3), (2,) * 10])
def test_initial_vectors_match_per_run_reference(dims, restarts):
    # two states whose dominant amplitudes sit at the first and the last configuration
    rng = np.random.default_rng(len(dims))
    d = int(np.prod(dims))
    psis = [PureState.normalized(random_state(rng, dims).amplitudes + 2 * np.eye(d)[top], dims)
            for top in (0, d - 1)]
    got = _initial_vectors(psis, restarts, seed=19)
    want = site_stacks(reference_starts(psis, restarts, seed=19))
    assert len(got) == len(dims)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)


def reset_init(psi):
    """Basis vectors whose contraction with psi vanishes at site 0's first update."""
    t = psi.tensor()
    for config in itertools.product(*(range(d) for d in psi.dims[1:])):
        if not t[(slice(None),) + config].any():
            return [np.eye(d, dtype=complex)[c] for d, c in zip(psi.dims, (0,) + config)]
    raise AssertionError("state has no zero slice")


def with_zero_slice(dims, seed):
    """Random state with every amplitude of |x 1 1 ...> set to zero."""
    t = random_state(np.random.default_rng(seed), dims).tensor().copy()
    t[(slice(None),) + (1,) * (len(dims) - 1)] = 0.0
    return PureState.normalized(t, dims)


EQUIVALENCE_STATES = {
    "ghz3": GHZ3,
    "w3": W3,
    "rand222": with_zero_slice((2, 2, 2), 1),
    "rand2222": with_zero_slice((2, 2, 2, 2), 2),
    "rand322": with_zero_slice((3, 2, 2), 3),
}


@pytest.mark.parametrize("max_iters", [3, 1000])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_STATES))
def test_lockstep_matches_serial_reference(name, max_iters):
    psi = EQUIVALENCE_STATES[name]
    inits = [reset_init(psi)] + reference_starts([psi], 6, seed=11)[0] + [reset_init(psi)]
    value, total, conv, resets = serial_reference(psi, inits, DEFAULT_TOL, max_iters)
    assert resets > 0
    res = _alternating([psi], site_stacks([inits]), DEFAULT_TOL, max_iters)[0]
    assert res.iterations == total
    assert res.converged == conv
    assert abs(res.value - value) < 1e-12


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (2,) * 6])
def test_cached_contractions_match_kron_reference(dims, monkeypatch):
    # one sweep of two states from random per-run vectors: site i's cached
    # contraction is the state's matrix against the kron of the new vectors
    # left of i and the old ones right of i
    rng = np.random.default_rng(len(dims) + dims[0])
    psis = [random_state(rng, dims) for _ in range(2)]
    inits = [[[v / np.linalg.norm(v) for v in (rng.normal(size=(d,)) + 1j * rng.normal(size=(d,))
                                                for d in dims)] for _ in range(5)] for _ in psis]
    seen = []
    normalized = frustra.entanglement._normalized
    monkeypatch.setattr(frustra.entanglement, "_normalized",
                        lambda w, reset: seen.append(w.copy()) or normalized(w, reset))
    _alternating(psis, site_stacks(inits), DEFAULT_TOL, max_iters=1)
    assert len(seen) == len(dims)
    for s, psi in enumerate(psis):
        tensor_conj = psi.amplitudes.conj().reshape(dims)
        for r, init in enumerate(inits[s]):
            phis = list(init)
            for i, w in enumerate(seen):
                mat = np.moveaxis(tensor_conj, i, 0).reshape(dims[i], -1)
                want = mat @ reduce(np.kron, [phis[k] for k in range(len(dims)) if k != i])
                assert np.linalg.norm(w[s, r] - want) <= 1e-13 * np.linalg.norm(want)
                phis[i] = want.conj() / np.linalg.norm(want)


def test_seeded_starts_are_per_site_normal_draws():
    dims = (3, 2, 4)
    stacks = _initial_vectors([random_state(np.random.default_rng(0), dims)], 3, seed=19)
    for r in range(3):
        rng = np.random.default_rng([19, r])
        for d, stack in zip(dims, stacks):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            np.testing.assert_array_equal(stack[0, r + 1], v / np.linalg.norm(v))


@pytest.mark.parametrize("kwargs", [dict(max_iters=0), dict(max_iters=-2), dict(restarts=-1),
                                    dict(tol=float("nan")), dict(tol=0.0), dict(tol=-1e-10),
                                    dict(tol=float("inf"))])
def test_multipartite_rejects_bad_options(kwargs):
    uniform = PureState(np.full(8, 1 / np.sqrt(8)), (2, 2, 2))
    with pytest.raises(ValueError):
        geometric_measure_multipartite(uniform, **kwargs)
    with pytest.raises(ValueError):
        geometric_measures_multipartite([], **kwargs)


def assert_same_result(got, want):
    assert got.value == want.value and got.overlap_sq == want.overlap_sq
    assert got.converged == want.converged and got.iterations == want.iterations
    assert got.restarts == want.restarts
    assert len(got.maximizer) == len(want.maximizer)
    for a, b in zip(got.maximizer, want.maximizer):
        np.testing.assert_array_equal(a, b)


@given(st.sampled_from([(2, 2), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]),
       st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1, max_size=5),
       st.integers(0, 4), st.sampled_from([3, 1000]))
def test_batch_matches_single_calls(dims, draws, restarts, max_iters):
    psis = [with_zero_slice(dims, seed) if zero else random_state(np.random.default_rng(seed), dims)
            for seed, zero in draws]
    kwargs = dict(restarts=restarts, max_iters=max_iters, seed=7)
    batch = geometric_measures_multipartite(psis, **kwargs)
    assert len(batch) == len(psis)
    for psi, got in zip(psis, batch):
        assert_same_result(got, geometric_measure_multipartite(psi, **kwargs))
    # a zero-slice state's first run starts where its site-0 contraction vanishes (a reset)
    inits = reference_starts(psis, restarts, seed=7)
    inits = [[reset_init(psi)] + runs[1:] if zero else runs
             for psi, runs, (_, zero) in zip(psis, inits, draws)]
    stacked = _alternating(psis, site_stacks(inits), DEFAULT_TOL, max_iters)
    for psi, runs, got in zip(psis, inits, stacked):
        assert_same_result(got, _alternating([psi], site_stacks([runs]), DEFAULT_TOL, max_iters)[0])


def test_batch_groups_match_one_group(monkeypatch):
    psis = [random_state(np.random.default_rng(seed), (2, 2, 2)) for seed in range(5)]
    whole = geometric_measures_multipartite(psis, restarts=4)
    per_state = 16 * (8 + 5 * (8 + 4))  # bytes of one state in the stack: d = 8, 5 runs, d_0 = 2
    monkeypatch.setattr(frustra.entanglement, "_STACK_BYTES_CAP", 2 * per_state)
    for got, want in zip(geometric_measures_multipartite(psis, restarts=4), whole):
        assert_same_result(got, want)


def test_batch_holds_no_per_run_copy_of_the_state():
    # two 10-qubit states: their site matrices take 0.3 MiB, a copy per run would take 10 MiB
    psis = [random_state(np.random.default_rng(seed), (2,) * 10) for seed in range(2)]
    tracemalloc.start()
    try:
        geometric_measures_multipartite(psis, max_iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_batch_rejects_mixed_dims():
    with pytest.raises(ValueError, match="dims"):
        geometric_measures_multipartite([GHZ3, BELL])
    with pytest.raises(ValueError, match="dims"):
        geometric_measures_multipartite([random_state(np.random.default_rng(0), (2, 3)), BELL])
    assert geometric_measures_multipartite([]) == []


def test_bipartite_single_is_its_batch_member():
    psis = [random_state(np.random.default_rng(seed), (2, 3)) for seed in range(4)]
    batch = geometric_measure_bipartite(psis)
    assert len(batch) == 4
    for psi, got in zip(psis, batch):
        assert_same_result(geometric_measure_bipartite(psi), got)
        assert_same_result(geometric_measure_bipartite([psi])[0], got)


def assert_close_json(got, want, path="$"):
    """Strings, ints, bools and nulls equal; floats within 1e-12 * max(1, |v|)."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), path
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_close_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close_json(g, w, f"{path}[{k}]")
    else:
        assert type(got) is type(want) and got == want, path


def test_excited_chain3_matches_committed_output(capsys):
    # reference: the one-run-at-a-time optimizer's `excited --model chain3 --j 0..7`
    want = json.loads((Path(__file__).parent / "data" / "excited_chain3_j0-7.json").read_text())
    assert main(["excited", "--model", "chain3", "--j", "0..7"]) == 0
    assert_close_json(json.loads(capsys.readouterr().out), want)


def test_pure_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError, match="finite"):
        PureState(np.array([np.nan, 0, 0, 0, 0, 0, 0, 0]), (2, 2, 2))
    with pytest.raises(ValueError, match="finite"):
        PureState(np.array([np.inf, 0, 0, 0]), (2, 2))


def test_local_unitary_invariance_bipartite():
    rng = np.random.default_rng(9)
    psi = random_state(rng, (2, 3))
    base = geometric_measure_bipartite(psi).value
    u = haar_unitary(2, rng)
    v = haar_unitary(3, rng)
    rotated = np.kron(u, v) @ psi.amplitudes
    after = geometric_measure_bipartite(PureState.normalized(rotated, (2, 3))).value
    assert abs(base - after) < 1e-8


def test_local_unitary_invariance_multipartite():
    rng = np.random.default_rng(10)
    psi = random_state(rng, (2, 2, 2))
    base = geometric_measure_multipartite(psi).value
    us = [haar_unitary(2, rng) for _ in range(3)]
    rotated = np.kron(np.kron(us[0], us[1]), us[2]) @ psi.amplitudes
    after = geometric_measure_multipartite(PureState.normalized(rotated, (2, 2, 2))).value
    assert abs(base - after) < 1e-6


@given(st.integers(0, 5_000), st.sampled_from([2, 3, 4]))
def test_bipartite_value_cap(seed, d):
    # E <= 1 - 1/d for a d x d pair
    psi = random_state(np.random.default_rng(seed), (d, d))
    value = geometric_measure_bipartite(psi).value
    assert -1e-12 <= value <= 1.0 - 1.0 / d + 1e-12


def test_zero_iff_product_both_directions():
    rng = np.random.default_rng(11)
    for dims in ((2, 2), (2, 3), (2, 2, 2)):
        psi = random_product_state(rng, dims)
        res = geometric_measure_multipartite(psi, restarts=4)
        assert res.value <= 1e-9
    assert geometric_measure_multipartite(GHZ3).value > 0.4
    assert geometric_measure_bipartite(BELL).value > 0.4


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_bell():
    assert abs(brute_force_geometric_measure(BELL, grid_depth=5).value - 0.5) < 1e-3


def test_oracle_ghz_cross_check():
    oracle = brute_force_geometric_measure(GHZ3, grid_depth=5).value
    alt = geometric_measure_multipartite(GHZ3).value
    assert abs(oracle - 0.5) < 1e-3
    assert abs(oracle - alt) < 1e-3


def test_oracle_matches_schmidt_on_two_qubits():
    # no site is gridded: the pair is the top singular pair, so the oracle is exact at any depth, with no grid built
    for seed, grid_depth in itertools.product(range(5), (5, 40)):
        psi = random_state(np.random.default_rng(seed), (2, 2))
        exact = geometric_measure_bipartite(psi).value
        oracle = brute_force_geometric_measure(psi, grid_depth=grid_depth).value
        assert abs(exact - oracle) < 1e-12


def test_oracle_scale_limits(monkeypatch):
    qutrit = random_state(np.random.default_rng(0), (3, 3))
    with pytest.raises(OracleScaleError):
        brute_force_geometric_measure(qutrit)
    seven = random_state(np.random.default_rng(0), (2,) * 7)
    with pytest.raises(OracleScaleError):
        brute_force_geometric_measure(seven)
    four = random_state(np.random.default_rng(0), (2, 2, 2, 2))
    with pytest.raises(OracleScaleError):
        brute_force_geometric_measure(four, grid_depth=6)  # work cap: (64**2)**2 points, two gridded sites
    brute_force_geometric_measure(four, grid_depth=2)  # feasible at low depth
    monkeypatch.setattr(frustra.entanglement, "_ORACLE_WORK_CAP", 1000)
    with pytest.raises(OracleScaleError):
        brute_force_geometric_measure(four, grid_depth=2)  # 256 coarse points, but 3 x 25**2 more in the refinements
