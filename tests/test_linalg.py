import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frustra import linalg, models
from frustra.cli import main
from frustra.errors import NoConvergenceError, NotHermitianError
from frustra.linalg import (
    CERTIFICATE_SHIFT,
    LANCZOS_STEPS,
    RECONSTRUCTION_TOL,
    REFINE_STEPS,
    ROUNDOFF_TOL,
    STRUCTURAL_TOL,
    NormKind,
    appendix_norm_check,
    eigvalsh,
    ground_eig,
    haar_unitary,
    hermitian_eig,
    op_norm,
    operator_abs,
    psd_leq,
    singular_values,
    sv_dominance,
    sv_norm,
    svd,
    tol_scale,
    ui_norm,
)
from frustra.models import OperatorTerm, SpinModel, build_dense, dense_terms, load_model, split, transverse_chain
from conftest import dense_interaction, members

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


# ---------------------------------------------------------------------------
# hermitian_eig


def test_eig_pauli_z_diagonal():
    dec = hermitian_eig(SZ)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_pauli_x_vectors_and_phase():
    dec = hermitian_eig(SX)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    minus = dec.eigenvectors[:, 0]
    plus = dec.eigenvectors[:, 1]
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(minus, [s, -s], atol=1e-14)
    np.testing.assert_allclose(plus, [s, s], atol=1e-14)


def test_eig_reconstruction_8x8():
    m = random_hermitian(np.random.default_rng(88), 8)
    dec = hermitian_eig(m)
    resid = op_norm(dec.reconstruct() - m)
    assert resid <= 1e-10 * max(1.0, op_norm(m))


def test_eig_reconstruction_sweep():
    # dims cycle 2..64; reconstruction residual stays below 1e-10 * scale
    rng = np.random.default_rng(1234)
    for trial in range(1000):
        n = 2 + trial % 63
        m = random_hermitian(rng, n)
        dec = hermitian_eig(m)
        scale = max(1.0, abs(dec.eigenvalues[0]), abs(dec.eigenvalues[-1]))
        resid = op_norm(dec.reconstruct() - m)
        assert resid <= 1e-10 * scale


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.zeros((2, 3)))


def test_eig_rejects_non_finite():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_overflowed_eigenvalues_raise():
    """Finite entries whose eigenvalues overflow, here [0, inf], raise instead of returning inf."""
    m = np.full((2, 2), 1e308)
    for solve in (hermitian_eig, eigvalsh):
        with pytest.raises(OverflowError):
            solve(m)


def test_eig_deterministic():
    m = random_hermitian(np.random.default_rng(5), 16)
    a = hermitian_eig(m)
    b = hermitian_eig(m.copy())
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


@given(st.integers(0, 10_000), st.integers(2, 24))
def test_eig_phase_convention_and_orthonormality(seed, n):
    m = random_hermitian(np.random.default_rng(seed), n)
    dec = hermitian_eig(m)
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12
    assert np.all(np.diff(dec.eigenvalues) >= -1e-13)
    for k in range(n):
        col = dec.eigenvectors[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_fix_phases_copies_complex_input_once():
    """A complex128 input is read in place: the output is the one new 1024 x 1024 array, and the input is kept."""
    rng = np.random.default_rng(1024)
    v = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    kept = v.copy()
    tracemalloc.start()
    try:
        out = linalg.fix_phases(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * v.nbytes  # v.astype(complex) took a second 16 MiB copy
    np.testing.assert_array_equal(v, kept)
    pivots = out[np.abs(out).argmax(axis=0), np.arange(1024)]
    assert np.all(np.abs(pivots.imag) < 1e-12) and np.all(pivots.real > 0)


def _svd_rule_accepts(m, tol=STRUCTURAL_TOL):
    """The operator-norm acceptance rule: ||M - M^dag||_2 <= tol * max(1, ||M||_2)."""
    asym = np.linalg.norm(m - m.conj().T, 2)
    return asym <= tol * max(1.0, np.linalg.norm(m, 2))


@given(st.integers(0, 10_000), st.integers(1, 12), st.floats(-3.0, 3.0),
       st.floats(-3.0, 1.0), st.booleans())
def test_hermitian_check_never_looser_than_svd_rule(seed, n, log_scale, log_noise, real):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n).real if real else random_hermitian(rng, n)
    h = h * 10.0 ** log_scale
    e = rng.normal(size=(n, n)) + (0 if real else 1j * rng.normal(size=(n, n)))
    e = e / max(np.linalg.norm(e), 1e-300)
    m = h + e * STRUCTURAL_TOL * max(1.0, np.linalg.norm(h, 2)) * 10.0 ** log_noise
    accepted = []
    for check in (hermitian_eig, eigvalsh, ground_eig, lambda a: psd_leq(a, a)):
        try:
            check(m)
            accepted.append(True)
        except NotHermitianError:
            accepted.append(False)
    assert len(set(accepted)) == 1  # one rule for every entry point
    if accepted[0]:
        assert _svd_rule_accepts(m)
    if log_noise < -1.5:
        assert accepted[0]  # noise well below tolerance is still accepted


def _hermitian_part_reference(a):
    """The Hermitian part and ||M - M^dag||_F from the full adjoint."""
    adj = a.conj().T
    asym = float(np.linalg.norm(a - adj))
    return (a if asym == 0 else (a + adj) / 2.0), asym


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 200, 300])
def test_exact_hermitian_test_matches_the_full_adjoint(n):
    rng = np.random.default_rng(n)
    h = random_hermitian(rng, n)
    cases = [h, h.real]
    for i, j in [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0), (n // 2, n // 3), (n // 3, n // 2)]:
        for m, bump in [(h.copy(), 1e-12), (h.copy(), 1e-12j), (h.real.copy(), 1.0)]:
            m[i, j] += bump
            cases.append(m)
        m = h.copy()  # not Hermitian, but ||M - M^dag||_F underflows to 0
        m[i, j], m[j, i] = (1e-200, 0.0) if i != j else (1e-200j, 1e-200j)
        cases.append(m)
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    cases.append(s + s.T)  # complex symmetric: equal to its transpose, not to its adjoint
    for m in cases:
        (got, got_asym), want = linalg._hermitian_part(m[None]), _hermitian_part_reference(m)
        assert got_asym.shape == (1,) and got_asym[0] == want[1] and np.array_equal(got[0], want[0])
        assert np.shares_memory(got, m) == (want[0] is m)
    for dtype in (complex, float):  # one stack of mixed exactness: each member is its own, bit for bit
        same = [m for m in cases if m.dtype == dtype]
        got, got_asym = linalg._hermitian_part(np.stack(same))
        for m, part, asym in zip(same, got, got_asym):
            want, want_asym = _hermitian_part_reference(m)
            assert asym == want_asym and part.tobytes() == want.tobytes()
            if asym == 0:  # exact, or an asymmetry that underflows: the member keeps its entries
                assert part.tobytes() == m.tobytes()


def test_real_path_matches_complex_eigh():
    h = build_dense(transverse_chain(6))
    assert h.dtype == np.float64
    vals, vecs = np.linalg.eigh(h.astype(complex))
    scale = max(1.0, float(np.max(np.abs(vals))))
    for given_matrix in (h, h.astype(complex)):  # zero imaginary part also takes the real path
        dec = hermitian_eig(given_matrix)
        assert dec.eigenvectors.dtype == np.float64
        assert np.max(np.abs(dec.eigenvalues - vals)) <= 1e-12 * scale
        assert np.max(np.abs(eigvalsh(given_matrix) - vals)) <= 1e-12 * scale
        ground = vecs[:, 0]
        pivot = ground[int(np.argmax(np.abs(ground)))]
        ground = ground * (pivot.conjugate() / abs(pivot))
        assert np.max(np.abs(dec.eigenvectors[:, 0] - ground)) <= 1e-10


def test_a_lapack_failure_is_no_convergence(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 3)  # not diagonal: eigvalsh takes LAPACK
    past = m + np.array([[0, 1e-8, 0], [0, 0, 0], [0, 0, 0]])  # past STRUCTURAL_TOL: psd_leq's own Hermitian rule
    big = random_hermitian(rng, 300)  # ground_eig's Lanczos run, its proof and _refine's 2 x 2 Rayleigh-Ritz steps
    psi = linalg._lanczos(big, rng.standard_normal(300))[0]
    c, lowest = linalg._gershgorin_top(big) - np.vdot(psi, big @ psi).real, np.linalg.eigvalsh(big)[0]
    assert linalg._positive_definite(big, psi, c, lowest - 1.0) is not None
    eigh = np.linalg.eigh
    with monkeypatch.context() as patch:  # only _refine's 2 x 2 solves fail
        patch.setattr(np.linalg, "eigh", lambda a, *args: fail() if a.shape == (2, 2) else eigh(a, *args))
        with pytest.raises(NoConvergenceError, match="did not converge"):
            ground_eig(big)
    with monkeypatch.context() as patch:  # a failed factorization refuses the proof: it is no error
        patch.setattr(np.linalg, "cholesky", fail)
        assert linalg._positive_definite(big, psi, c, lowest - 1.0) is None

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, fail)
    solvers = (hermitian_eig, eigvalsh, svd, singular_values, op_norm, ground_eig,
               lambda x: psd_leq(x, 2 * x), lambda x: psd_leq(past, x))
    for solve in solvers:
        with pytest.raises(NoConvergenceError, match="did not converge"):
            solve(big if solve is ground_eig else m)
    assert main(["analyze", "--model", "chain3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "did not converge" in err


def test_eigvalsh_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        eigvalsh(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# the diagonal route: a splitting's H_I of real diagonal factors is held as its diagonal, never built dense


@given(st.integers(0, 10_000), st.integers(1, 256), st.booleans())
def test_diagonal_shortcut_equals_lapack(seed, n, repeated):
    """The sorted diagonal, what the diagonal route returns, is LAPACK's, bit for bit, past one 128-row tile too, and
    a diagonal member of a stack gets the same values."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    if repeated:
        d = rng.choice(d[: max(1, n // 3)], size=n)  # repeated entries
    other = random_hermitian(rng, n)
    for m in (np.diag(d), np.diag(d).astype(complex)):  # complex type, zero imaginary part
        assert np.array_equal(eigvalsh(m), np.sort(d))
        assert np.array_equal(eigvalsh(np.stack([m, other]))[0], np.sort(d))


def _bonded(factor, n=3):
    """An n-site chain whose bonds are factor x Z and whose fields are Z: H_I is the bonds under the default split."""
    d = factor.shape[0]
    terms = [OperatorTerm(0.5, [(i, np.diag(np.arange(d, dtype=float)))]) for i in range(n)]
    terms += [OperatorTerm(-1.0, [(i, factor), (i + 1, np.diag(np.linspace(-1.0, 1.0, d)))]) for i in range(n - 1)]
    return SpinModel("bonded", (d,) * n, tuple(terms))


def test_diagonal_shortcut_skips_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("LAPACK called on a diagonal H_I")

    s = split(_bonded(np.diag([3.0, -1.0, 2.0, -1.0])))
    h_i = np.diagonal(dense_interaction(s))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    assert np.array_equal(s.interaction_eigenvalues, np.sort(h_i))
    assert s._interaction[0]


@pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 130])
def test_diagonal_scan_finds_every_off_diagonal_entry(n):
    """A factor is diagonal when every off-diagonal entry is 0 (a signed zero too) and it is real; one off-diagonal
    pair anywhere, or an imaginary part on the diagonal, sends its H_I to the dense build.  eigvalsh, which scans for
    no diagonal, rejects a non-finite entry on or off the diagonal."""
    d = np.random.default_rng(n).normal(size=n)
    for m in (np.diag(d), np.diag(d + 0j), np.diag(d) + np.diag(np.full(n - 1, -0.0), 1)):
        assert OperatorTerm(1.0, [(0, m)]).diagonal
    for bad in (np.nan, np.inf, -np.inf):
        m = np.diag(d)
        m[n // 2, n // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            eigvalsh(m)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j] if n <= 5 else [
        (0, n - 1), (n - 1, 0), (n - 1, n - 2), (n - 2, n - 1), (63, min(64, n - 1)), (min(64, n - 1), 63), (1, 0)]
    for i, j in [(i, j) for i, j in pairs if i != j]:
        m = np.diag(d + 0j)
        m[i, j] = m[j, i] = 0.5
        assert not OperatorTerm(1.0, [(0, m)]).diagonal
        m[i, j] = np.nan
        with pytest.raises(ValueError, match="finite"):
            eigvalsh(m)
    complex_ = np.diag(d + 1e-14j * (np.arange(n) == n // 2))  # Hermitian to round-off, not real
    assert not OperatorTerm(1.0, [(0, complex_)]).diagonal
    if 2 <= n <= 5:
        m = np.diag(d)
        m[0, n - 1] = m[n - 1, 0] = 0.5
        for factor, diagonal in ((np.diag(d), True), (m, False), (complex_, False)):
            s = split(_bonded(factor))
            assert s._interaction[0] == diagonal
            assert np.array_equal(s.interaction_eigenvalues, eigvalsh(dense_interaction(s)))


def test_a_held_diagonal_that_overflows_is_rejected_as_the_dense_build_is():
    """Finite factors whose bond sum overflows: the held diagonal and the dense H_I both fail the finiteness check."""
    s = split(_bonded(np.diag([1e308, -1e308])))  # two bonds of 1e308 meet on site 1
    with np.errstate(over="ignore"):  # both builds overflow alike
        (diagonal, held), dense = s._interaction, dense_interaction(s)
    assert diagonal and not np.isfinite(held).all()
    for eigenvalues in (lambda: s.interaction_eigenvalues, lambda: eigvalsh(dense)):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues()


def test_diagonal_shortcut_keeps_the_hermitian_rule():
    with pytest.raises(NotHermitianError):
        eigvalsh(np.diag([1.0, 1.0 + 1e-3j, -2.0]))
    # scale 2 (eigenvalues -2, 1, 2) and ||M - M^dag||_F = 2 * |Im d|
    for check in (eigvalsh, ground_eig):
        check(np.diag([1.0, 2.0 + 0.9j * STRUCTURAL_TOL, -2.0]))
        with pytest.raises(NotHermitianError):
            check(np.diag([1.0, 2.0 + 1.1j * STRUCTURAL_TOL, -2.0]))


# ---------------------------------------------------------------------------
# ground_eig: Lanczos and its certificate


def _with_spectrum(rng, n, complex_, gap_factor):
    """A random Hermitian matrix; with gap_factor, E1 - E0 = gap_factor * STRUCTURAL_TOL * scale.

    scale is the ground tier's, tol_scale(E0, Gershgorin bound), which is
    never below the full decomposition's tol_scale(E0, lam_max).
    """
    h = random_hermitian(rng, n)
    if not complex_:
        h = h.real
    if gap_factor is None:
        return h
    vals = np.sort(rng.uniform(-5.0, 5.0, size=n))
    vecs = np.linalg.eigh(h)[1]  # a random orthonormal basis of the right type
    vals[1] = vals[0]  # the bound moves by about the gap, far below the margin's precision
    scale = tol_scale(vals[0], linalg._gershgorin_top((vecs * vals) @ vecs.conj().T))
    vals[1] = vals[0] + gap_factor * STRUCTURAL_TOL * scale
    return (vecs * vals) @ vecs.conj().T


def _counting(monkeypatch, name):
    """Shapes of the matrices passed to np.linalg.<name>, in call order."""
    seen = []
    solver = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        seen.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return seen


def _assert_certified_ground(m, g):
    """g agrees with the full decomposition: E0 and the vector to round-off / gap."""
    dec = hermitian_eig(m)
    vals, ref = dec.eigenvalues, dec.eigenvectors[:, 0]
    scale = tol_scale(vals[0], vals[-1])
    assert g.scale >= scale * (1.0 - ROUNDOFF_TOL)  # the Gershgorin bound is at least lam_max, up to round-off
    assert not g.degenerate and vals[1] - vals[0] > STRUCTURAL_TOL * g.scale
    assert np.linalg.norm(m @ g.vector - g.energy * g.vector) <= ROUNDOFF_TOL * scale * (1.0 + ROUNDOFF_TOL)
    assert abs(g.energy - vals[0]) <= ROUNDOFF_TOL * scale
    assert g.vector.dtype == ref.dtype
    gap = vals[1] - vals[0]
    assert 1.0 - abs(np.vdot(ref, g.vector)) <= ROUNDOFF_TOL * scale / gap
    assert np.linalg.norm(g.vector - ref) <= ROUNDOFF_TOL * scale / gap  # the same phase convention


@given(st.integers(0, 10_000), st.integers(2, 96), st.booleans(),
       st.sampled_from([None, 1.5, 10.0, 1000.0]))
def test_ground_eig_matches_hermitian_eig(seed, n, complex_, gap_factor):
    """Certified and right, or no state at all: a wrong E0 never comes back."""
    m = _with_spectrum(np.random.default_rng(seed), n, complex_, gap_factor)
    g = ground_eig(m)
    if n <= LANCZOS_STEPS:  # Lanczos spans the whole space, so every gap here is certified
        assert g is not None
    if g is not None:
        _assert_certified_ground(m, g)


@pytest.mark.parametrize("gap_factor", [1.5, 10.0, 1000.0, None])
@pytest.mark.parametrize("complex_", [False, True])
def test_ground_eig_takes_at_most_four_solves(monkeypatch, gap_factor, complex_):
    """The tier's only O(d^3) work on H is its one certificate: at most four leaf solves, one per leaf.

    At d = 80 a certificate has two 40-row leaves, or four 20-row ones when
    complex.  A wide gap takes the certificate and Rayleigh-Ritz steps of
    2 x 2.  40 Lanczos steps do not resolve a planted gap of at most 1000
    margins: the vector is refused, by the Ritz values or by the proof, and
    the caller falls back to hermitian_eig.
    """
    m = _with_spectrum(np.random.default_rng(11), 80, complex_, gap_factor)
    solves = _counting(monkeypatch, "solve")
    factors = _counting(monkeypatch, "cholesky")
    eigvalsh_calls = _counting(monkeypatch, "eigvalsh")
    eigh_calls = _counting(monkeypatch, "eigh")
    assert (ground_eig(m) is not None) is (gap_factor is None)
    leaf, per_certificate = ((20, 20), 4) if complex_ else ((40, 40), 2)
    assert set(solves) | set(factors) <= {leaf} and len(solves) <= len(factors) <= per_certificate
    if gap_factor is None:
        assert solves == factors == [leaf] * per_certificate
        assert eigh_calls[0] == (40, 40) and set(eigh_calls[1:]) == {(2, 2)}  # the tridiagonal, not H
    else:
        assert eigh_calls == [(40, 40)]  # the tridiagonal, not H
    assert eigvalsh_calls == []


def test_ground_eig_degenerate_gives_no_vector(monkeypatch):
    """The two lowest Ritz values resolve both levels, so no factorization is tried."""
    factors = _counting(monkeypatch, "cholesky")
    rng = np.random.default_rng(3)
    for gap_factor in (0.0, 0.5):
        for complex_ in (False, True):
            assert ground_eig(_with_spectrum(rng, 24, complex_, gap_factor)) is None
    assert factors == []


@pytest.mark.parametrize("n", [70, 256])
def test_ground_eig_certifies_a_diagonal_matrix(n):
    """A diagonal H takes the one ground route: E0 at its smallest entry, psi near that unit vector."""
    d = np.random.default_rng(8).normal(size=n)
    low, next_ = np.sort(d)[:2]
    unit = np.zeros(n)
    unit[np.argmin(d)] = 1.0
    for m in (np.diag(d), np.diag(d).astype(complex)):
        g = ground_eig(m)
        assert g is not None and not g.degenerate
        assert abs(g.energy - low) <= ROUNDOFF_TOL * g.scale
        r = np.linalg.norm(m @ g.vector - g.energy * g.vector)
        assert np.linalg.norm(g.vector - unit) <= r / (next_ - g.energy)  # Davis-Kahan
        assert g.vector.dtype == hermitian_eig(m).eigenvectors.dtype


def test_ground_eig_refuses_a_degenerate_diagonal_matrix(monkeypatch):
    """The certificate, not a diagonal test, refuses a repeated smallest entry."""
    factors = _counting(monkeypatch, "cholesky")
    assert ground_eig(np.diag([2.0, -1.0, 0.5, -1.0])) is None
    assert factors  # the Ritz gap passed and the proof said no


def test_ground_eig_of_a_one_by_one_matrix_gives_no_vector():
    """Nothing can be lifted: M = -r - margin < 0, so the caller falls back."""
    for m in (np.array([[2.5]]), np.array([[2.5 + 0.0j]]), np.array([[-1.0 + 1e-12j]])):
        assert ground_eig(m) is None


def test_ground_eig_does_not_scan_for_diagonality(monkeypatch):
    """The 10-qubit chain's H takes the ground tier, and its ZZ H_I is decided diagonal from its terms: no eigvalsh
    call, and no scan of a dense matrix for diagonality."""
    monkeypatch.setattr(models, "eigvalsh", lambda *a: pytest.fail("eigvalsh called"))
    model = load_model(Path(__file__).parent / "data" / "transverse_chain10_model.json")
    assert ground_eig(build_dense(model)) is not None
    s = split(model)
    assert s.interaction_eigenvalues[[0, -1]].tolist() == [-9.0, 9.0] and s._interaction[0]


def test_ground_eig_of_an_overflowing_matrix_gives_no_vector(monkeypatch):
    """Finite entries whose row sums overflow: no warning, and no Lanczos step, before the fallback."""
    h = build_dense(transverse_chain(8, 1e308))
    monkeypatch.setattr(linalg, "_lanczos", lambda *a: pytest.fail("Lanczos ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert ground_eig(h) is None
        with pytest.raises(OverflowError):
            hermitian_eig(h)


@pytest.mark.parametrize("n", [3, 129, 300])
def test_ground_eig_rejects_non_finite(n):
    """A NaN or inf entry, Hermitian or not, raises the ValueError it always raised, with no RuntimeWarning."""
    h = build_dense(transverse_chain(8))[:n, :n] if n <= 256 else random_hermitian(np.random.default_rng(n), n)
    for i, j in [(0, 0), (n - 1, n - 1), (0, n - 1), (n // 2, n // 3)]:
        for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 1.0)):
            for mirror in (True, False):
                m = h.astype(complex if isinstance(bad, complex) else h.dtype)
                m[i, j] = bad
                if mirror:
                    m[j, i] = np.conj(bad)
                with pytest.raises(ValueError, match="finite"):
                    ground_eig(m)


def test_ground_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        ground_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        ground_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="2-d matrix"):
        ground_eig(np.eye(2)[None])  # a stack of one is refused: the ground route certifies one matrix


def test_ground_eig_failed_solve_gives_no_vector(monkeypatch):
    def not_positive_definite(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    h = build_dense(transverse_chain(6))
    assert ground_eig(h) is not None
    for failing in ("cholesky", "solve"):  # either step of the block factorization
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, failing, not_positive_definite)
            assert ground_eig(h) is None


def test_ground_eig_failed_residual_guard_gives_no_vector(monkeypatch):
    """40 Lanczos steps cannot resolve a ground level 1/400 of the spectrum's width below the next."""
    factors = _counting(monkeypatch, "cholesky")
    rng = np.random.default_rng(5)
    vecs = np.linalg.qr(rng.normal(size=(400, 400)))[0]
    m = (vecs * np.linspace(0.0, 1.0, 400)) @ vecs.T
    assert ground_eig(m) is None
    assert factors == []


def test_certificate_rejects_a_lanczos_run_that_missed_the_ground_level(monkeypatch):
    """A start orthogonal to the ground vector converges to a higher level; the factorization rejects it.

    No vector means the caller reads the full decomposition, as
    test_models::test_failed_certificate_falls_back_to_the_spectrum checks.
    """
    rng = np.random.default_rng(12)
    # block diagonal: the ground level lives in the first block, and a start
    # confined to the second never leaves it, round-off included; 40 steps span the second block
    first = _with_spectrum(rng, 20, False, None) - 20.0 * np.eye(20)
    second = _with_spectrum(rng, LANCZOS_STEPS, False, None)
    m = np.zeros((20 + LANCZOS_STEPS, 20 + LANCZOS_STEPS))
    m[:20, :20], m[20:, 20:] = first, second
    dec = hermitian_eig(m)
    start = np.concatenate([np.zeros(20), rng.normal(size=LANCZOS_STEPS)])
    assert abs(np.vdot(dec.eigenvectors[:, 0], start)) == 0.0

    psi, ritz = linalg._lanczos(m, start)
    e = np.vdot(psi, m @ psi)
    assert np.linalg.norm(m @ psi - e * psi) <= RECONSTRUCTION_TOL  # converged, but not to E0
    assert e - dec.eigenvalues[0] > 1.0

    factors = _counting(monkeypatch, "cholesky")
    assert linalg._ground_eig(m, start) is None
    assert factors  # the residual was round-off and the Ritz gap passed; the factorization said no
    g = ground_eig(m)  # the seeded start finds the ground level
    _assert_certified_ground(m, g)


def test_residual_rejects_an_unsplit_near_degenerate_pair(monkeypatch):
    """A Ritz vector that keeps 5 % of a level 1.5 * STRUCTURAL_TOL above the ground one is never returned.

    Nothing makes 40 Lanczos steps split such a pair (the Kaniel-Paige
    bound promises no progress at this gap), so the run here stops with
    the start's mix.  Its Ritz gap and its factorization both pass; only
    the residual, about 0.05 * gap, shows that the vector is 5 % off, and
    the refinement through the proof's factor splits the pair.  A run whose
    Ritz values do not split the pair is refused before any factorization.
    """
    gap = 1.5 * STRUCTURAL_TOL  # at scale 1: the spectrum and the Gershgorin bound lie in [-1, 1]
    vals = np.concatenate([[-1.0, -1.0 + gap], np.linspace(0.0, 1.0, 98)])
    vecs = np.eye(100)
    vecs[:2, :2] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)  # so m is not diagonal
    m = (vecs * vals) @ vecs.T
    mixed = np.sqrt(1.0 - 0.05**2) * vecs[:, 0] + 0.05 * vecs[:, 1]
    e = np.vdot(mixed, m @ mixed)
    ritz = np.concatenate([[e], vals[2:]])  # the pair is one Ritz value
    r = np.linalg.norm(m @ mixed - e * mixed)
    assert 10 * ROUNDOFF_TOL < r <= RECONSTRUCTION_TOL
    assert linalg._positive_definite(m, mixed, ritz[-1] - e, e + r + STRUCTURAL_TOL)
    factors = _counting(monkeypatch, "cholesky")
    low = np.concatenate([[e, e], vals[2:]])  # a run whose Ritz values do not split
    monkeypatch.setattr(linalg, "_lanczos", lambda h, start: (start, low))
    assert linalg._ground_eig(m, mixed) is None
    assert factors == []  # theta_1 <= sigma0 refused it before the factorization

    monkeypatch.setattr(linalg, "_lanczos", lambda h, start: (start, ritz))
    g = linalg._ground_eig(m, mixed)
    sigma = e + r + STRUCTURAL_TOL
    assert factors and g.energy + 1.0 <= ROUNDOFF_TOL  # E0 = -1
    r = np.linalg.norm(m @ g.vector - g.energy * g.vector)
    assert np.linalg.norm(g.vector - vecs[:, 0]) <= r / (sigma - g.energy) < 1e-6  # Davis-Kahan, not 5 %


def _certificate_inputs(m, psi):
    """(c, E0 + r) for a unit vector psi: a lift c >= lam_max - E0, and sigma without its margin."""
    h_psi = m @ psi
    e0 = np.vdot(psi, h_psi).real
    return linalg._gershgorin_top(m) - e0, e0 + np.linalg.norm(h_psi - e0 * psi)


@pytest.mark.parametrize("n, seeds", [(256, range(20)), (1024, range(3))], ids=["d256", "d1024"])
def test_certificate_refuses_sigma_at_the_first_excited_level(n, seeds):
    """At sigma = the computed E1, M is singular to round-off: no shifted factorization may pass.

    The unshifted block Cholesky accepted 25 of these 40 matrices at d = 256 and 1 of 3 at d = 1024.
    """
    for seed in seeds:
        m = random_hermitian(np.random.default_rng(seed), n)
        for h in (m, m.real.copy()) if n == 256 else (m.real.copy(),):
            vals, vecs = np.linalg.eigh(h)
            assert not linalg._positive_definite(h, vecs[:, 0], vals[-1] - vals[0], vals[1])


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("complex_", [False, True])
def test_certificate_proves_planted_gaps(n, complex_):
    """A gap of 10 or 1000 margins is certified; one of 0.9 margins, where M is indefinite, is not."""
    rng = np.random.default_rng(n)
    basis = haar_unitary(n, rng) if complex_ else np.linalg.qr(rng.normal(size=(n, n)))[0]
    vals = np.sort(rng.uniform(-5.0, 5.0, size=n))
    for gap_factor, certified in ((1000.0, True), (10.0, True), (0.9, False)):
        vals[1] = vals[0]
        scale = tol_scale(vals[0], linalg._gershgorin_top((basis * vals) @ basis.conj().T))
        vals[1] = vals[0] + gap_factor * STRUCTURAL_TOL * scale
        m = (basis * vals) @ basis.conj().T
        c, sigma = _certificate_inputs(m, basis[:, 0])
        assert (linalg._positive_definite(m, basis[:, 0], c, sigma + STRUCTURAL_TOL * scale) is not None) is certified


def _fixture():
    return build_dense(load_model(Path(__file__).parent / "data" / "transverse_chain10_model.json"))


def _seeded_start(h):
    return np.random.default_rng(0).standard_normal(len(h))


@pytest.mark.parametrize("case", ["transverse_chain10", "complex_d256"])
def test_refined_ground_vector_is_certified(monkeypatch, case):
    """The 40-step vector is proved and refined: E0 to round-off, psi within r / (sigma0 - E0) of eigh's."""
    h = _fixture() if case == "transverse_chain10" else random_hermitian(np.random.default_rng(256), 256)
    refined = []
    refine = linalg._refine
    monkeypatch.setattr(linalg, "_refine", lambda *args: refined.append(args[2]) or refine(*args))
    g = ground_eig(h)
    _assert_certified_ground(h, g)

    psi0, ritz = linalg._lanczos(h, _seeded_start(h))
    assert len(refined) == 1 and np.array_equal(refined[0], psi0)  # only the 40-step vector was refined
    e0 = np.vdot(psi0, h @ psi0).real
    r0 = np.linalg.norm(h @ psi0 - e0 * psi0)
    assert r0 > 1e3 * ROUNDOFF_TOL * g.scale  # far from the residual gate before its refinement
    sigma = e0 + r0 + STRUCTURAL_TOL * tol_scale(e0 - r0, linalg._gershgorin_top(h))
    dec = hermitian_eig(h)
    r = np.linalg.norm(h @ g.vector - g.energy * g.vector)
    assert abs(g.energy - dec.eigenvalues[0]) <= ROUNDOFF_TOL * tol_scale(dec.eigenvalues[0], dec.eigenvalues[-1])
    assert np.linalg.norm(g.vector - dec.eigenvectors[:, 0]) <= r / (sigma - g.energy)  # Davis-Kahan


def _g_grid():
    """Transverse chains over a grid of fields, down to a gap of 2e-7, and four random-field chains."""
    for n in (8, 10):
        for field in (0.2, 0.3, 0.45, 0.6, 0.8, 1.0, 1.5):
            yield f"chain{n} g={field}", transverse_chain(n, field)
    rng = np.random.default_rng(7)
    for k in range(4):
        fields, bonds = rng.uniform(0.5, 2.0, 10), rng.uniform(0.5, 1.5, 9)
        terms = [OperatorTerm(-fields[i], [(i, "X")]) for i in range(10)]
        terms += [OperatorTerm(-bonds[i], [(i, "Z"), (i + 1, "Z")]) for i in range(9)]
        yield f"random{k}", SpinModel(f"random{k}", (2,) * 10, tuple(terms))


def test_g_grid_chains_are_certified_or_read_the_spectrum():
    """The 40-step vector certifies every chain but the two deep-ordered ones, which read the full spectrum.

    Those two get no vector from the tier, and SpinModel.ground is then column 0 of eigh's, bit for bit.
    """
    refused = set()
    for name, model in _g_grid():
        h = build_dense(model)
        g = ground_eig(h)
        if g is None:
            refused.add(name)
            ground = model.ground
            assert "spectrum" in model.__dict__ and not ground.degenerate
            assert ground.energy == model.spectrum.eigenvalues[0]
            np.testing.assert_array_equal(ground.vector, model.spectrum.eigenvectors[:, 0])
        elif model.dimension == 256:
            _assert_certified_ground(h, g)
    assert refused == {"chain10 g=0.2", "chain10 g=0.3"}


def test_fixture_is_certified_in_one_lanczos_run_and_its_refinement():
    matvecs = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            if np.ndim(other) == 1:
                matvecs.append(len(self))
            return np.asarray(self) @ other

    h = _fixture()
    g = linalg._ground_eig(h.view(Counting), _seeded_start(h))
    assert g is not None and np.array_equal(g.vector, ground_eig(h).vector)
    # one Lanczos run, H psi0 and one per refinement step; the fixture takes three
    assert set(matvecs) == {1024} and LANCZOS_STEPS < len(matvecs) <= LANCZOS_STEPS + 1 + REFINE_STEPS


def test_refinement_past_sigma_gives_no_vector(monkeypatch):
    """A refinement that lands on the first excited level, above sigma0, is refused; the model falls back to eigh."""
    model = transverse_chain(8)
    h = build_dense(model)
    dec = hermitian_eig(h)
    excited = dec.eigenvectors[:, 1]
    r = float(np.linalg.norm(h @ excited - dec.eigenvalues[1] * excited))
    calls = []
    monkeypatch.setattr(linalg, "_refine", lambda *args: calls.append(1) or (excited, float(dec.eigenvalues[1]), r))
    assert r <= ROUNDOFF_TOL * tol_scale(dec.eigenvalues[1], dec.eigenvalues[-1])  # it meets the residual gate
    assert ground_eig(h) is None
    assert len(calls) == 1  # the 40-step vector was proved and refined once
    g = model.ground
    assert "spectrum" in model.__dict__ and not g.degenerate
    assert g.energy == model.spectrum.eigenvalues[0]
    np.testing.assert_array_equal(g.vector, model.spectrum.eigenvectors[:, 0])


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_tree_solves_invert_the_factored_matrix(complex_):
    """A forward and an adjoint solve through the certificate's tree apply (M - s I)^-1, the refinement's step."""
    rng = np.random.default_rng(30)
    h = random_hermitian(rng, 200)
    h = h if complex_ else h.real.copy()
    vals, vecs = np.linalg.eigh(h)
    c, sigma = vals[-1] - vals[0], (vals[0] + vals[1]) / 2.0
    tree = linalg._positive_definite(h, vecs[:, 0], c, sigma)
    assert tree is not None
    shift = sigma + CERTIFICATE_SHIFT * tol_scale(c, sigma)
    m = h + c * np.outer(vecs[:, 0], vecs[:, 0].conj()) - shift * np.eye(200)
    p = rng.normal(size=200) + (1j * rng.normal(size=200) if complex_ else 0.0)
    q = p.copy()
    linalg._solve(tree, q)
    linalg._solve(tree, q, adjoint=True)
    assert np.linalg.norm(m @ q - p) <= 1e-10 * np.linalg.norm(p)


def test_certificate_memory_stays_within_its_blocks():
    """At d = 1024 the certificate holds its three top-level blocks and their factors, never a d x d copy of M."""
    h = build_dense(load_model(Path(__file__).parent / "data" / "transverse_chain10_model.json"))
    psi = linalg._lanczos(h, np.random.default_rng(0).standard_normal(len(h)))[0]
    c, sigma = _certificate_inputs(h, psi)
    tracemalloc.start()
    try:
        assert linalg._positive_definite(h, psi, c, sigma + STRUCTURAL_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20  # M would take 8 MiB on its own


@pytest.mark.parametrize("n", [100, 1024])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_gershgorin_by_tiles_matches_the_full_row_sums(n, complex_):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0.0)
    h = (a + a.conj().T) / 2.0
    diag = np.diagonal(h)
    assert linalg._gershgorin_top(h) == float(np.max(np.abs(h).sum(axis=1) - np.abs(diag) + diag.real))
    tracemalloc.start()
    try:
        linalg._gershgorin_top(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20  # np.abs(h) would take 8 MiB at n = 1024


# ---------------------------------------------------------------------------
# svd


def test_svd_rank_one():
    rng = np.random.default_rng(0)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    w /= np.linalg.norm(w)
    dec = svd(np.outer(v, w.conj()))
    np.testing.assert_allclose(dec.singular_values, [1, 0, 0, 0], atol=1e-12)


def test_svd_zero_matrix():
    dec = svd(np.zeros((3, 3)))
    np.testing.assert_allclose(dec.singular_values, 0.0, atol=0)


def test_svd_hand_solved_2x2():
    # singular values of [[1,1],[0,1]]: eigenvalues of M^dag M = [[1,1],[1,2]]
    # solve the quadratic by hand: (3 +- sqrt(5)) / 2, take square roots
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    expected = np.sqrt(np.array([(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2]))
    dec = svd(m)
    np.testing.assert_allclose(dec.singular_values, expected, atol=1e-12)
    np.testing.assert_allclose(expected, [(1 + np.sqrt(5)) / 2, (np.sqrt(5) - 1) / 2])


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12))
def test_svd_reconstruction(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    dec = svd(m)
    assert np.all(np.diff(dec.singular_values) <= 1e-13)
    assert op_norm(dec.reconstruct() - m) <= 1e-10 * max(1.0, op_norm(m))


# ---------------------------------------------------------------------------
# operator_abs


def test_operator_abs_scalar_matrix():
    np.testing.assert_allclose(operator_abs(svd(-2.0 * np.eye(2))), 2.0 * np.eye(2), atol=1e-12)


def test_operator_abs_fixes_psd():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 5)
    psd = a @ a.conj().T
    np.testing.assert_allclose(operator_abs(svd(psd)), psd, atol=1e-10)


def test_operator_abs_pauli_z():
    # sqrt(sz sz^dag) = sqrt(I) = I, checked by direct multiplication
    np.testing.assert_allclose(operator_abs(svd(SZ)), np.eye(2), atol=1e-12)


def test_operator_abs_matches_singular_values():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    abs_s = operator_abs(svd(s))
    sq = abs_s @ abs_s
    np.testing.assert_allclose(sq, s @ s.conj().T, atol=1e-9 * max(1.0, op_norm(s) ** 2))
    ev = np.linalg.eigvalsh(abs_s)[::-1]
    np.testing.assert_allclose(ev, singular_values(s), atol=1e-10)


def test_tol_scale_of_arrays_is_each_member_alone():
    lo = np.array([0.5, -3.0, np.nan, 2.0, np.nan])
    hi = np.array([-0.25, 1.0, 4.0, np.nan, np.nan])
    scale = tol_scale(lo, hi, -2.5)
    assert isinstance(tol_scale(lo[1], hi[1]), float) and isinstance(tol_scale(np.float64(2.0)), float)
    assert scale.tolist() == [tol_scale(x, y, -2.5) for x, y in zip(lo, hi)] == [2.5, 3.0, 4.0, 2.5, 2.5]
    assert tol_scale(np.array([np.nan, 0.5])).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("k", [3, 4])
def test_operator_abs_of_a_stack_is_each_member_alone(k):
    # a (4, 4, 4) stack once broadcast the singular values across members instead of columns
    rng = np.random.default_rng(k)
    stack = rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4))
    together = operator_abs(svd(stack))
    for m in range(k):
        assert np.array_equal(together[m], operator_abs(svd(stack[m])))


def test_singular_value_functions_of_a_stack_are_each_member_alone():
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    values, norms = singular_values(stack), op_norm(stack)
    assert isinstance(op_norm(stack[0]), float)
    for m in range(5):
        assert np.array_equal(values[m], singular_values(stack[m]))
        assert norms[m] == op_norm(stack[m])
    for kind in NormKind:
        assert sv_norm(values, kind).tolist() == [sv_norm(v, kind) for v in values]
    tol = np.array([0.0, 10.0, 0.0, 10.0, 0.0])
    dominated = sv_dominance(values, values[::-1], tol)
    assert dominated.tolist() == [sv_dominance(s, t, x) for s, t, x in zip(values, values[::-1], tol)]
    assert dominated[1] and dominated[3] and dominated[2]


def test_frobenius_norm_has_numpys_bits():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(4, 7, 7)) + 1j * rng.normal(size=(4, 7, 7))
    for x in (stack, stack.real):
        norms = linalg.frobenius_norm(x)
        assert [linalg.frobenius_norm(m[None])[0] for m in x] == [np.linalg.norm(m) for m in x] == norms.tolist()


def test_frobenius_norm_of_a_real_matrix_takes_no_copy():
    a = np.random.default_rng(13).normal(size=(1024, 1024))
    tracemalloc.start()
    try:
        norm = linalg.frobenius_norm(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm == np.linalg.norm(a) and peak <= 2**16, peak  # no zero imaginary part of 8 MiB


# ---------------------------------------------------------------------------
# psd_leq


def test_psd_leq_trivial_cases():
    holds, margin = psd_leq(np.zeros((2, 2)), np.eye(2))
    assert holds and abs(margin - 1.0) < 1e-14
    holds, margin = psd_leq(np.eye(2), np.zeros((2, 2)))
    assert not holds and abs(margin + 1.0) < 1e-14


def test_psd_leq_solves_only_the_difference(solver_sizes, monkeypatch):
    sizes = solver_sizes["eigvalsh"]
    converted, as_matrix = [], linalg._as_matrix
    monkeypatch.setattr(linalg, "_as_matrix", lambda m, *a, **k: converted.append(np.shape(m)) or as_matrix(m, *a, **k))
    rng = np.random.default_rng(3)
    s, t = random_hermitian(rng, 5), random_hermitian(rng, 5)
    skew = np.triu(np.ones((5, 5)), 1)  # ||skew - skew^T||_F = sqrt(20)
    psd_leq(s, t)
    assert converted == [(5, 5), (5, 5)]  # each input converted and checked once
    psd_leq(s, t + 0.1 * STRUCTURAL_TOL * skew)
    assert members(sizes, 5) == 2  # T - S only: asymmetry within STRUCTURAL_TOL passes at any scale
    sizes.clear()
    big = 100.0 * t  # asymmetry above STRUCTURAL_TOL, within the scaled rule: T is solved
    assert psd_leq(s, big + 10.0 * STRUCTURAL_TOL * skew)[0] == psd_leq(s, big)[0]
    assert members(sizes, 5) == 3


def test_psd_leq_converts_an_input_past_the_gate_once(solver_sizes, monkeypatch):
    # ||M - M^dag||_F just above STRUCTURAL_TOL: the Hermitian rule is checked on the array already converted
    sizes = solver_sizes["eigvalsh"]
    converted, as_matrix = [], linalg._as_matrix
    monkeypatch.setattr(linalg, "_as_matrix", lambda m, *a, **k: converted.append(np.shape(m)) or as_matrix(m, *a, **k))
    monkeypatch.setattr(linalg, "_square", lambda *a, **k: pytest.fail("an input was converted again"))
    rng = np.random.default_rng(4)
    s, t = random_hermitian(rng, 5), random_hermitian(rng, 5)
    past = t + 1.01 * STRUCTURAL_TOL / np.sqrt(20.0) * np.triu(np.ones((5, 5)), 1)
    assert STRUCTURAL_TOL < np.linalg.norm(past - past.conj().T) < 1.02 * STRUCTURAL_TOL
    assert psd_leq(s, past)[0] == psd_leq(s, t)[0]
    assert converted == [(5, 5)] * 4  # two calls, each input converted once
    assert members(sizes, 5) == 3  # T's Hermitian check, then T - S in each call
    with pytest.raises(NotHermitianError, match="asymmetry"):
        psd_leq(s, t + 0.01 * np.triu(np.ones((5, 5)), 1))


def test_psd_leq_of_stacks_is_each_pair_alone():
    rng = np.random.default_rng(6)
    s = np.array([random_hermitian(rng, 4) for _ in range(5)])
    t = s + np.array([0.1 * random_hermitian(rng, 4) + (m - 2) * np.eye(4) for m in range(5)])
    holds, margin = psd_leq(s, t)
    assert holds.dtype == bool and holds.tolist() == [False, False, False, True, True]
    assert list(zip(holds.tolist(), margin.tolist())) == [psd_leq(a, b) for a, b in zip(s, t)]


def test_psd_leq_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        psd_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_psd_leq_partial_order():
    rng = np.random.default_rng(11)
    tol = 1e-9
    mats = [random_hermitian(rng, 4) for _ in range(4)]
    for s in mats:
        holds, _ = psd_leq(s, s, tol)
        assert holds  # reflexive
    a = mats[0]
    b = a + 0.5 * np.eye(4)
    c = b + 0.5 * np.eye(4)
    assert psd_leq(a, b, tol)[0] and psd_leq(b, c, tol)[0]
    holds, margin = psd_leq(a, c, tol)
    assert holds and margin >= psd_leq(a, b, tol)[1] + psd_leq(b, c, tol)[1] - 2 * tol
    # antisymmetry up to tol: both directions only when nearly equal
    d = a + 1e-12 * np.eye(4)
    assert psd_leq(a, d, tol)[0] and psd_leq(d, a, tol)[0]
    assert op_norm(a - d) <= 10 * tol


# ---------------------------------------------------------------------------
# norms


def test_ui_norm_identity_hs():
    assert abs(ui_norm(np.eye(2), NormKind.HILBERT_SCHMIDT) - np.sqrt(2)) < 1e-14


def test_ui_norm_rank_one_normalized():
    rng = np.random.default_rng(4)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    w = rng.normal(size=5) + 1j * rng.normal(size=5)
    dyad = np.outer(v / np.linalg.norm(v), (w / np.linalg.norm(w)).conj())
    for kind in NormKind:
        assert abs(ui_norm(dyad, kind) - 1.0) < 1e-12


def test_ui_norm_pauli_x_trace():
    assert abs(ui_norm(SX, NormKind.TRACE) - 2.0) < 1e-14


@given(st.integers(0, 10_000), st.integers(1, 12))
def test_norm_dominance(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    op = ui_norm(m, NormKind.OPERATOR)
    hs = ui_norm(m, NormKind.HILBERT_SCHMIDT)
    tr = ui_norm(m, NormKind.TRACE)
    assert op <= hs + 1e-12 * max(1, tr) <= tr + 2e-12 * max(1, tr)


@given(st.integers(0, 10_000), st.integers(2, 10))
def test_unitary_invariance(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = haar_unitary(n, rng)
    v = haar_unitary(n, rng)
    for kind in NormKind:
        before = ui_norm(m, kind)
        after = ui_norm(u @ m @ v, kind)
        assert abs(before - after) <= 1e-10 * max(1.0, before)


# ---------------------------------------------------------------------------
# singular dominance / appendix check


def singular_dominance(s, t, tol=ROUNDOFF_TOL):
    return sv_dominance(singular_values(s), singular_values(t), tol)


def test_singular_dominance_reflexive_and_scaled():
    rng = np.random.default_rng(6)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert singular_dominance(t, t)
    assert not singular_dominance(2 * t, t)


def test_singular_dominance_projected_products():
    # P S Q cannot beat S in any singular value
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u = haar_unitary(6, rng)
        p = u[:, :3] @ u[:, :3].conj().T
        v = haar_unitary(6, rng)
        q = v[:, :2] @ v[:, :2].conj().T
        assert singular_dominance(p @ s @ q, s, tol=1e-10)


def test_appendix_norm_check_cases():
    rng = np.random.default_rng(8)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    dyad = np.outer(v / np.linalg.norm(v), (w / np.linalg.norm(w)).conj())
    assert appendix_norm_check(dyad)
    assert appendix_norm_check(np.eye(2))  # 1 <= sqrt(2) <= 2
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert appendix_norm_check(m)


# ---------------------------------------------------------------------------
# stacks: each member gets, bit for bit, what a call on it alone gets

STACK_KINDS = ("real", "complex", "diagonal", "roundoff", "complex-diagonal")


def _stack_member(rng, d, kind):
    """A Hermitian d x d matrix of one kind; "roundoff" is complex with an asymmetry far below the rule's."""
    if kind in ("diagonal", "complex-diagonal"):
        m = np.diag(rng.normal(size=d))
        return m + 0j if kind == "complex-diagonal" else m
    h = random_hermitian(rng, d)
    if kind == "real":
        return h.real.copy()
    if kind == "roundoff":
        h[0, d - 1] += 1e-14 * (1 + 1j)
    return h


def _same(stacked, solo):
    """Bit for bit, a real solo value upcast exactly when the stack's array is complex."""
    return stacked.tobytes() == np.asarray(solo, dtype=stacked.dtype).tobytes()


def _stacks(mixed=False):
    """Stacks of one kind, every member with an imaginary part or none; with mixed=True, the stacks that hold both."""
    for k in (1, 2, 7):
        for d in (1, 2, 3, 16, 130):  # 130: past one 128-row tile, each member takes the tiled exactness test
            for kinds in [STACK_KINDS] if mixed else [("real", "diagonal", "complex-diagonal"), ("complex", "roundoff")]:
                for offset in range(len(kinds) if k < len(kinds) else 1):
                    rng = np.random.default_rng([k, d, offset])
                    members = [_stack_member(rng, d, kinds[(offset + m) % len(kinds)]) for m in range(k)]
                    if len({bool(np.imag(m).any()) for m in members}) == 1 + mixed:  # a 1 x 1 "complex" is real
                        yield members


def test_hermitian_eig_of_a_stack_is_each_member_s_own():
    for members in _stacks():
        stacked = hermitian_eig(np.stack(members))
        solos = [hermitian_eig(m) for m in members]
        assert stacked.eigenvectors.dtype == np.result_type(*(s.eigenvectors for s in solos))
        for m, solo in enumerate(solos):
            assert _same(stacked.eigenvalues[m], solo.eigenvalues)
            assert _same(stacked.eigenvectors[m], solo.eigenvectors)


def test_eigvalsh_of_a_stack_is_each_member_s_own():
    for members in _stacks():
        stacked = eigvalsh(np.stack(members))
        assert stacked.dtype == np.float64
        for m, member in enumerate(members):
            assert _same(stacked[m], eigvalsh(member))


def test_a_stack_that_mixes_kinds_is_solved_in_complex():
    """A member with an imaginary part gets its own call's bits; one without is solved in complex with it, and
    matches its own float64 call to round-off."""
    for members in _stacks(mixed=True):
        stacked, values = hermitian_eig(np.stack(members)), eigvalsh(np.stack(members))
        assert stacked.eigenvectors.dtype == complex
        for m, member in enumerate(members):
            solo = hermitian_eig(member)
            got = (stacked.eigenvalues[m], stacked.eigenvectors[m], values[m])
            want = (solo.eigenvalues, solo.eigenvectors, eigvalsh(member))
            if np.imag(member).any():
                assert all(_same(x, y) for x, y in zip(got, want))
            else:
                scale = tol_scale(solo.eigenvalues[0], solo.eigenvalues[-1])
                assert all(np.abs(x - y).max() <= RECONSTRUCTION_TOL * scale for x, y in zip(got, want))


def test_svd_of_a_stack_is_each_member_s_own():
    for members in (*_stacks(), *_stacks(mixed=True)):
        rows = np.stack(members)[:, :, : max(1, members[0].shape[0] - 1)]  # not square: U and V differ in shape
        stacked = svd(rows)
        for m, member in enumerate(rows):
            solo = svd(member)
            for got, want in ((stacked.singular_values, solo.singular_values), (stacked.left, solo.left),
                              (stacked.right, solo.right)):
                assert got[m].dtype == want.dtype and _same(got[m], want)


@pytest.mark.parametrize("solver", [hermitian_eig, eigvalsh], ids=["hermitian_eig", "eigvalsh"])
@pytest.mark.parametrize("bad", ["nan", "non-hermitian", "overflow"])
def test_a_bad_member_raises_its_solo_error(solver, bad):
    rng = np.random.default_rng(5)
    members = [_stack_member(rng, 3, kind) for kind in ("real", "complex", "diagonal")]
    broken = members[1].copy()
    if bad == "nan":
        broken[2, 0] = np.nan
    elif bad == "non-hermitian":
        broken[2, 0] += 1e-3
    else:
        broken = np.full((3, 3), 1e308)  # eigenvalues 0, 0 and inf
    with pytest.raises(Exception) as solo:
        solver(broken)
    with pytest.raises(type(solo.value)) as stacked:
        solver(np.stack([members[0], broken, members[2]]))
    assert str(stacked.value) == str(solo.value)


def test_stack_solvers_take_no_new_d_by_d_temporary():
    """At d = 1024 the solvers hold at most what they held before they took stacks, on a stack of one too."""
    rng = np.random.default_rng(1024)
    a = rng.normal(size=(1024, 1024))
    exact = (a + a.T) / 2.0
    roundoff = exact.copy()
    roundoff[0, 1] += 1e-13
    matrix = 8 * 2**20
    limits = {(eigvalsh, 0): 1.25 * 2**20,  # the finiteness mask
              (eigvalsh, 1): matrix + 0.25 * 2**20,  # M - M^dag, then the Hermitian part
              (hermitian_eig, 0): 3 * matrix + 0.25 * 2**20,  # the vectors, |vectors| and the phase-fixed copy
              (hermitian_eig, 1): 4 * matrix + 0.25 * 2**20}
    for (solver, asym), limit in limits.items():
        for m in ((roundoff if asym else exact), (roundoff if asym else exact)[None]):
            tracemalloc.start()
            try:
                solver(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, (solver.__name__, asym, m.ndim, peak / 2**20)
