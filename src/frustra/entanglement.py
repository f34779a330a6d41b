"""Geometric entanglement of pure states.

The measure is E(psi) = 1 - max |<psi|phi_1 x ... x phi_n>|^2, the maximal
squared overlap with a full product state subtracted from one.  It is zero
exactly on product states and at most 1 - 1/d for a d x d bipartite pair.

Three routes are provided:

* exact, for two parties, via the Schmidt decomposition (the optimal
  overlap is the largest Schmidt coefficient; a larger model is cut into
  two parties by ``models.regroup`` first);
* alternating optimization (rank-1 ALS) for the multipartite case: the
  optimal vector at one site given the others is a normalized partial
  contraction.  A sweep caches, as DMRG caches environments, the right
  products of the old vectors and a left contraction with the new ones:
  O(runs d) flops and O(n) numpy calls.  All restarts, and a batch of
  states with equal dims, run in lockstep, each run with its own stopping
  rule, and a state's result is bit for bit that of a call for it alone;
* a brute-force Bloch-sphere grid oracle for small all-qubit states, used
  to validate the optimizer: it grids every site but the last two and
  solves those two by the top singular pair of the contracted matrix.

The alternating route returns a certified lower bound on the overlap
(hence an upper bound on E); with restarts plus an initialization from the
dominant product-basis amplitude it reliably reaches the optimum at the
sizes treated here.  All routes are pure functions of (input, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import NotBipartiteError, OracleScaleError
from .linalg import OPTIMIZER_TOL, RECONSTRUCTION_TOL, STRUCTURAL_TOL, fix_phases, svd

DEFAULT_RESTARTS = 32
DEFAULT_TOL = OPTIMIZER_TOL
DEFAULT_MAX_ITERS = 1000
DEFAULT_SEED = 0x5EED

_ORACLE_WORK_CAP = 4_000_000  # coarse-pass grid points: (2**grid_depth)**2 per gridded site, n - 2 sites
# per state: d amplitudes; per run: right products (< 2 d/d_0 if all d_i >= 2), left contraction (d/d_0)
_STACK_BYTES_CAP = 16 * 2**20


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over the product basis of listed site dims; it keeps a read-only copy."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.array(np.reshape(self.amplitudes, -1), dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if amps.size != int(np.prod(dims)):
            raise ValueError(f"{amps.size} amplitudes incompatible with dims {dims}")
        nrm = float(np.linalg.norm(amps))
        if not np.isfinite(nrm):  # a NaN norm would pass the test below
            raise ValueError("state amplitudes must be finite")
        if abs(nrm - 1.0) > RECONSTRUCTION_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def normalized(cls, amplitudes, dims) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(amps)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / nrm, tuple(dims))

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


def product_state(vectors: Sequence[np.ndarray]) -> PureState:
    """Tensor product of per-site unit vectors."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    amps = reduce(np.kron, vecs)
    return PureState.normalized(amps, tuple(v.size for v in vecs))


def overlap_with_product(psi: PureState, vectors: Sequence[np.ndarray]) -> complex:
    """<psi | phi_1 x ... x phi_n> for per-party vectors matching psi.dims."""
    if tuple(np.asarray(v).size for v in vectors) != psi.dims:
        raise ValueError("ansatz vector dimensions do not match the state")
    out = psi.amplitudes.conj().reshape(psi.dims)
    for v in vectors:
        out = np.tensordot(out, np.asarray(v, dtype=complex), axes=([0], [0]))
    return complex(out)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """coefficients descending (squares sum to 1); left/right orthonormal columns."""

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.coefficients) @ self.right_vectors.T


@dataclass(frozen=True, eq=False)
class GeometricMeasureResult:
    """E(psi) plus the maximizing product ansatz and how it was obtained."""

    value: float
    overlap_sq: float
    maximizer: tuple[np.ndarray, ...]
    method: str
    converged: bool
    restarts: int = 0
    iterations: int = 0


def _result(psi: PureState, vectors, method: str, converged: bool,
            restarts: int = 0, iterations: int = 0) -> GeometricMeasureResult:
    # recompute from the ansatz so value and overlap_sq are exactly consistent
    vecs = tuple(fix_phases(np.asarray(v, dtype=complex).reshape(-1, 1))[:, 0] for v in vectors)
    ov = min(abs(overlap_with_product(psi, vecs)) ** 2, 1.0)
    return GeometricMeasureResult(
        value=1.0 - ov,
        overlap_sq=ov,
        maximizer=vecs,
        method=method,
        converged=converged,
        restarts=restarts,
        iterations=iterations,
    )


def schmidt(psi: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition of a two-party state: one SVD of its d_0 x d_1 amplitude matrix."""
    if psi.num_sites != 2:
        raise NotBipartiteError(f"Schmidt decomposition needs two parties, not {psi.num_sites}")
    matrix = psi.tensor()
    dec = svd(matrix)
    resid = float(np.max(np.abs(dec.reconstruct() - matrix)))
    if resid > STRUCTURAL_TOL:
        raise ArithmeticError(f"schmidt reconstruction residual {resid:.3e}")
    return SchmidtDecomposition(dec.singular_values, dec.left, dec.right.conj())


def geometric_measure_bipartite(psi: PureState) -> GeometricMeasureResult:
    """Exact geometric measure of a two-party state: 1 - lambda_0^2."""
    dec = schmidt(psi)
    return _result(psi, (dec.left_vectors[:, 0], dec.right_vectors[:, 0]),
                   method="schmidt_exact", converged=True)


def _initial_vectors(psis: Sequence[PureState], restarts: int, seed: int) -> list[np.ndarray]:
    """Per site, the (states, runs, d_i) stack of start vectors: each state's
    dominant product-basis amplitude, then seeded draws.

    Run r's draw is one normal draw from default_rng([seed, r]), per site d
    real then d imaginary parts; it depends only on (dims, restarts, seed),
    so the draws are made once and shared by all states.
    """
    dims = psis[0].dims
    # the explicit shape keeps restarts = 0 a (0, 2 sum(dims)) draw
    draws = np.array([np.random.default_rng([seed, r]).normal(size=2 * sum(dims))
                      for r in range(restarts)]).reshape(restarts, 2 * sum(dims))
    tops = np.unravel_index(np.argmax(np.abs([psi.amplitudes for psi in psis]), axis=1), dims)
    stacks, lo = [], 0
    for d, top in zip(dims, tops):
        v = draws[:, lo:lo + d] + 1j * draws[:, lo + d:lo + 2 * d]
        lo += 2 * d
        stack = np.empty((len(psis), restarts + 1, d), dtype=complex)
        stack[:, 0] = np.eye(d)[top]
        # the bits of np.linalg.norm on each row
        stack[:, 1:] = v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]
        stacks.append(stack)
    return stacks


def _normalized(w: np.ndarray, reset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per run, conj(w) / |w| and |w|; a run whose w is zero gets the reset direction instead."""
    nrm = np.sqrt(np.vecdot(w, w).real)
    zero = nrm == 0.0
    if zero.any():
        # a zero contraction: the run's overlap is still zero (updates never lower it); reset the direction
        return np.where(zero[..., None], reset, w.conj() / np.where(zero, 1.0, nrm)[..., None]), nrm
    return w.conj() / nrm[..., None], nrm


def _alternating(psis: Sequence[PureState], inits: Sequence[np.ndarray], tol: float,
                 max_iters: int) -> list[GeometricMeasureResult]:
    """Alternating maximization of every state from each of its initializations, in lockstep.

    ``inits[i]`` is site i's (states, runs, d_i) stack of start vectors; all
    states share their dims and number of runs.  A sweep builds
    K_i = phi_{i+1} x ... x phi_{n-1} of the old vectors from right to left.
    Site 0's update is one GEMM per state against K_0, one column per run;
    site i's is L_i K_i, one product per run, L_i the left contraction.
    A run's result is recorded at the sweep where it gains less than ``tol``
    (converged) or reaches ``max_iters``; a stopped run stays in the stack
    until all runs of its state have stopped.
    """
    dims = psis[0].dims
    n = len(dims)
    runs = inits[0].shape[1]
    conj = np.stack([psi.amplitudes.conj() for psi in psis]).reshape(len(psis), dims[0], -1)
    resets = [np.ones(d, dtype=complex) / np.sqrt(d) for d in dims]

    phis = list(inits)
    live = np.arange(len(psis))  # the states in the stack
    overlap = np.zeros((len(psis), runs))
    final_phis = [p.copy() for p in phis]
    final_overlap = np.zeros((len(psis), runs))
    sweeps = np.zeros((len(psis), runs), dtype=int)  # 0 while a run goes on
    converged = np.zeros((len(psis), runs), dtype=bool)

    for sweep in range(1, max_iters + 1):
        right = [phis[-1]]  # right[i] = K_i, row-wise krons of the old vectors
        for p in phis[-2:0:-1]:
            right.insert(0, (p[..., :, None] * right[0][..., None, :]).reshape(live.size, runs, -1))
        phis[0], nrm = _normalized(np.matmul(right[0], conj.transpose(0, 2, 1)), resets[0])
        left = np.matmul(phis[0], conj)  # the state contracted with the new phi_0 ... phi_{i-1}
        for i in range(1, n - 1):
            left = left.reshape(live.size, runs, dims[i], -1)
            phis[i], nrm = _normalized(np.matmul(left, right[i][..., None])[..., 0], resets[i])
            left = np.matmul(phis[i][..., None, :], left)
        phis[-1], nrm = _normalized(left.reshape(live.size, runs, dims[-1]), resets[-1])
        done = nrm - overlap < tol
        overlap = nrm
        stop = (sweeps[live] == 0) & (done | (sweep == max_iters))
        if stop.any():
            s, r = np.nonzero(stop)
            for k in range(n):
                final_phis[k][live[s], r] = phis[k][s, r]
            final_overlap[live[s], r] = overlap[s, r]
            sweeps[live[s], r] = sweep
            converged[live[s], r] = done[s, r]
            keep = (sweeps[live] == 0).any(axis=1)
            if not keep.any():
                break
            if not keep.all():
                live, overlap, conj = live[keep], overlap[keep], conj[keep]
                phis = [p[keep] for p in phis]

    results = []
    for s, psi in enumerate(psis):
        best = int(np.argmax(final_overlap[s]))  # first maximum: ties go to the earliest run
        results.append(_result(psi, [p[s, best] for p in final_phis], method="alternating",
                               converged=bool(converged[s, best]), restarts=runs - 1,
                               iterations=int(sweeps[s].sum())))
    return results


def geometric_measures_multipartite(
    psis: Sequence[PureState],
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = DEFAULT_SEED,
) -> list[GeometricMeasureResult]:
    """geometric_measure_multipartite of each state, all runs of all states in one lockstep optimizer.

    The states must share their dims.  Each result is bit for bit what a
    call for its state alone returns.  A state and its sweep caches (right
    products and a left contraction, O(runs d) flops a sweep) hold about
    16 (1 + runs (1 + 1/d_0)) d bytes, so states are batched in groups that
    fit in _STACK_BYTES_CAP.  ValueError unless restarts >= 0, max_iters >= 1, 0 < tol < inf.
    """
    if restarts < 0 or max_iters < 1 or not 0 < tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"need restarts >= 0, max_iters >= 1, 0 < tol < inf: {restarts}, {max_iters}, {tol}")
    if not psis:
        return []
    dims = psis[0].dims
    if any(psi.dims != dims for psi in psis):
        raise ValueError("batched states must share their dims")
    if len(dims) < 2:
        raise ValueError("multipartite measure requires at least 2 parties")
    inits = _initial_vectors(psis, restarts, seed)
    per_state = 16 * psis[0].amplitudes.size * (1 + (restarts + 1) * (1 + 1 / dims[0]))  # bytes
    group = max(1, int(_STACK_BYTES_CAP // per_state))
    results = []
    for lo in range(0, len(psis), group):
        results += _alternating(psis[lo:lo + group], [p[lo:lo + group] for p in inits], tol, max_iters)
    return results


def geometric_measure_multipartite(
    psi: PureState,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int = DEFAULT_SEED,
) -> GeometricMeasureResult:
    """Geometric measure by alternating optimization over per-site vectors.

    Runs ``restarts`` seeded random initializations plus one built from the
    dominant product-basis amplitude, and keeps the best overlap (ties go to
    the earliest run).  ``converged`` reports whether that best run met
    ``tol`` before ``max_iters`` sweeps; ``iterations`` counts the sweeps
    of all runs.
    """
    return geometric_measures_multipartite([psi], restarts, tol, max_iters, seed)[0]


def _bloch_vectors(thetas: np.ndarray, phases: np.ndarray):
    """Qubit vectors for all (theta, phi) pairs; rows cos(t/2), e^{i p} sin(t/2)."""
    t = np.repeat(thetas, phases.size)
    p = np.tile(phases, thetas.size)
    vecs = np.stack([np.cos(t / 2.0), np.exp(1j * p) * np.sin(t / 2.0)], axis=1)
    return vecs, t, p


def _grid_pass(tensor_conj, candidate_sets):
    """Best overlap over the cross product of per-site candidate vectors.

    The last two sites are not gridded: given the others, the best pair for
    them is the top singular pair of the contracted d_{n-2} x d_{n-1} matrix
    (Eckart & Young, Psychometrika 1, 211, 1936), so one stacked SVD solves
    them at every grid point.  This can only raise the overlap relative to
    gridding them too.  Returns the overlap, the best point's candidate
    indices and the two solved vectors.
    """
    x = tensor_conj  # shape (d_0, ..., d_{n-1})
    for k, (cands, _, _) in enumerate(candidate_sets):
        # x: (c_0..c_{k-1}, d_k, d_{k+1}..) -> contract d_k against candidates
        x = np.moveaxis(np.tensordot(cands, x, axes=([1], [k])), 0, k)
    tops = np.linalg.svd(x, compute_uv=False)[..., 0]
    idx = np.unravel_index(int(np.argmax(tops)), tops.shape)
    u, s, vh = np.linalg.svd(x[idx])
    return float(s[0]), idx, (u[:, 0].conj(), vh[0].conj())


def brute_force_geometric_measure(psi: PureState, grid_depth: int = 5) -> GeometricMeasureResult:
    """Grid-search oracle for small all-qubit states.

    All sites but the last two sweep a Bloch-sphere (theta, phi) grid with
    2**grid_depth points per angle; the last two take the top singular pair
    of the contracted matrix, so a two-qubit state is solved exactly.  Three
    local refinement rounds around the best cell halve the step each time,
    leaving an O(step^2) error in the reported value.
    """
    dims = psi.dims
    if psi.amplitudes.size > 64 or any(d != 2 for d in dims):
        raise OracleScaleError("oracle accepts qubit states of total dimension <= 64")
    n = len(dims)
    if n < 2:
        raise OracleScaleError("oracle requires at least 2 sites")
    m = 2 ** int(grid_depth)
    if m < 2:
        raise OracleScaleError("grid_depth must be at least 1")
    if float(m * m) ** (n - 2) > _ORACLE_WORK_CAP:
        raise OracleScaleError(
            f"grid of {(m * m) ** (n - 2)} points exceeds the work cap; lower grid_depth"
        )
    tensor_conj = psi.amplitudes.conj().reshape(dims)
    theta_step = np.pi / (m - 1)
    phi_step = 2.0 * np.pi / m
    cand_sets = [_bloch_vectors(np.linspace(0.0, np.pi, m), np.arange(m) * phi_step)] * (n - 2)
    best_overlap = -1.0
    for round_idx in range(4):  # the coarse pass, then three refinements
        if round_idx:
            span = 0.5 ** (round_idx - 1)  # five points over +-span steps around the best point
            cand_sets = [_bloch_vectors(
                np.clip(np.linspace(th - theta_step * span, th + theta_step * span, 5), 0.0, np.pi),
                np.mod(np.linspace(ph - phi_step * span, ph + phi_step * span, 5), 2.0 * np.pi),
            ) for th, ph in centers]
        overlap, idx, pair = _grid_pass(tensor_conj, cand_sets)
        if overlap > best_overlap:
            best_overlap = overlap
            centers = [(c[1][i], c[2][i]) for c, i in zip(cand_sets, idx)]
            best_vectors = [c[0][i] for c, i in zip(cand_sets, idx)] + list(pair)

    return _result(psi, best_vectors, method="brute_force", converged=True)
