"""Geometric entanglement of pure states.

The measure is E(psi) = 1 - max |<psi|phi_1 x ... x phi_n>|^2, the maximal
squared overlap with a full product state subtracted from one.  It is zero
exactly on product states and at most 1 - 1/d for a d x d bipartite pair.

Three routes are provided:

* exact, for any bipartition, via the Schmidt decomposition (the optimal
  overlap is the largest Schmidt coefficient);
* alternating optimization for the multipartite case: cycling over sites,
  the optimal vector at one site given the others is a normalized partial
  contraction, so every update increases the overlap.  All restarts run in
  lockstep: each site update is one GEMM per state, its matrix against one
  column per run, and each run keeps its own stopping rule, so it does the
  same sweeps as it would alone.  A batch of states with equal dims runs in
  one such optimizer, with the seeded starts drawn once for the batch; a
  state's GEMMs have the same shape alone or in a batch, so its result is
  bit for bit that of a call for it alone;
* a brute-force Bloch-sphere grid oracle for small all-qubit states, used
  to validate the optimizer.

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

from .errors import InvalidBipartitionError, OracleScaleError
from .linalg import OPTIMIZER_TOL, RECONSTRUCTION_TOL, STRUCTURAL_TOL, fix_phases, svd

DEFAULT_RESTARTS = 32
DEFAULT_TOL = OPTIMIZER_TOL
DEFAULT_MAX_ITERS = 1000
DEFAULT_SEED = 0x5EED

_ORACLE_WORK_CAP = 4_000_000  # grid points evaluated in one coarse pass
_STACK_BYTES_CAP = 16 * 2**20  # per-site state matrices and per-run krons of one batched optimizer


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over the product basis of listed site dims."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if amps.size != int(np.prod(dims)):
            raise ValueError(f"{amps.size} amplitudes incompatible with dims {dims}")
        nrm = float(np.linalg.norm(amps))
        if not np.isfinite(nrm):  # a NaN norm would pass the test below
            raise ValueError("state amplitudes must be finite")
        if abs(nrm - 1.0) > RECONSTRUCTION_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
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


def product_state(vectors: Sequence[np.ndarray], dims=None) -> PureState:
    """Tensor product of per-site unit vectors."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    amps = reduce(np.kron, vecs)
    return PureState.normalized(amps, dims or tuple(v.size for v in vecs))


def overlap_with_product(psi: PureState, vectors: Sequence[np.ndarray]) -> complex:
    """<psi | phi_1 x ... x phi_n> for per-party vectors matching psi.dims."""
    if tuple(np.asarray(v).size for v in vectors) != psi.dims:
        raise ValueError("ansatz vector dimensions do not match the state")
    out = psi.amplitudes.conj().reshape(psi.dims)
    for v in vectors:
        out = np.tensordot(out, np.asarray(v, dtype=complex), axes=([0], [0]))
    return complex(out)


def regroup_state(psi: PureState, parts: Sequence[Sequence[int]]) -> PureState:
    """View a state with sites merged into parties (amplitudes permuted)."""
    flat = [int(i) for part in parts for i in part]
    if sorted(flat) != list(range(psi.num_sites)):
        raise InvalidBipartitionError(f"parts {parts} do not partition the sites")
    tensor = psi.tensor().transpose(flat)
    dims = tuple(int(np.prod([psi.dims[i] for i in part])) for part in parts)
    return PureState(tensor.reshape(-1), dims)


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


def schmidt(psi: PureState, bipartition: tuple[Sequence[int], Sequence[int]]) -> SchmidtDecomposition:
    """Schmidt decomposition along a bipartition of the sites."""
    left = tuple(int(i) for i in bipartition[0])
    right = tuple(int(i) for i in bipartition[1])
    if sorted(left + right) != list(range(psi.num_sites)):
        raise InvalidBipartitionError(
            f"bipartition {left}|{right} does not cover sites 0..{psi.num_sites - 1} exactly once"
        )
    d_left = int(np.prod([psi.dims[i] for i in left]))
    matrix = psi.tensor().transpose(left + right).reshape(d_left, -1)
    dec = svd(matrix)
    resid = float(np.max(np.abs(dec.reconstruct() - matrix)))
    if resid > STRUCTURAL_TOL:
        raise ArithmeticError(f"schmidt reconstruction residual {resid:.3e}")
    return SchmidtDecomposition(dec.singular_values, dec.left, dec.right.conj())


def geometric_measure_bipartite(
    psi: PureState, bipartition: tuple[Sequence[int], Sequence[int]] | None = None
) -> GeometricMeasureResult:
    """Exact geometric measure across a bipartition: 1 - lambda_0^2."""
    if bipartition is None:
        if psi.num_sites != 2:
            raise InvalidBipartitionError("state has more than two sites; pass a bipartition")
        bipartition = ((0,), (1,))
    if psi.num_sites == 2 and tuple(bipartition[0]) == (0,) and tuple(bipartition[1]) == (1,):
        grouped = psi
    else:
        grouped = regroup_state(psi, bipartition)
    dec = schmidt(grouped, ((0,), (1,)))
    return _result(grouped, (dec.left_vectors[:, 0], dec.right_vectors[:, 0]),
                   method="schmidt_exact", converged=True)


def _initial_vectors(psis: Sequence[PureState], restarts: int,
                     seed: int) -> list[list[list[np.ndarray]]]:
    """Each state's per-run start vectors: its dominant product-basis amplitude, then seeded draws.

    Run r's draw comes from default_rng([seed, r]) and depends only on
    (dims, restarts, seed), so the draws are made once and shared by all
    states.
    """
    dims = psis[0].dims
    seeded = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        vecs = []
        for d in dims:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            vecs.append(v / np.linalg.norm(v))
        seeded.append(vecs)
    inits = []
    for psi in psis:
        top = np.unravel_index(int(np.argmax(np.abs(psi.amplitudes))), dims)
        inits.append([[np.eye(d, dtype=complex)[top[i]] for i, d in enumerate(dims)]] + seeded)
    return inits


def _site_matrices(conj: np.ndarray) -> list[np.ndarray]:
    """Per site i, the (states, d_i, D/d_i) stack of each conjugate state tensor with site i first."""
    return [np.moveaxis(conj, i, 1).reshape(len(conj), conj.shape[i], -1) for i in range(1, conj.ndim)]


def _alternating(psis: Sequence[PureState], inits, tol: float,
                 max_iters: int) -> list[GeometricMeasureResult]:
    """Alternating maximization of every state from each of its initializations, in lockstep.

    ``inits[s]`` lists the runs of ``psis[s]``; all states share their dims
    and number of runs, held as a (states, runs, d_i) stack per site.  Each
    site update is one stacked matmul: per state, one GEMM of its matrix
    with the Kronecker products of the other sites' vectors, one per run.
    Its shape is the same alone or in a batch, so a batch gives each state
    its single-call result bit for bit.  A run's result is recorded at the
    sweep where it gains less than ``tol`` (converged) or reaches
    ``max_iters``; a stopped run stays in the stack, its later iterates
    discarded, until all runs of its state have stopped.
    """
    dims = psis[0].dims
    n = len(dims)
    runs = len(inits[0])
    conj = np.stack([psi.amplitudes.conj().reshape(dims) for psi in psis])
    mats = _site_matrices(conj)
    resets = [np.ones(d, dtype=complex) / np.sqrt(d) for d in dims]

    phis = [np.array([[run[i] for run in state] for state in inits]) for i in range(n)]
    live = np.arange(len(psis))  # the states in the stack
    overlap = np.zeros((len(psis), runs))
    final_phis = [p.copy() for p in phis]
    final_overlap = np.zeros((len(psis), runs))
    sweeps = np.zeros((len(psis), runs), dtype=int)  # 0 while a run goes on
    converged = np.zeros((len(psis), runs), dtype=bool)

    for sweep in range(1, max_iters + 1):
        for i in range(n):
            others = [phis[k] for k in range(n) if k != i]
            rest = others[0]
            for p in others[1:]:  # row-wise kron, in site order
                rest = (rest[..., :, None] * p[..., None, :]).reshape(live.size, runs, -1)
            w = np.matmul(rest, mats[i].transpose(0, 2, 1))
            nrm = np.sqrt(np.vecdot(w, w).real)
            zero = nrm == 0.0
            if zero.any():
                # a zero contraction means the run's overlap is still zero
                # (updates never lower it), whatever phi_i is; reset the direction
                phis[i] = np.where(zero[..., None], resets[i],
                                   w.conj() / np.where(zero, 1.0, nrm)[..., None])
            else:
                phis[i] = w.conj() / nrm[..., None]
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
                mats = _site_matrices(conj)

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
    call for its state alone returns.  A state holds about 16 (runs + n) d
    bytes in the stack (its n site matrices and one Kronecker product of
    the other sites' vectors per run), so states are batched in groups
    that fit in _STACK_BYTES_CAP.
    """
    if not psis:
        return []
    dims = psis[0].dims
    if any(psi.dims != dims for psi in psis):
        raise ValueError("batched states must share their dims")
    if len(dims) < 2:
        raise ValueError("multipartite measure requires at least 2 parties")
    inits = _initial_vectors(psis, restarts, seed)
    per_state = 16 * (restarts + 1 + len(dims)) * psis[0].amplitudes.size  # complex128 bytes
    group = max(1, _STACK_BYTES_CAP // per_state)
    results = []
    for lo in range(0, len(psis), group):
        results += _alternating(psis[lo:lo + group], inits[lo:lo + group], tol, max_iters)
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

    The last site is not gridded: given the others, its optimal vector is the
    normalized partial contraction, so it is solved in closed form.  This can
    only raise the overlap relative to gridding it too.
    """
    x = tensor_conj  # shape (d_0, ..., d_{n-1})
    for k, (cands, _, _) in enumerate(candidate_sets):
        # x: (c_0..c_{k-1}, d_k, d_{k+1}..) -> contract d_k against candidates
        x = np.moveaxis(np.tensordot(cands, x, axes=([1], [k])), 0, k)
    norms = np.linalg.norm(x, axis=-1)
    idx = np.unravel_index(int(np.argmax(norms)), norms.shape)
    w = x[idx]
    nrm = float(np.linalg.norm(w))
    return nrm, idx, w.conj() / nrm


def brute_force_geometric_measure(psi: PureState, grid_depth: int = 5) -> GeometricMeasureResult:
    """Grid-search oracle for small all-qubit states.

    All sites but the last sweep a Bloch-sphere (theta, phi) grid with
    2**grid_depth points per angle; the last site is optimized in closed
    form.  Three local refinement rounds around the best cell halve the step
    each time, leaving an O(step^2) error in the reported value.
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
    if float(m * m) ** (n - 1) > _ORACLE_WORK_CAP:
        raise OracleScaleError(
            f"grid of {(m * m) ** (n - 1)} points exceeds the work cap; lower grid_depth"
        )
    tensor_conj = psi.amplitudes.conj().reshape(dims)
    thetas = np.linspace(0.0, np.pi, m)
    phases = np.arange(m) * (2.0 * np.pi / m)

    coarse = [_bloch_vectors(thetas, phases) for _ in range(n - 1)]
    best_overlap, idx, last_vec = _grid_pass(tensor_conj, coarse)
    centers = [(coarse[s][1][idx[s]], coarse[s][2][idx[s]]) for s in range(n - 1)]
    best_vectors = [coarse[s][0][idx[s]] for s in range(n - 1)] + [last_vec]

    theta_step = np.pi / (m - 1)
    phi_step = 2.0 * np.pi / m
    for round_idx in range(1, 4):
        half = 0.5 ** round_idx
        cand_sets = []
        for s in range(n - 1):
            th = np.clip(np.linspace(centers[s][0] - theta_step * half * 2,
                                     centers[s][0] + theta_step * half * 2, 5), 0.0, np.pi)
            ph = np.mod(np.linspace(centers[s][1] - phi_step * half * 2,
                                    centers[s][1] + phi_step * half * 2, 5), 2.0 * np.pi)
            cand_sets.append(_bloch_vectors(th, ph))
        overlap, idx, last_vec = _grid_pass(tensor_conj, cand_sets)
        if overlap > best_overlap:
            best_overlap = overlap
            centers = [(cand_sets[s][1][idx[s]], cand_sets[s][2][idx[s]]) for s in range(n - 1)]
            best_vectors = [cand_sets[s][0][idx[s]] for s in range(n - 1)] + [last_vec]

    return _result(psi, best_vectors, method="brute_force", converged=True)
