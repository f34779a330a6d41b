"""Spin models as weighted operator strings, and their local/interaction splits.

A model is a list of sites (local dimensions) plus terms of the form
coeff * (op on site i) * (op on site j) * ..., each factor Hermitian and the
coefficient real.  A term checks each factor once, where it is made, and keeps
it read-only; a model checks only where factors sit.  Dense Hamiltonians are
built by tensor-product embedding.

A splitting is fixed by its local terms: H_L collects them and H_I is
built from the terms they leave, so H_L + H_I equals H to round-off, bit for
bit where the two write disjoint entries.  The split is not unique: the
default policy sends every degree<=1 term to H_L, but any subset may be left
in H_I term by term, and the Schmidt-based construction in the saturation
module installs a local term that appears in no physical term list at all.
A splitting keeps its local spectrum, computed once.  Per-site gaps are
taken in the degenerate-aware sense: the gap of H_j is zero whenever its
lowest eigenvalue is repeated.  A family, models with equal dims and term
sites, is split as one from its members' own terms: its arrays are stacks by
a single model's rules, each member's bit for bit its own in the family's kind.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import entanglement as ent
from .errors import DimensionCapError, InvalidAssignmentError, InvalidBipartitionError, NonHermitianTermError
from .linalg import (
    RECONSTRUCTION_TOL, ROUNDOFF_TOL, ZERO_COEFF, EigenDecomposition, GroundState, _as_matrix, _lapack,
    _require_finite, eigvalsh, ground_eig, hermitian_eig, tol_scale,
)

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "FRUSTRA_DIM_CAP"
# SpinModel.ground uses linalg.ground_eig from this dimension on; below it the
# full eigh gives the ground state.  Medians of hermitian_eig against ground_eig
# on transverse chains, 2 vCPUs, OpenBLAS: 2.2 against 2.3 ms at d = 128, 8.0
# against 5.2 ms at d = 256, 37 against 14 ms at d = 512, 183 against 43 ms at d = 1024.
GROUND_TIER_MIN_DIM = 256


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


PAULI = {letter: _read_only(np.array(m, dtype=complex)) for letter, m in
         {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}.items()}


def dim_cap() -> int:
    """Dimension cap, overridable through the FRUSTRA_DIM_CAP env var."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise DimensionCapError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise DimensionCapError(f"{DIM_CAP_ENV} must be >= 2, got {value}")
    return value


def _resolve_op(site: int, op) -> tuple[np.ndarray, bool]:
    """(A Pauli constant, or a read-only complex copy of an explicit matrix checked square, finite and Hermitian;
    whether it is real and diagonal)."""
    if isinstance(op, str):
        try:
            return PAULI[op], op == "Z"
        except KeyError:
            raise NonHermitianTermError(f"unknown operator letter {op!r} on site {site}") from None
    a = np.array(op, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise NonHermitianTermError(f"factor on site {site} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonHermitianTermError(f"factor on site {site} has non-finite entries")
    if np.max(np.abs(a - a.conj().T)) > ROUNDOFF_TOL * tol_scale(np.max(np.abs(a))):
        raise NonHermitianTermError(f"factor on site {site} not Hermitian")
    return _read_only(a), not a.imag.any() and np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


@dataclass(frozen=True, eq=False)
class OperatorTerm:
    """One weighted operator string: coeff * prod_i op_i acting on listed sites.

    Factors may be given as Pauli letters "X"/"Y"/"Z" (qubit sites) or as explicit Hermitian matrices, checked here
    and kept as read-only copies (NonHermitianTermError names the site).  Terms of degree <= 1 are "local", degree >= 2
    "interaction" under the default splitting policy.  ``diagonal``: every factor is real and diagonal.
    """

    coeff: float
    factors: tuple[tuple[int, np.ndarray], ...]

    def __init__(self, coeff: float, factors: Iterable[tuple[int, object]]):
        pairs, diagonal = [], True
        for site, op in factors:  # one loop: comprehension and generator passes made a term take 1.7 times as long
            op, factor_diagonal = _resolve_op(site, op)
            pairs.append((int(site), op))
            diagonal = diagonal and factor_diagonal
        object.__setattr__(self, "coeff", float(coeff))
        object.__setattr__(self, "factors", tuple(pairs))
        object.__setattr__(self, "sites", tuple(site for site, _ in pairs))
        object.__setattr__(self, "diagonal", diagonal)

    @property
    def degree(self) -> int:
        return len(self.factors)


@dataclass(frozen=True, eq=False)
class SpinModel:
    """An n-body Hamiltonian as a list of operator strings on labeled sites.

    Immutable after construction; total dimension is checked against the
    dimension cap because everything downstream is dense, and each term's
    sites, shapes and coefficient here (the term checked its own factors).
    """

    name: str
    dims: tuple[int, ...]
    terms: tuple[OperatorTerm, ...]
    site_labels: tuple[str, ...] = ()

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"every site dimension must be >= 2, got {dims}")
        cap = dim_cap()
        total = 1
        for d in dims:
            total *= d
            if total > cap:
                raise DimensionCapError(f"total dimension {total}+ exceeds cap {cap}")
        if not self.site_labels:
            object.__setattr__(self, "site_labels", tuple(str(i) for i in range(len(dims))))
        elif len(self.site_labels) != len(dims):
            raise ValueError("site_labels must match the number of sites")
        elif len(set(self.site_labels)) != len(dims):
            raise ValueError(f"site_labels must be distinct, got {self.site_labels}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t, term in enumerate(self.terms):
            sites = term.sites
            for k, (site, op) in enumerate(term.factors):
                if site < 0 or site >= len(dims):
                    raise InvalidAssignmentError(f"term {t} references invalid site {site}")
                if site in sites[:k]:
                    raise InvalidAssignmentError(f"term {t} references site {site} twice")
                if op.shape != (dims[site], dims[site]):
                    raise NonHermitianTermError(f"term {t}: factor on site {site} has shape {op.shape}, "
                                                f"expected {(dims[site], dims[site])}")
            if not math.isfinite(term.coeff):
                raise NonHermitianTermError(f"term {t}: coefficient must be finite")

    @cached_property
    def _dense(self) -> np.ndarray:
        return _read_only(dense_terms(self.terms, self.dims))

    @cached_property
    def spectrum(self) -> EigenDecomposition:
        """Eigendecomposition of the dense H.

        Computed on first use and then shared by every splitting of this
        model and every report drawn from them.
        """
        dec = hermitian_eig(build_dense(self))
        _read_only(dec.eigenvalues)
        _read_only(dec.eigenvectors)
        return dec

    @cached_property
    def ground(self) -> GroundState:
        """E0, a read-only ground vector, the tolerance scale and the degeneracy flag of H.

        From dimension GROUND_TIER_MIN_DIM on, this is linalg.ground_eig,
        which skips the full decomposition; below it, and whenever
        ground_eig certifies no state (a degenerate ground level, an
        unconverged Lanczos run or a failed factorization), it is read from
        ``spectrum``.
        """
        if self.dimension >= GROUND_TIER_MIN_DIM:
            g = ground_eig(build_dense(self))
            if g is not None:
                _read_only(g.vector)
                return g
        dec = self.spectrum
        return GroundState.of(dec.eigenvalues, dec.eigenvectors[:, 0])

    @cached_property
    def ground_state(self) -> ent.PureState:
        """The ground vector as a read-only PureState, built once and shared by every report."""
        return ent.PureState(self.ground.vector, self.dims)

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def dimension(self) -> int:
        return math.prod(self.dims)

    def label_index(self, label: str) -> int:
        try:
            return self.site_labels.index(label)
        except ValueError:
            raise InvalidBipartitionError(
                f"unknown site label {label!r}; known: {self.site_labels}"
            ) from None


def _columns(terms: Sequence) -> tuple[bool, int, list]:
    """(one, k, columns) of one term list (k = 1) or of one list per member: term t of every member as its (k,)
    coefficients and {site: the (k, d, d) stack of the members' factors, or the (1, d, d) view of one they all hold}."""
    one = not terms or isinstance(terms[0], OperatorTerm)
    rows = [terms] if one else terms
    columns = []
    for column in zip(*rows, strict=True):
        factors = [[op for _, op in pairs] for pairs in zip(*(term.factors for term in column), strict=True)]
        ops = {site: f[0][None] if all(x is f[0] for x in f) else np.stack(f)
               for site, f in zip(column[0].sites, factors)}
        columns.append((np.array([term.coeff for term in column]), ops))
    return one, len(rows), columns


def _add_term(h: np.ndarray, coeffs: np.ndarray, ops: dict, dims: Sequence[int]) -> None:
    """h[m] += coeffs[m] times the embedding of member m's factors ops[site][m], in place, for a (k, D, D) h; for a
    (k, D) h and diagonal factors, the diagonal of that embedding.

    The embedding is I_left x core x I_right, where the core runs from the
    term's first to its last site, so only the block diagonal over the
    untouched outer sites is written.  Every entry is the same product, in
    the same site order ((c a) b ...), that the full Kronecker chain would give.
    """
    lo, hi = min(ops, default=0), max(ops, default=-1)
    core = coeffs.astype(h.dtype).reshape(-1, 1, 1)
    for site in range(lo, hi + 1):
        b = ops.get(site, np.eye(dims[site])[None])
        if h.ndim == 2:  # the diagonal's products: each factor's diagonal as a (k, d, 1) column
            b = np.diagonal(b, 0, 1, 2)[..., None]
        # np.kron(core[m], b[m]) per member: the same single products, without its overhead
        core = (core[:, :, None, :, None] * b[:, None, :, None, :]).reshape(
            len(core), core.shape[1] * b.shape[1], core.shape[2] * b.shape[2])
    left, c = int(np.prod(dims[:lo])), core.shape[1]
    right = h.shape[1] // (left * c)
    step = sum(h.strides[1:])  # to the next diagonal entry, down a row and across a column (a (k, D) h has no columns)
    # distinct (m, l, r, a, b) address distinct entries, in row (l c + a) right + r and column (l c + b) right + r
    block = np.lib.stride_tricks.as_strided(h, (len(h), left, right, c, core.shape[2]), (
        h.strides[0], c * right * step, step, right * h.strides[1], right * h.strides[-1]))
    block += core[:, None, None]


def dense_terms(terms: Sequence, dims: Sequence[int]) -> np.ndarray:
    """Sum of tensor-product embeddings; identity on untouched sites.

    The result is float64 when no factor has an imaginary part (every
    Pauli X/Z model), complex otherwise.  Given one term list per member,
    term t on the same sites in each, it is the (k, D, D) stack of their
    builds, each bit for bit its own if it is of the stack's kind.
    """
    return _sum_terms(terms, dims, dense=True)


def _sum_terms(terms: Sequence, dims: Sequence[int], dense: bool) -> np.ndarray:
    """dense_terms, or with dense=False its (..., D) diagonal, bit for bit, for terms whose every factor is diagonal."""
    one, k, columns = _columns(terms)
    real = not any(op.imag.any() for _, ops in columns for op in ops.values())
    total = int(np.prod(dims))
    h = np.zeros((k, total, total) if dense else (k, total), dtype=float if real else complex)
    for coeffs, ops in columns:
        _add_term(h, coeffs, {site: op.real if real else op for site, op in ops.items()}, dims)
    return h[0] if one else h


def build_dense(model: SpinModel) -> np.ndarray:
    """Dense Hermitian matrix of the full model.

    Built once per model and returned read-only, so every caller shares it.
    """
    if model.dimension > dim_cap():
        raise DimensionCapError(f"dimension {model.dimension} exceeds cap {dim_cap()}")
    return model._dense


@dataclass(frozen=True, eq=False)
class Splitting:
    """A designated decomposition H = H_L + H_I, fixed by its local terms.

    Every local term acts on at most one site and is attributed to exactly one site's H_j (degree-0 constants go to
    site 0, where they shift all levels equally and leave gaps untouched), so sum_j H_j embedded equals H_L.  H_I is
    built from the model's terms, each local term removing one occurrence of itself; a local term that is no model term
    (the Schmidt projector) is added with its coefficient negated.  So H_L + H_I equals H to round-off, bit for bit
    where local and interaction terms write disjoint entries.  A local term of degree > 1 raises
    InvalidAssignmentError.  H_I is held as its diagonal when every factor of its terms is diagonal
    (OperatorTerm.diagonal), and is otherwise the only dense operator a splitting builds; it, its eigenvalues and the
    local spectrum are computed on first use, and they and the per-site H_j are read-only.  A family's splitting (see
    split) holds the tuple of its models and one tuple of local terms per member, and every array it gives has a
    leading member axis.
    """

    model: SpinModel | tuple[SpinModel, ...]
    local_terms: tuple
    per_site_local: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        dims = (self.model if isinstance(self.model, SpinModel) else self.model[0]).dims
        per_site = site_operators(self.local_terms, dims)
        object.__setattr__(self, "per_site_local", tuple(_read_only(h) for h in per_site))

    @cached_property
    def _interaction(self) -> tuple[bool, np.ndarray]:
        """H_I as it is kept, read-only: (True, its (..., D) diagonal) when every factor of every term is diagonal,
        else (False, its dense build); a family's from one term list per member."""
        one = isinstance(self.model, SpinModel)
        models, local = ((self.model,), (self.local_terms,)) if one else (self.model, self.local_terms)
        rows = [_interaction_terms(m.terms, terms) for m, terms in zip(models, local)]
        terms, dims = rows[0] if one else rows, models[0].dims
        if all(t.diagonal for row in rows for t in row):
            return True, _read_only(_sum_terms(terms, dims, dense=False))
        return False, _read_only(dense_terms(terms, dims))

    @cached_property
    def interaction_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of H_I; no eigenvectors, since only extremes are used."""
        diagonal, h = self._interaction
        if diagonal:  # eigvalsh's finiteness check (a real diagonal is Hermitian); sorted, it is what LAPACK returns
            _require_finite(h)
        return _read_only(np.sort(h) if diagonal else eigvalsh(h))

    def interaction_expectation(self, psi: np.ndarray):
        """<psi| H_I |psi> for a unit vector psi; for a family's (k, D) stack of vectors, the list of the k values."""
        diagonal, h = self._interaction  # a diagonal h * psi has the dense product's bits: each product it skips is 0
        if diagonal:
            return np.real(psi.conj()[..., None, :] @ (h * psi)[..., None])[..., 0, 0].tolist()
        return expectation(h, psi).tolist()

    def local_expectation(self, psi: np.ndarray):
        """<psi| H_L |psi> for a unit vector psi: sum_j Re <psi| H_j |psi>, one contraction per site; for a family's
        (k, D) stack of vectors, the list of the k values, each bit for bit its member's own."""
        dims, lead = [h.shape[-1] for h in self.per_site_local], psi.shape[:-1]
        values = []
        for j, (d, h) in enumerate(zip(dims, self.per_site_local)):
            x = psi.reshape(lead + (math.prod(dims[:j]), d, -1))
            # np.vdot of each member, in one call: the same loop on the same unit-stride copy that vdot flattens x to
            values.append(np.vecdot(np.ascontiguousarray(x).reshape(lead + (-1,)),
                                    (h[..., None, :, :] @ x).reshape(lead + (-1,))).real.tolist())
        return sum(values) if not lead else [sum(v) for v in zip(*values)]

    @cached_property
    def local(self) -> LocalSpectrum:
        """Per-site spectra of H_L, computed on first use and shared by every report."""
        return local_spectrum(self)


def expectation(h: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Re <psi| h |psi> over stacks of operators, unit vectors or both, each value its own psi.conj() @ (h @ psi)."""
    return np.real(psi.conj()[..., None, :] @ (h @ psi[..., None]))[..., 0, 0]


def _interaction_terms(terms: Sequence[OperatorTerm], local_terms: Sequence[OperatorTerm]) -> list[OperatorTerm]:
    """The terms of H_I: the model's, each local term removing one occurrence of itself, and a local term that is no
    model term added with its coefficient negated."""
    terms = list(terms)
    for local in local_terms:  # OperatorTerm has eq=False: `in` and remove() match by identity
        if local in terms:
            terms.remove(local)
        else:
            terms.append(OperatorTerm(-local.coeff, local.factors))
    return terms


def site_operators(local_terms: Sequence, dims: Sequence[int]) -> tuple:
    """Per-site H_j (complex; a degree-0 constant on site 0) of local terms, or a family's (k, d_j, d_j) stacks of one
    term list per member (term t on the same site in each).  A term of degree > 1 raises InvalidAssignmentError."""
    one, k, columns = _columns(local_terms)
    per_site = [np.zeros((k, d, d), dtype=complex) for d in dims]
    for coeffs, ops in columns:
        if len(ops) > 1:
            raise InvalidAssignmentError(f"local term on sites {tuple(ops)} has degree {len(ops)} > 1")
        site, op = next(iter(ops.items()), (0, np.eye(dims[0])))
        per_site[site] += coeffs[:, None, None] * op
    return tuple(h[0] if one else h for h in per_site)


def split(model: SpinModel | Sequence[SpinModel], local: Iterable[int] | None = None) -> Splitting:
    """Split the model into local and interaction parts by choosing the local terms.

    With ``local=None`` (default policy) every term of degree <= 1 goes to
    H_L.  Passing explicit term indices makes exactly those terms local
    (they must be distinct, in range and of degree <= 1).  H_I is the rest
    of H, including degree-1 terms left off the list.

    A sequence of models with equal dims and the same sites in each term (a
    family, below GROUND_TIER_MIN_DIM; ValueError otherwise) is split as one,
    member m bit for bit split(models[m], local) if it is of the family's kind
    (real or complex), else to round-off.  H of the members not yet solved is
    one stacked solve that fills each model's own ``spectrum``.
    """
    if isinstance(model, SpinModel):
        return Splitting(model, tuple(model.terms[i] for i in _local_indices(model, local)))
    models = tuple(model)
    if len({(m.dims, *[t.sites for t in m.terms]) for m in models}) != 1 or models[0].dimension >= GROUND_TIER_MIN_DIM:
        raise ValueError("a family is models that share their dims and term sites, below the ground tier")
    idx = _local_indices(models[0], local)
    splitting = Splitting(models, tuple(tuple([m.terms[i] for i in idx]) for m in models))
    unsolved = [m for m in models if "spectrum" not in vars(m)]
    if unsolved:
        dec = hermitian_eig(dense_terms([m.terms for m in unsolved], models[0].dims))
        for m, vals, vecs in zip(unsolved, _read_only(dec.eigenvalues), _read_only(dec.eigenvectors)):
            vars(m)["spectrum"] = EigenDecomposition(vals, vecs)  # the cached_property's slot
    return splitting


def _local_indices(model: SpinModel, local: Iterable[int] | None) -> list[int]:
    """split's choice of local terms, as sorted term indices."""
    if local is None:
        return [i for i, t in enumerate(model.terms) if t.degree <= 1]
    local_idx = [int(i) for i in local]
    if len(set(local_idx)) != len(local_idx):
        raise InvalidAssignmentError("duplicate term index in explicit assignment")
    for i in local_idx:
        if i < 0 or i >= len(model.terms):
            raise InvalidAssignmentError(f"term index {i} out of range")
    return sorted(local_idx)


@dataclass(frozen=True, eq=False)
class LocalSpectrum:
    """Per-site spectra of H_L, the gaps, and the product eigenbasis of H_L.

    Product-basis configurations are indexed in row-major (site-0 major)
    order, matching the tensor-product embedding, with per-site levels in
    the eigensolver's ascending order.  A family's has a leading member axis
    on every array, delta_e_ent and e0 too; ``member(m)`` is member m's own.
    """

    dims: tuple[int, ...]
    site_eigenvalues: tuple[np.ndarray, ...]
    site_eigenvectors: tuple[np.ndarray, ...]
    gaps: np.ndarray
    delta_e_ent: float | np.ndarray
    e0: float | np.ndarray  # E0_L, the sum of the per-site minima
    energies: np.ndarray  # product-basis energies, configuration (lex) order

    def member(self, m: int) -> LocalSpectrum:
        """Member m of a family's spectrum, as views of its arrays; of a family of one kind, split(models[m]).local."""
        return LocalSpectrum(self.dims, tuple(ev[m] for ev in self.site_eigenvalues),
                             tuple(vecs[m] for vecs in self.site_eigenvectors), self.gaps[m],
                             float(self.delta_e_ent[m]), float(self.e0[m]), self.energies[m])

    def config_of_flat(self, flat: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(int(flat), self.dims))

    def flat_of_config(self, config: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(int(c) for c in config), self.dims))


def local_spectrum(splitting: Splitting) -> LocalSpectrum:
    """Diagonalize each per-site H_j and assemble gaps and product energies.

    Sites with no local term carry H_j = 0, hence a vanishing gap.  The
    headline scale delta_e_ent is the second smallest per-site gap: the
    least energy that forces excitations in two distinct subsystems.  A
    family's per-site stacks are solved at once, member m bit for bit its own.
    """
    dims = tuple(h.shape[-1] for h in splitting.per_site_local)
    if len(dims) < 2:
        raise ValueError("local spectrum requires at least 2 sites")
    decs = [hermitian_eig(h) for h in splitting.per_site_local]
    vals = [dec.eigenvalues for dec in decs]
    gaps = np.stack([ev[..., 1] - ev[..., 0] for ev in vals], axis=-1)
    delta_e_ent = np.sort(gaps, axis=-1)[..., 1]
    e0 = np.sum(np.stack([ev[..., 0] for ev in vals], axis=-1), axis=-1)
    lead = vals[0].shape[:-1]  # (k,) for a family
    energies = np.zeros(lead + dims, dtype=float)
    for site, ev in enumerate(vals):
        shape = [1] * len(dims)
        shape[site] = dims[site]
        energies = energies + ev.reshape(lead + tuple(shape))
    energies = energies.reshape(lead + (-1,))
    return LocalSpectrum(
        dims=dims,
        site_eigenvalues=tuple(_read_only(ev) for ev in vals),
        site_eigenvectors=tuple(_read_only(dec.eigenvectors) for dec in decs),
        gaps=_read_only(gaps),
        delta_e_ent=_read_only(delta_e_ent) if lead else float(delta_e_ent),
        e0=_read_only(e0) if lead else float(e0),
        energies=_read_only(energies),
    )


def interaction_extremes(splitting: Splitting):
    """(E^I_0, E^I_max): the extreme eigenvalues of H_I; for a family, the arrays of the members' values."""
    ev = splitting.interaction_eigenvalues
    lo, hi = ev[..., 0], ev[..., -1]
    return (lo, hi) if ev.ndim > 1 else (float(lo), float(hi))


# ---------------------------------------------------------------------------
# regrouping and dense-matrix import


def regroup(model: SpinModel, parts: tuple[Sequence[int], Sequence[int]]) -> SpinModel:
    """Two-party view of a model: each part becomes one composite site.

    Parts must partition the sites.  Each operator string factors across the
    two parts, so the regrouped model has the same number of terms; its dense
    matrix is the original one conjugated by the site-reordering permutation.
    """
    part_a = tuple(int(i) for i in parts[0])
    part_b = tuple(int(i) for i in parts[1])
    if sorted(part_a + part_b) != list(range(model.num_sites)):
        raise InvalidBipartitionError(
            f"parts {part_a}|{part_b} do not partition sites 0..{model.num_sites - 1}"
        )
    if not part_a or not part_b:
        raise InvalidBipartitionError("both parts must be non-empty")

    def party_op(term: OperatorTerm, sites: tuple[int, ...]):
        factors = [(sites.index(site), op) for site, op in term.factors if site in sites]
        if not factors:
            return None
        return dense_terms((OperatorTerm(1.0, factors),), [model.dims[site] for site in sites])

    new_terms = []
    for term in model.terms:
        factors = []
        for party, sites in enumerate((part_a, part_b)):
            op = party_op(term, sites)
            if op is not None:
                factors.append((party, op))
        new_terms.append(OperatorTerm(term.coeff, factors))
    dims = (
        int(np.prod([model.dims[i] for i in part_a])),
        int(np.prod([model.dims[i] for i in part_b])),
    )
    labels = (
        "".join(model.site_labels[i] for i in part_a),
        "".join(model.site_labels[i] for i in part_b),
    )
    return SpinModel(
        name=f"{model.name}[{labels[0]}|{labels[1]}]",
        dims=dims,
        terms=tuple(new_terms),
        site_labels=labels,
    )


def _hermitian_basis(d: int) -> np.ndarray:
    """An orthonormal Hilbert-Schmidt basis of the d x d Hermitian matrices, as one (d^2, d, d) array."""
    basis = np.zeros((d * d, d, d), dtype=complex)
    k = np.arange(d)
    basis[k, k, k] = 1.0
    rows, cols = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(rows.size)
    basis[sym, rows, cols] = basis[sym, cols, rows] = 1.0 / np.sqrt(2.0)
    basis[sym + 1, rows, cols] = 1j / np.sqrt(2.0)
    basis[sym + 1, cols, rows] = -1j / np.sqrt(2.0)
    return basis


def dense_bipartite_model(h: np.ndarray, dims: tuple[int, int], name: str = "dense") -> SpinModel:
    """Express an arbitrary two-party Hermitian matrix as operator strings.

    The real coefficients c_ab = tr((E_a x E_b) H) in orthonormal Hermitian
    bases {E_a}, {E_b} are one d_a^2 x d_b^2 matrix, and its SVD
    c = U S V^T gives the operator-Schmidt decomposition
    H = sum_k s_k A_k x B_k, A_k = sum_a U_ak E_a and B_k = sum_b V_bk E_b
    Hermitian (Nielsen et al., PRA 67, 052301, 2003).  So the model has at
    most min(d_a^2, d_b^2) terms, and the rebuilt dense matrix matches H to
    round-off.
    """
    da, db = int(dims[0]), int(dims[1])
    h = _as_matrix(h)
    if h.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {h.shape} does not match dims {dims}")
    if np.max(np.abs(h - h.conj().T)) > RECONSTRUCTION_TOL * tol_scale(np.max(np.abs(h))):
        raise NonHermitianTermError("input matrix is not Hermitian")
    basis_a, basis_b = _hermitian_basis(da), _hermitian_basis(db)
    coeffs = np.einsum("aji,blk,ikjl->ab", basis_a, basis_b, h.reshape(da, db, da, db)).real
    u, s, vt = _lapack(np.linalg.svd, coeffs, full_matrices=False)
    ops_a = np.tensordot(u.T, basis_a, axes=1)
    ops_b = np.tensordot(vt, basis_b, axes=1)
    terms = tuple(OperatorTerm(c, [(0, a), (1, b)]) for c, a, b in zip(s, ops_a, ops_b) if c >= ZERO_COEFF)
    return SpinModel(name=name, dims=(da, db), terms=terms)


# ---------------------------------------------------------------------------
# built-in models


def ising2(g: float = 1.0) -> SpinModel:
    """Two spins in a transverse field: -g(X1 + X2) - Z1 Z2."""
    return SpinModel(
        name=f"ising2(g={g:g})",
        dims=(2, 2),
        terms=(
            OperatorTerm(-g, [(0, "X")]),
            OperatorTerm(-g, [(1, "X")]),
            OperatorTerm(-1.0, [(0, "Z"), (1, "Z")]),
        ),
    )


def triangle(J: float = 1.0) -> SpinModel:
    """Three antiferromagnetically coupled spins: +J(Z1Z2 + Z2Z3 + Z1Z3).

    All couplings cannot be satisfied at once, so the (classical) ground
    level is six-fold degenerate and the default split has H_L = 0.
    """
    return SpinModel(
        name=f"triangle(J={J:g})",
        dims=(2, 2, 2),
        terms=(
            OperatorTerm(J, [(0, "Z"), (1, "Z")]),
            OperatorTerm(J, [(1, "Z"), (2, "Z")]),
            OperatorTerm(J, [(0, "Z"), (2, "Z")]),
        ),
    )


def chain3(ga: float = 1.0, gb: float = 1.0, gc: float = 1.0,
           jab: float = 1.0, jbc: float = 1.0) -> SpinModel:
    """Open three-spin chain: Z fields of adjustable strength, X-X couplings.

    H = -ga Z_A - gb Z_B - gc Z_C - jab X_A X_B - jbc X_B X_C.
    """
    return SpinModel(
        name=f"chain3(ga={ga:g},gb={gb:g},gc={gc:g})",
        dims=(2, 2, 2),
        site_labels=("A", "B", "C"),
        terms=(
            OperatorTerm(-ga, [(0, "Z")]),
            OperatorTerm(-gb, [(1, "Z")]),
            OperatorTerm(-gc, [(2, "Z")]),
            OperatorTerm(-jab, [(0, "X"), (1, "X")]),
            OperatorTerm(-jbc, [(1, "X"), (2, "X")]),
        ),
    )


def transverse_chain(n: int, g: float = 1.0, j: float = 1.0) -> SpinModel:
    """Open n-spin transverse-field Ising chain: -g sum X_i - j sum Z_i Z_{i+1}."""
    terms = [OperatorTerm(-g, [(i, "X")]) for i in range(n)]
    terms += [OperatorTerm(-j, [(i, "Z"), (i + 1, "Z")]) for i in range(n - 1)]
    return SpinModel(f"chain{n}", (2,) * n, tuple(terms))


BUILTIN_MODELS = {  # name: (factory, description)
    "ising2": (ising2, "two-spin transverse Ising model"),
    "triangle": (triangle, "frustrated antiferromagnetic triangle"),
    "chain3": (chain3, "three-spin chain, per-site field strengths and X-X couplings"),
}


def builtin_params(name: str) -> dict:
    """The built-in model's parameter names and defaults, read from its factory."""
    factory = BUILTIN_MODELS[name][0]
    return {p.name: p.default for p in inspect.signature(factory).parameters.values()}


def make_builtin(name: str, **params) -> SpinModel:
    if name not in BUILTIN_MODELS:
        raise KeyError(f"unknown built-in model {name!r}; known: {sorted(BUILTIN_MODELS)}")
    unknown = set(params) - set(builtin_params(name))
    if unknown:
        raise KeyError(f"unknown parameter(s) {sorted(unknown)} for model {name!r}")
    return BUILTIN_MODELS[name][0](**params)


# ---------------------------------------------------------------------------
# closed forms for the two-spin transverse Ising model


def ising2_exact_energy(g: float) -> float:
    """Ground energy -sqrt(1 + 4 g^2)."""
    return -float(np.sqrt(1.0 + 4.0 * g * g))

def ising2_exact_entanglement(g: float) -> float:
    """Ground-state geometric entanglement 1/2 - |g| / sqrt(1 + 4 g^2), even in g: H(-g) = (Z x Z) H(g) (Z x Z)."""
    return 0.5 - abs(g) / float(np.sqrt(1.0 + 4.0 * g * g))


def ising2_exact_bound_symmetric(g: float) -> float:
    """Frustration bound for the field/coupling split: (1 + 2|g| - sqrt(1+4g^2)) / 2|g|, even in g."""
    if g == 0.0:
        return 1.0  # continuous limit
    return (1.0 + 2.0 * abs(g) - float(np.sqrt(1.0 + 4.0 * g * g))) / (2.0 * abs(g))


def ising2_exact_bound_asymmetric(g: float) -> float:
    """Frustration bound with only site 1's field local, even in g:
    1/2 - (sqrt(1+4g^2) - sqrt(1+g^2)) / 2|g|."""
    if g == 0.0:
        return 0.5  # continuous limit
    return 0.5 - (float(np.sqrt(1.0 + 4.0 * g * g)) - float(np.sqrt(1.0 + g * g))) / (2.0 * abs(g))


# ---------------------------------------------------------------------------
# JSON model files


def _op_to_json(op: np.ndarray):
    for letter, mat in PAULI.items():
        if op.shape == (2, 2) and np.array_equal(op, mat):
            return letter
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in op]


def _op_from_json(op):
    if isinstance(op, str):
        return op
    rows = []
    for row in op:
        entries = []
        for entry in row:
            if isinstance(entry, list):
                re, im = entry
                entries.append(complex(_json_value(re, "op entry"), _json_value(im, "op entry")))
            else:
                entries.append(complex(_json_value(entry, "op entry")))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def model_to_dict(model: SpinModel) -> dict:
    return {
        "name": model.name,
        "sites": list(model.dims),
        "labels": list(model.site_labels),
        "terms": [
            {
                "coeff": term.coeff,
                "factors": [{"site": site, "op": _op_to_json(op)} for site, op in term.factors],
            }
            for term in model.terms
        ],
    }


def _json_value(value, what: str, kinds=(int, float)):
    """The value if it is a JSON value of the given kinds: int() would take 2.5 or true, a loop "AB" or {}."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = {int: "an integer", list: "a list"}.get(kinds, "a number")
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def model_from_dict(data: dict) -> SpinModel:
    try:
        name = str(data["name"])
        dims = tuple(_json_value(d, "site dimension", int) for d in _json_value(data["sites"], "sites", list))
        terms = tuple(
            OperatorTerm(
                _json_value(t["coeff"], "coeff"),
                [(_json_value(f["site"], "factor site", int), _op_from_json(f["op"]))
                 for f in _json_value(t.get("factors", []), "factors", list)],
            )
            for t in _json_value(data["terms"], "terms", list)
        )
        labels = tuple(str(label) for label in _json_value(data.get("labels", []), "labels", list))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return SpinModel(name=name, dims=dims, terms=terms, site_labels=labels)


def load_model(path: str) -> SpinModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
