"""Spin models as weighted operator strings, and their local/interaction splits.

A model is a list of sites (local dimensions) plus terms of the form
coeff * (op on site i) * (op on site j) * ..., each factor Hermitian and the
coefficient real.  Dense Hamiltonians are built by tensor-product embedding.

A splitting is fixed by its local terms: H_L collects them and
H_I = H - H_L is whatever they leave.  The split is not unique: the default
policy sends every degree<=1 term to H_L, but any subset may be left in H_I
term by term, and the Schmidt-based construction in the saturation module
installs a local term that appears in no physical term list at all.  A
splitting keeps its local spectrum, computed once.  Per-site gaps are taken in
the degenerate-aware sense: the gap of H_j is zero whenever its lowest
eigenvalue is repeated.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionCapError,
    EnumerationCapError,
    InvalidAssignmentError,
    InvalidBipartitionError,
    NonHermitianTermError,
)
from .linalg import (
    RECONSTRUCTION_TOL, ROUNDOFF_TOL, ZERO_COEFF, EigenDecomposition, eigvalsh, hermitian_eig,
    tol_scale,
)

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "FRUSTRA_DIM_CAP"

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def _resolve_op(op) -> np.ndarray:
    if isinstance(op, str):
        try:
            return PAULI[op]
        except KeyError:
            raise NonHermitianTermError(f"unknown operator letter {op!r}") from None
    a = np.asarray(op, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitianTermError(f"factor must be a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class OperatorTerm:
    """One weighted operator string: coeff * prod_i op_i acting on listed sites.

    Factors may be given as Pauli letters "X"/"Y"/"Z" (qubit sites) or as
    explicit Hermitian matrices.  Terms of degree <= 1 are "local",
    degree >= 2 "interaction" under the default splitting policy.
    """

    coeff: float
    factors: tuple[tuple[int, np.ndarray], ...]

    def __init__(self, coeff: float, factors: Iterable[tuple[int, object]]):
        object.__setattr__(self, "coeff", float(coeff))
        resolved = tuple((int(site), _resolve_op(op)) for site, op in factors)
        object.__setattr__(self, "factors", resolved)

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(site for site, _ in self.factors)


@dataclass(frozen=True, eq=False)
class SpinModel:
    """An n-body Hamiltonian as a list of operator strings on labeled sites.

    Immutable after construction; total dimension is checked against the
    dimension cap because everything downstream is dense.
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
            seen = set()
            for site, op in term.factors:
                if site < 0 or site >= len(dims):
                    raise InvalidAssignmentError(f"term {t} references invalid site {site}")
                if site in seen:
                    raise InvalidAssignmentError(f"term {t} references site {site} twice")
                seen.add(site)
                if op.shape != (dims[site], dims[site]):
                    raise NonHermitianTermError(
                        f"term {t}: factor on site {site} has shape {op.shape}, "
                        f"expected {(dims[site], dims[site])}"
                    )
                if not np.all(np.isfinite(op)):
                    raise NonHermitianTermError(f"term {t}: non-finite factor entries")
                if np.max(np.abs(op - op.conj().T)) > ROUNDOFF_TOL * tol_scale(np.max(np.abs(op))):
                    raise NonHermitianTermError(f"term {t}: factor on site {site} not Hermitian")
            if not np.isfinite(term.coeff):
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
    def entanglement_memo(self) -> dict:
        """Ground-state entanglement results, keyed by the options that made them.

        The ground state depends only on the model, so ``bounds`` fills this
        once per set of entanglement options and every splitting of the
        model reads it back; it is freed with the model.
        """
        return {}

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    @property
    def dimension(self) -> int:
        return int(np.prod(self.dims))

    def label_index(self, label: str) -> int:
        try:
            return self.site_labels.index(label)
        except ValueError:
            raise InvalidBipartitionError(
                f"unknown site label {label!r}; known: {self.site_labels}"
            ) from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _add_term(h: np.ndarray, term: OperatorTerm, dims: Sequence[int]) -> None:
    """h += the tensor-product embedding of one term, in place.

    The embedding is I_left x core x I_right, where the core runs from the
    term's first to its last site, so only the block diagonal over the
    untouched outer sites is written.  Every entry is the same product, in
    the same site order, that the full Kronecker chain would give.
    """
    ops = {site: (op.real if h.dtype == float else op) for site, op in term.factors}
    lo, hi = min(ops, default=0), max(ops, default=-1)
    core = np.array([[term.coeff]], dtype=h.dtype)
    for site in range(lo, hi + 1):
        b = ops.get(site, np.eye(dims[site]))
        # np.kron(core, b): the same single products, without its overhead
        core = (core[:, None, :, None] * b[None, :, None, :]).reshape(
            core.shape[0] * b.shape[0], core.shape[1] * b.shape[1])
    left, c = int(np.prod(dims[:lo])), core.shape[0]
    right = h.shape[0] // (left * c)
    h6 = h.reshape(left, c, right, left, c, right)
    st = h6.strides
    # distinct (l, r, a, b) address distinct entries h6[l, a, r, l, b, r]
    block = np.lib.stride_tricks.as_strided(
        h6, (left, right, c, c), (st[0] + st[3], st[2] + st[5], st[1], st[4]))
    block += core


def dense_terms(terms: Iterable[OperatorTerm], dims: Sequence[int]) -> np.ndarray:
    """Sum of tensor-product embeddings; identity on untouched sites.

    The result is float64 when no factor has an imaginary part (every
    Pauli X/Z model), complex otherwise.
    """
    terms = tuple(terms)
    real = not any(np.iscomplexobj(op) and op.imag.any() for term in terms for _, op in term.factors)
    total = int(np.prod(dims))
    h = np.zeros((total, total), dtype=float if real else complex)
    for term in terms:
        _add_term(h, term, dims)
    return h


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

    Every local term acts on at most one site and is attributed to exactly
    one site's H_j (degree-0 constants go to site 0, where they shift all
    levels equally and leave gaps untouched), so sum_j H_j embedded equals
    H_L.  H_I = H - H_L is whatever the local terms leave, so H_L + H_I
    rebuilds H by construction.  Construction raises InvalidAssignmentError
    on a local term of degree > 1.

    The dense H_L is built once, at construction; H_I, the eigenvalues of
    H_I and the local spectrum are computed on first use.  All are kept
    read-only; the dense H and its eigendecomposition live on the model.
    """

    model: SpinModel
    local_terms: tuple[OperatorTerm, ...]
    per_site_local: tuple[np.ndarray, ...] = field(init=False)
    _h_local: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.model.dims
        per_site = [np.zeros((d, d), dtype=complex) for d in dims]
        for term in self.local_terms:
            if term.degree > 1:
                raise InvalidAssignmentError(
                    f"local term on sites {term.sites} has degree {term.degree} > 1")
            site, op = term.factors[0] if term.degree else (0, np.eye(dims[0]))
            per_site[site] += term.coeff * op
        object.__setattr__(self, "per_site_local", tuple(per_site))
        object.__setattr__(self, "_h_local", _read_only(dense_terms(self.local_terms, dims)))

    def dense_local(self) -> np.ndarray:
        return self._h_local

    def dense_interaction(self) -> np.ndarray:
        return self._h_interaction

    @cached_property
    def _h_interaction(self) -> np.ndarray:
        return _read_only(build_dense(self.model) - self._h_local)

    @cached_property
    def interaction_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of H_I; no eigenvectors, since only extremes are used."""
        return _read_only(eigvalsh(self._h_interaction))

    @cached_property
    def local(self) -> LocalSpectrum:
        """Per-site spectra of H_L, computed on first use and shared by every report."""
        return local_spectrum(self)


def split(model: SpinModel, local: Iterable[int] | None = None) -> Splitting:
    """Split the model into local and interaction parts by choosing the local terms.

    With ``local=None`` (default policy) every term of degree <= 1 goes to
    H_L.  Passing explicit term indices makes exactly those terms local
    (they must be distinct, in range and of degree <= 1).  H_I is the rest
    of H, including degree-1 terms left off the list.
    """
    if local is None:
        local_idx = [i for i, t in enumerate(model.terms) if t.degree <= 1]
    else:
        local_idx = [int(i) for i in local]
        if len(set(local_idx)) != len(local_idx):
            raise InvalidAssignmentError("duplicate term index in explicit assignment")
        for i in local_idx:
            if i < 0 or i >= len(model.terms):
                raise InvalidAssignmentError(f"term index {i} out of range")
    return Splitting(model, tuple(model.terms[i] for i in sorted(local_idx)))


@dataclass(frozen=True, eq=False)
class LocalSpectrum:
    """Per-site spectra of H_L, the gaps, and the product eigenbasis of H_L.

    Product-basis configurations are indexed in row-major (site-0 major)
    order, matching the tensor-product embedding, with per-site levels in
    the eigensolver's ascending order.  ``order`` sorts configurations by
    local energy (stable, so ties resolve in configuration order).
    """

    dims: tuple[int, ...]
    site_eigenvalues: tuple[np.ndarray, ...]
    site_eigenvectors: tuple[np.ndarray, ...]
    gaps: np.ndarray
    delta_e_ent: float
    energies: np.ndarray  # product-basis energies, configuration (lex) order
    order: np.ndarray  # argsort of energies, stable

    @property
    def dimension(self) -> int:
        return int(self.energies.size)

    def config_of_flat(self, flat: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(int(flat), self.dims))

    def flat_of_config(self, config: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(int(c) for c in config), self.dims))

    def sorted_config(self, rank: int) -> tuple[int, ...]:
        """Configuration of the rank-th product state by ascending energy."""
        if rank < 0 or rank >= self.dimension:
            raise IndexError(f"rank {rank} out of range for dimension {self.dimension}")
        return self.config_of_flat(int(self.order[rank]))

    def product_vector(self, config: Sequence[int]) -> np.ndarray:
        vec = np.array([1.0 + 0.0j])
        for site, level in enumerate(config):
            vec = np.kron(vec, self.site_eigenvectors[site][:, int(level)])
        return vec

    def product_basis(self, max_dim: int = 1024):
        """All (configuration, energy, eigenvector) triples; dense, so capped."""
        if self.dimension > max_dim:
            raise EnumerationCapError(
                f"refusing to materialize {self.dimension} product vectors (cap {max_dim})"
            )
        out = []
        for flat in range(self.dimension):
            config = self.config_of_flat(flat)
            out.append((config, float(self.energies[flat]), self.product_vector(config)))
        return out


def local_spectrum(splitting: Splitting) -> LocalSpectrum:
    """Diagonalize each per-site H_j and assemble gaps and product energies.

    Sites with no local term carry H_j = 0, hence a vanishing gap.  The
    headline scale delta_e_ent is the second smallest per-site gap: the
    least energy that forces excitations in two distinct subsystems.
    """
    dims = splitting.model.dims
    if len(dims) < 2:
        raise ValueError("local spectrum requires at least 2 sites")
    vals, vecs, gaps = [], [], []
    for h in splitting.per_site_local:
        dec = hermitian_eig(h)
        vals.append(dec.eigenvalues)
        vecs.append(dec.eigenvectors)
        gaps.append(float(dec.eigenvalues[1] - dec.eigenvalues[0]))
    energies = np.zeros(dims, dtype=float)
    for site, ev in enumerate(vals):
        shape = [1] * len(dims)
        shape[site] = dims[site]
        energies = energies + ev.reshape(shape)
    energies = energies.reshape(-1)
    gaps = np.array(gaps)
    delta_e_ent = float(np.sort(gaps)[1])
    return LocalSpectrum(
        dims=dims,
        site_eigenvalues=tuple(vals),
        site_eigenvectors=tuple(vecs),
        gaps=gaps,
        delta_e_ent=delta_e_ent,
        energies=energies,
        order=np.argsort(energies, kind="stable"),
    )


def interaction_extremes(splitting: Splitting) -> tuple[float, float, float]:
    """(E^I_0, E^I_max, E^I_tot): extreme eigenvalues of H_I and their spread."""
    ev = splitting.interaction_eigenvalues
    e0, emax = float(ev[0]), float(ev[-1])
    return e0, emax, emax - e0


# ---------------------------------------------------------------------------
# regrouping and dense-matrix import


def regroup(model: SpinModel, parts: tuple[Sequence[int], Sequence[int]], name: str | None = None) -> SpinModel:
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
        ops = {site: op for site, op in term.factors if site in sites}
        if not ops:
            return None
        out = np.array([[1.0 + 0.0j]])
        for site in sites:
            out = np.kron(out, ops.get(site, np.eye(model.dims[site])))
        return out

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
        name=name or f"{model.name}[{labels[0]}|{labels[1]}]",
        dims=dims,
        terms=tuple(new_terms),
        site_labels=labels,
    )


def _hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[k, l] = s[l, k] = 1.0 / np.sqrt(2.0)
            basis.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[k, l] = 1j / np.sqrt(2.0)
            a[l, k] = -1j / np.sqrt(2.0)
            basis.append(a)
    return basis


def dense_bipartite_model(h: np.ndarray, dims: tuple[int, int], name: str = "dense") -> SpinModel:
    """Express an arbitrary two-party Hermitian matrix as operator strings.

    Expands H in an orthonormal (Hilbert-Schmidt) product basis of Hermitian
    matrices, one term per basis pair, so the rebuilt dense matrix matches H
    to round-off.
    """
    da, db = int(dims[0]), int(dims[1])
    h = np.asarray(h, dtype=complex)
    if h.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {h.shape} does not match dims {dims}")
    if np.max(np.abs(h - h.conj().T)) > RECONSTRUCTION_TOL * tol_scale(np.max(np.abs(h))):
        raise NonHermitianTermError("input matrix is not Hermitian")
    basis_a = _hermitian_basis(da)
    basis_b = _hermitian_basis(db)
    terms = []
    for ea in basis_a:
        for eb in basis_b:
            c = np.trace(np.kron(ea, eb) @ h)
            coeff = float(c.real)
            if abs(coeff) < ZERO_COEFF:
                continue
            terms.append(OperatorTerm(coeff, [(0, ea), (1, eb)]))
    return SpinModel(name=name, dims=(da, db), terms=tuple(terms))


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


@dataclass(frozen=True)
class BuiltinSpec:
    factory: object
    params: dict = field(default_factory=dict)
    doc: str = ""


BUILTIN_MODELS = {
    "ising2": BuiltinSpec(ising2, {"g": 1.0}, "two-spin transverse Ising model"),
    "triangle": BuiltinSpec(triangle, {"J": 1.0}, "frustrated antiferromagnetic triangle"),
    "chain3": BuiltinSpec(
        chain3,
        {"ga": 1.0, "gb": 1.0, "gc": 1.0, "jab": 1.0, "jbc": 1.0},
        "three-spin chain, per-site field strengths and X-X couplings",
    ),
}


def make_builtin(name: str, **params) -> SpinModel:
    spec = BUILTIN_MODELS.get(name)
    if spec is None:
        raise KeyError(f"unknown built-in model {name!r}; known: {sorted(BUILTIN_MODELS)}")
    unknown = set(params) - set(spec.params)
    if unknown:
        raise KeyError(f"unknown parameter(s) {sorted(unknown)} for model {name!r}")
    kwargs = dict(spec.params)
    kwargs.update(params)
    return spec.factory(**kwargs)


# ---------------------------------------------------------------------------
# closed forms for the two-spin transverse Ising model


def ising2_exact_energy(g: float) -> float:
    """Ground energy -sqrt(1 + 4 g^2)."""
    return -float(np.sqrt(1.0 + 4.0 * g * g))

def ising2_exact_entanglement(g: float) -> float:
    """Ground-state geometric entanglement 1/2 - g / sqrt(1 + 4 g^2)."""
    return 0.5 - g / float(np.sqrt(1.0 + 4.0 * g * g))


def ising2_exact_bound_symmetric(g: float) -> float:
    """Frustration bound for the field/coupling split: (1 + 2g - sqrt(1+4g^2)) / 2g."""
    if g == 0.0:
        return 1.0  # continuous limit
    return (1.0 + 2.0 * g - float(np.sqrt(1.0 + 4.0 * g * g))) / (2.0 * g)


def ising2_exact_bound_asymmetric(g: float) -> float:
    """Frustration bound with only site 1's field local:
    1/2 - (sqrt(1+4g^2) - sqrt(1+g^2)) / 2g."""
    if g == 0.0:
        return 0.5  # continuous limit
    return 0.5 - (float(np.sqrt(1.0 + 4.0 * g * g)) - float(np.sqrt(1.0 + g * g))) / (2.0 * g)


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
            if isinstance(entry, (int, float)):
                entries.append(complex(entry))
            else:
                re, im = entry
                entries.append(complex(re, im))
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


def _json_number(value, what: str, kinds=(int, float)):
    """The value if it is a JSON number of the given kinds; int() and float() would take 2.5 or true."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if kinds is int else "a number"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def model_from_dict(data: dict) -> SpinModel:
    try:
        name = str(data["name"])
        dims = tuple(_json_number(d, "site dimension", int) for d in data["sites"])
        terms = tuple(
            OperatorTerm(
                _json_number(t["coeff"], "coeff"),
                [(_json_number(f["site"], "factor site", int), _op_from_json(f["op"]))
                 for f in t.get("factors", [])],
            )
            for t in data["terms"]
        )
        labels = tuple(str(label) for label in data.get("labels", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return SpinModel(name=name, dims=dims, terms=terms, site_labels=labels)


def load_model(path: str) -> SpinModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: SpinModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
