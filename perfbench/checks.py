"""Output checks, written independently of the library under test.

Each check rebuilds what it needs from the generated input with plain
numpy: Hamiltonians by Kronecker products of the model file's factors,
spectra and eigenvectors by ``numpy.linalg.eigh``, limits on the
entanglement from those eigenvectors, and the two-spin Ising closed forms
from their formulas.  ``check_call`` returns a list of problems; an empty
list means the call passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from functools import lru_cache

import numpy as np

TOL_ENERGY = 1e-9  # times the spectrum's scale
TOL_ENT = 1e-6  # optimizer-derived entanglement against a bound
TOL_BOUND_ORDER = 1e-12
TOL_WINDOW = 1e-9  # entanglement against its Schmidt and product-basis limits
GAP_WINDOW = 1e-6  # times scale: closer levels leave the eigenvector too loosely defined
TOL_CLOSED_FORM = 1e-8  # as in tests/test_acceptance.py

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

SWEEP_COLUMNS = [
    "g", "entanglement", "ef_bound_symmetric", "ef_bound_asymmetric",
    "closed_form_gse", "closed_form_fb", "closed_form_fb2",
    "dev_entanglement", "dev_ef_symmetric", "dev_ef_asymmetric",
]
SATURATE_COLUMNS = [
    "gamma", "E0", "E0_L", "E0_I", "E_f", "delta_e_ent",
    "ef_bound", "entanglement", "excess", "overshoot_interaction",
]
PERTURB_SUMMARY = re.compile(r"^perturb: (\d+) trials, (\d+) failures\b")


def _op(op) -> np.ndarray:
    if isinstance(op, str):
        return PAULI[op]
    return np.array([[complex(re_, im) for re_, im in row] for row in op])


def dense_hamiltonian(model: dict) -> np.ndarray:
    """Sum over terms of coeff * (kron of factors, identity elsewhere)."""
    dims = model["sites"]
    total = int(np.prod(dims))
    h = np.zeros((total, total), dtype=complex)
    for term in model["terms"]:
        ops = {f["site"]: _op(f["op"]) for f in term["factors"]}
        m = np.array([[term["coeff"]]], dtype=complex)
        for site, d in enumerate(dims):
            m = np.kron(m, ops.get(site, np.eye(d)))
        h += m
    return h


@lru_cache(maxsize=16)
def _eigh_of(model_json: str):
    h = dense_hamiltonian(json.loads(model_json))
    if not np.any(h.imag):
        h = h.real
    return np.linalg.eigh(h)


def eigh(model: dict):
    """(eigenvalues ascending, eigenvector columns) of the model's own dense matrix."""
    return _eigh_of(json.dumps(model, sort_keys=True))


def entanglement_window(model: dict, j: int):
    """(lower, upper) limits on the geometric measure of eigenstate j, or None.

    Any product state is a product across every cut, so its squared overlap
    is at most the largest squared Schmidt coefficient of every cut: the
    tightest cut gives the lower limit.  The best product-basis state gives the upper
    one.  With two sites the lower limit is exact.  None when level j lies
    within GAP_WINDOW * scale of another, where the eigenvector is not
    determined to the checks' tolerance.
    """
    vals, vecs = eigh(model)
    scale = _scale(vals)
    gaps = np.abs(np.delete(vals, j) - vals[j])
    if gaps.size and gaps.min() <= GAP_WINDOW * scale:
        return None
    dims = model["sites"]
    psi = vecs[:, j]
    top = min(np.linalg.svd(psi.reshape(int(np.prod(dims[:k])), -1), compute_uv=False)[0]
              for k in range(1, len(dims)))
    lower = 1.0 - min(float(top) ** 2, 1.0)
    upper = lower if len(dims) == 2 else 1.0 - float(np.max(np.abs(psi)) ** 2)
    return lower, upper


def _scale(values) -> float:
    return max(1.0, float(np.max(np.abs(values))))


def _num(cell: str):
    return None if cell == "" else float(cell)


def _csv_rows(text: str, columns: list) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != columns:
        raise ValueError(f"unexpected CSV header {rows[0] if rows else None}")
    return [{c: _num(cell) for c, cell in zip(columns, row)} for row in rows[1:]]


def _entanglement_check(value, window, problems: list, where: str) -> None:
    if window is not None and not window[0] - TOL_WINDOW <= value <= window[1] + TOL_WINDOW:
        problems.append(f"{where}entanglement {value!r} outside [{window[0]!r}, {window[1]!r}]")


def _ground_checks(rep: dict, model: dict, problems: list, where: str = "") -> None:
    """Energy, frustration-energy, entanglement and bound checks of a ground-state report."""
    ev = eigh(model)[0]
    scale = _scale(ev)
    if abs(rep["E0"] - ev[0]) > TOL_ENERGY * scale:
        problems.append(f"{where}E0 {rep['E0']!r} != eigh {ev[0]!r}")
    if rep["E_f"] < -TOL_ENERGY * scale:
        problems.append(f"{where}E_f {rep['E_f']!r} < 0")
    if rep.get("E_I_tot") is not None and rep["E_f"] > rep["E_I_tot"] + TOL_ENERGY * scale:
        problems.append(f"{where}E_f {rep['E_f']!r} > E_I_tot {rep['E_I_tot']!r}")
    for key in ("ef_bound", "ratio_bound"):
        if key not in rep:
            continue
        bound = rep[key]
        if bound is None or not rep["entanglement"] <= bound + TOL_ENT:
            problems.append(f"{where}entanglement {rep['entanglement']!r} vs {key} {bound!r}")
    _entanglement_check(rep["entanglement"], entanglement_window(model, 0), problems, where)


def check_analyze(call, out: str) -> list:
    problems = []
    rep = json.loads(out)
    model = call.spec["model"]
    _ground_checks(rep, model, problems)
    gaps = sorted(2.0 * abs(g) for g in call.spec["fields"])
    if abs(rep["delta_e_ent"] - gaps[1]) > TOL_ENERGY * _scale(eigh(model)[0]):
        problems.append(f"delta_e_ent {rep['delta_e_ent']!r} != second smallest 2|g| {gaps[1]!r}")
    return problems


def _ising2_closed_forms(g: float):
    r = math.sqrt(1.0 + 4.0 * g * g)
    ent = 0.5 - g / r
    sym = (1.0 + 2.0 * g - r) / (2.0 * g)
    asym = 0.5 - (r - math.sqrt(1.0 + g * g)) / (2.0 * g)
    return ent, sym, asym


def check_sweep(call, out: str) -> list:
    problems = []
    rows = _csv_rows(out, SWEEP_COLUMNS)
    spec = call.spec
    grid = np.linspace(spec["lo"], spec["hi"], spec["points"])
    if len(rows) != spec["points"]:
        return [f"{len(rows)} sweep rows, expected {spec['points']}"]
    for g, row in zip(grid, rows):
        where = f"g={g:.6g}: "
        if abs(row["g"] - g) > 1e-12 * max(1.0, abs(g)):
            problems.append(f"{where}grid value {row['g']!r}")
        for key in ("dev_entanglement", "dev_ef_symmetric", "dev_ef_asymmetric"):
            if row[key] is None or not row[key] <= TOL_CLOSED_FORM:
                problems.append(f"{where}{key} = {row[key]!r}")
        ent, sym, asym = _ising2_closed_forms(float(g))
        for key, exact in (("entanglement", ent), ("ef_bound_symmetric", sym),
                           ("ef_bound_asymmetric", asym)):
            if row[key] is None or not abs(row[key] - exact) <= TOL_CLOSED_FORM:
                problems.append(f"{where}{key} {row[key]!r} != closed form {exact!r}")
    return problems


def check_saturate(call, out: str) -> list:
    problems = []
    rows = _csv_rows(out, SATURATE_COLUMNS)
    gammas = call.spec["gammas"]
    if len(rows) != len(gammas):
        return [f"{len(rows)} saturate rows, expected {len(gammas)}"]
    model = call.spec["model"]
    scale = _scale(eigh(model)[0])
    for gamma, row in zip(gammas, rows):
        where = f"gamma={gamma:.3g}: "
        if row["gamma"] != gamma:
            problems.append(f"{where}gamma column {row['gamma']!r}")
        _ground_checks(row, model, problems, where)
        if abs(row["delta_e_ent"] - gamma) > TOL_ENERGY * scale:
            problems.append(f"{where}delta_e_ent {row['delta_e_ent']!r} != gamma")
        excess = row["excess"]
        if excess is not None and math.isfinite(excess) and not excess > 0.0:
            problems.append(f"{where}excess {excess!r} <= 0")
    return problems


def check_perturb(call, out: str) -> list:
    lines = out.rstrip("\n").split("\n")
    match = PERTURB_SUMMARY.match(lines[-1])
    trials = call.spec["trials"]
    if match is None:
        return [f"no perturb summary line: {lines[-1]!r}"]
    problems = []
    if int(match.group(1)) != trials or int(match.group(2)) != 0:
        problems.append(f"perturb summary {lines[-1]!r}")
    entries = [json.loads(line) for line in lines[:-1]]
    if len(entries) != trials or any(not e["all_ok"] for e in entries):
        problems.append(f"{len(entries)} trial lines, {sum(not e['all_ok'] for e in entries)} not ok")
    return problems


def check_excited(call, out: str) -> list:
    problems = []
    rows = json.loads(out)
    model = call.spec["model"]
    ev = eigh(model)[0]
    scale = _scale(ev)
    if [r["j"] for r in rows] != list(range(call.reports)):
        return [f"excited rows for j = {[r['j'] for r in rows]}"]
    for r in rows:
        where = f"j={r['j']}: "
        if abs(r["E_j"] - ev[r["j"]]) > TOL_ENERGY * scale:
            problems.append(f"{where}E_j {r['E_j']!r} != eigh {ev[r['j']]!r}")
        b29, b30 = r["bound_29"], r["bound_30"]
        if r["precondition_met"] and (b29 is None or not r["entanglement"] <= b29 + TOL_ENT):
            problems.append(f"{where}entanglement {r['entanglement']!r} > bound_29 {b29!r}")
        if b29 is not None and (b30 is None or not b30 >= b29 - TOL_BOUND_ORDER):
            problems.append(f"{where}bound_30 {b30!r} < bound_29 {b29!r}")
        _entanglement_check(r["entanglement"], entanglement_window(model, r["j"]), problems, where)
    return problems


CHECKS = {
    "analyze": check_analyze,
    "sweep": check_sweep,
    "saturate": check_saturate,
    "perturb": check_perturb,
    "excited": check_excited,
}


def check_call(call, code: int, out: str) -> list:
    """Problems with one call's exit code and captured stdout (empty when it passed)."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return CHECKS[call.kind](call, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable {call.kind} output: {exc!r}"]
