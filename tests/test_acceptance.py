"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
all) and asserts at the stated tolerance.  Criteria 4-9 delegate to the
randomized suites in frustra.verify at their full trial counts.
"""

import json
import time

import numpy as np
import pytest

from frustra import verify
from frustra.bounds import EntanglementOptions, analyze_excited, analyze_ground
from frustra.cli import main as cli_main
from frustra.models import (
    ising2,
    ising2_exact_bound_asymmetric,
    ising2_exact_bound_symmetric,
    ising2_exact_entanglement,
    split,
)

GRID = np.linspace(0.01, 5.0, 200)


def report_line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {desc}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def ising_grid_data():
    """Numeric sweep over the acceptance grid, timed."""
    start = time.perf_counter()
    rows = []
    for g in GRID:
        model = ising2(float(g))
        sym = analyze_ground(split(model))
        asym = analyze_ground(split(model, local=[0]))
        rows.append((float(g), sym, asym))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_entanglement_and_bound_vs_closed_forms(ising_grid_data):
    rows, elapsed = ising_grid_data
    dev_ent = max(abs(sym.entanglement - ising2_exact_entanglement(g)) for g, sym, _ in rows)
    dev_bound = max(abs(sym.ef_bound - ising2_exact_bound_symmetric(g)) for g, sym, _ in rows)
    ok = dev_ent <= 1e-8 and dev_bound <= 1e-8 and elapsed < 2.0
    report_line(1, "transverse-Ising sweep matches closed forms",
                ok, f"dev_ent={dev_ent:.2e}, dev_bound={dev_bound:.2e}, {elapsed:.2f}s")
    assert dev_ent <= 1e-8
    assert dev_bound <= 1e-8
    assert elapsed < 2.0


def test_criterion_2_asymmetric_bound_tighter(ising_grid_data):
    rows, _ = ising_grid_data
    dev = max(abs(asym.ef_bound - ising2_exact_bound_asymmetric(g)) for g, _, asym in rows)
    tighter = all(asym.ef_bound <= sym.ef_bound + 1e-12 for _, sym, asym in rows)
    ok = dev <= 1e-8 and tighter
    report_line(2, "asymmetric-splitting bound matches and is tighter",
                ok, f"dev={dev:.2e}")
    assert dev <= 1e-8
    assert tighter


def test_criterion_3_bound_excess_identity(ising_grid_data):
    rows, _ = ising_grid_data
    worst = 0.0
    for _, sym, _ in rows:
        residual = sym.ef_bound - 2.0 * sym.entanglement \
            - sym.interaction_frustration / sym.delta_e_ent
        worst = max(worst, abs(residual))
    ok = worst <= 1e-9
    report_line(3, "bound splits into twice the entanglement plus the "
                   "interaction term", ok, f"worst residual={worst:.2e}")
    assert worst <= 1e-9


def test_criterion_4_bound_property_suite():
    start = time.perf_counter()
    result = verify.bound_property_suite(trials_per_kind=500, seed=2024)
    elapsed = time.perf_counter() - start
    ok = result.failures == 0 and elapsed < 30.0
    report_line(4, "random two-qubit/two-qutrit bound properties",
                ok, f"{result.trials} trials, {result.failures} failures, {elapsed:.1f}s")
    assert result.failures == 0
    assert elapsed < 30.0


def test_criterion_5_saturation():
    result = verify.saturation_suite(instances=50, seed=77)
    detail = (f"decay_fraction={result.stats['decay_fraction']:.2f}, "
              f"median_ratio={result.stats['median_excess_ratio']:.4f}")
    report_line(5, "Schmidt-splitting sweeps approach saturation", result.ok, detail)
    assert result.failures == 0  # excess stayed positive everywhere
    assert result.stats["decay_fraction"] >= 0.9
    assert result.stats["median_excess_ratio"] <= 0.05


def test_criterion_6_perturbation_theorem():
    assert verify.PERTURBATION_C_NORMS == (0.01, 0.1, 1.0)
    result = verify.perturbation_suite(trials=500, dims=(4, 8, 16), seed=1)
    detail = (f"worst margin={result.stats['worst_psd_margin']:.2e}, "
              f"sharpness={result.stats['sharpness_ratio']:.4f}")
    report_line(6, "perturbation inequalities and norm chains", result.ok, detail)
    assert result.failures == 0
    assert result.stats["sharpness_ratio"] >= 0.99


def test_criterion_7_excited_state_bounds():
    r = analyze_excited(split(ising2(2.0)), 0)
    ok_ref = (abs(r.bound_29 - 1.0 / 9.0) <= 1e-12
              and abs(r.entanglement - (0.5 - 2.0 / np.sqrt(17.0))) <= 1e-8
              and r.entanglement <= r.bound_29)

    opts = EntanglementOptions(restarts=8)
    violations = 0
    checked = 0
    for i in range(100):
        model = verify.random_weak_chain(np.random.default_rng([700, i]))
        s = split(model)
        for j in range(8):
            rep = analyze_excited(s, j, opts)
            if rep.precondition_met and rep.bound_29 is not None:
                checked += 1
                if rep.entanglement > rep.bound_29 + 1e-6:
                    violations += 1
            if rep.bound_29 is not None and rep.bound_30 is not None:
                if rep.bound_30 < rep.bound_29 - 1e-12:
                    violations += 1
    ok = ok_ref and violations == 0
    report_line(7, "excited-state bounds hold", ok,
                f"reference ok={ok_ref}, {checked} bounded states, {violations} violations")
    assert ok_ref
    assert violations == 0
    assert checked > 0


def test_criterion_8_measure_oracle_equivalence():
    result = verify.oracle_suite(two_qubit=200, three_qubit=50, seed=5)
    detail = (f"worst 2q err={result.stats['worst_bipartite_err']:.2e}, "
              f"worst 3q err={result.stats['worst_tripartite_err']:.2e}")
    report_line(8, "optimizer matches Schmidt/grid oracles and GHZ/W values",
                result.ok, detail)
    assert result.failures == 0


def test_criterion_9_norm_ordering():
    result = verify.norm_suite(matrices=200, seed=9)
    report_line(9, "operator <= Hilbert-Schmidt <= trace with rank-1 equality",
                result.ok, f"{result.trials} matrices")
    assert result.failures == 0


def test_criterion_10_degenerate_input(capsys):
    code = cli_main(["analyze", "--model", "triangle", "--param", "J=1"])
    out = capsys.readouterr().out
    report = json.loads(out)
    ok = (code == 0
          and report["degenerate_ground"] is True
          and report["ef_bound"] is None
          and isinstance(report["ef_bound_reason"], str)
          and report["ef_bound_reason"])
    with capsys.disabled():
        report_line(10, "degenerate model analyzed cleanly (exit 0, bound absent)",
                    bool(ok), f"exit={code}, reason={report['ef_bound_reason']!r}")
    assert code == 0
    assert report["degenerate_ground"] is True
    assert report["ef_bound"] is None
    assert report["ef_bound_reason"]
