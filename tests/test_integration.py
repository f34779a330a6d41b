"""Cross-module checks at sizes and shapes the unit tests do not reach."""

import itertools

import numpy as np
import pytest

from frustra.bounds import EntanglementOptions, analyze_ground, delta_j_ent
from frustra.errors import DimensionCapError
from frustra.models import (
    OperatorTerm,
    SpinModel,
    build_dense,
    chain3,
    local_spectrum,
    regroup,
    split,
    transverse_chain,
)
from frustra.saturation import saturation_sweep
from frustra.verify import gaussian_hermitian


def test_ten_qubit_chain_invariants():
    # dimension 1024: dense build, local spectra, and both bounds still hold
    model = transverse_chain(10, g=1.5)
    s = split(model)
    r = analyze_ground(s, EntanglementOptions(restarts=2))
    scale = max(1.0, abs(r.E0))
    assert r.E_f >= -1e-9 * scale
    assert r.E_f <= r.E_I_tot + 1e-9 * scale
    assert abs(r.delta_e_ent - 3.0) < 1e-12
    assert r.entanglement <= r.ef_bound + 1e-6
    assert r.entanglement <= r.ratio_bound + 1e-6
    assert r.entanglement_method == "alternating"


def test_mixed_dimension_sites():
    rng = np.random.default_rng(5)
    model = SpinModel("mixed", (3, 2), (
        OperatorTerm(1.0, [(0, gaussian_hermitian(rng, 3))]),
        OperatorTerm(1.0, [(1, gaussian_hermitian(rng, 2))]),
        OperatorTerm(0.4, [(0, gaussian_hermitian(rng, 3, norm=1.0)),
                           (1, gaussian_hermitian(rng, 2, norm=1.0))]),
    ))
    r = analyze_ground(split(model))
    assert r.ef_bound is None or r.entanglement <= r.ef_bound + 1e-6
    assert r.entanglement <= 0.5 + 1e-12  # bipartite cap 1 - 1/min(d)
    spec = local_spectrum(split(model))
    assert spec.dimension == 6
    assert len(spec.product_basis()) == 6


def test_delta_j_ent_oracle_qutrit_pair():
    rng = np.random.default_rng(17)
    model = SpinModel("qutrits", (3, 3), (
        OperatorTerm(1.0, [(0, gaussian_hermitian(rng, 3))]),
        OperatorTerm(1.0, [(1, gaussian_hermitian(rng, 3))]),
    ))
    spec = local_spectrum(split(model))
    for config in itertools.product(range(3), range(3)):
        e_j = sum(spec.site_eigenvalues[i][c] for i, c in enumerate(config))
        best = -np.inf
        for s in range(2):
            outside = []
            for other in itertools.product(range(3), range(3)):
                differs = [i for i in range(2) if other[i] != config[i]]
                if differs not in ([s], []):
                    e_k = sum(spec.site_eigenvalues[i][c] for i, c in enumerate(other))
                    outside.append(abs(e_j - e_k))
            best = max(best, min(outside))
        delta, _ = delta_j_ent(spec, config)
        assert abs(delta - best) < 1e-12


def test_saturation_sweep_grouped_chain():
    sweep = saturation_sweep(regroup(chain3(1.0, 2.0, 1.0), ((1,), (0, 2))), (1e-1, 1e-2, 1e-3))
    ex = [r.excess for r in sweep.records]
    assert all(e > 0 for e in ex)
    assert ex[-1] <= 0.3 * ex[-2]
    assert sweep.entanglement_spread <= 1e-8


def test_dimension_cap_is_config_error_in_cli(capsys, monkeypatch):
    from frustra.cli import main

    monkeypatch.setenv("FRUSTRA_DIM_CAP", "4")
    code = main(["analyze", "--model", "triangle"])
    capsys.readouterr()
    assert code == 2


def test_build_dense_respects_cap(monkeypatch):
    model = transverse_chain(3)
    monkeypatch.setenv("FRUSTRA_DIM_CAP", "4")
    with pytest.raises(DimensionCapError):
        build_dense(model)
