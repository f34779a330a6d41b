"""A reference ground-state report, computed from the README's definitions alone.

Every operator is a full np.kron chain and every spectrum one np.linalg.eigh: H is the sum of the model's terms,
H_j the sum of the local terms on site j, H_L their sum and H_I = H - H_L.  Of frustra it reads only the model's
terms (coefficients, sites and factor matrices) and the tolerances.
"""

import numpy as np

from frustra.linalg import STRUCTURAL_TOL


def embed(coeff, factors, dims) -> np.ndarray:
    """coeff times the factors on their sites and the identity on every other site, as one np.kron chain."""
    ops = dict(factors)
    out = np.array([[coeff]], dtype=complex)
    for site, d in enumerate(dims):
        out = np.kron(out, ops.get(site, np.eye(d)))
    return out


def reference_report(model, local, ground=None) -> dict:
    """The numeric fields of the ground-state report of ``model`` split with the terms ``local`` (indices) in H_L.

    The ground vector is H's first eigenvector, or, when the ground level is degenerate, ``ground`` (the state the
    report holds), checked to lie in it.  ``entanglement`` is 1 - s_0^2 of the vector's amplitude matrix for two
    sites, and None for more, which this reference does not compute.  The bounds are None unless delta_e_ent exceeds
    STRUCTURAL_TOL * max(1, |E0|, |E_max|).
    """
    dims = model.dims
    h = sum(embed(t.coeff, t.factors, dims) for t in model.terms)
    h_l = sum((embed(model.terms[i].coeff, model.terms[i].factors, dims) for i in local), np.zeros_like(h))
    site_h = [np.zeros((d, d), dtype=complex) for d in dims]
    for i in local:
        (site, op), = model.terms[i].factors
        site_h[site] += model.terms[i].coeff * op
    energies, vectors = np.linalg.eigh(h)
    site_levels = [np.linalg.eigvalsh(h_j) for h_j in site_h]
    interaction_levels = np.linalg.eigvalsh(h - h_l)
    scale = max(1.0, abs(energies[0]), abs(energies[-1]))
    e0, e0_l = energies[0], sum(ev[0] for ev in site_levels)
    e0_i, e_i_max = interaction_levels[0], interaction_levels[-1]
    delta = sorted(ev[1] - ev[0] for ev in site_levels)[1]
    psi = vectors[:, 0]
    if energies[1] - energies[0] <= STRUCTURAL_TOL * scale:
        psi = np.asarray(ground)
        assert np.linalg.norm(h @ psi - e0 * psi) <= 1e-9 * scale
    e_f = e0 - e0_l - e0_i
    bounded = delta > STRUCTURAL_TOL * scale
    return {
        "E0": e0,
        "E0_L": e0_l,
        "E0_I": e0_i,
        "E_f": e_f,
        "delta_e_ent": delta,
        "entanglement": 1.0 - np.linalg.svd(psi.reshape(dims), compute_uv=False)[0] ** 2 if len(dims) == 2 else None,
        "ef_bound": e_f / delta if bounded else None,
        "ratio_bound": (e_i_max - e0_i) / delta if bounded else None,
        "E_I_max": e_i_max,
        "E_I_tot": e_i_max - e0_i,
        "local_frustration": np.vdot(psi, h_l @ psi).real - e0_l,
        "interaction_frustration": np.vdot(psi, (h - h_l) @ psi).real - e0_i,
    }
