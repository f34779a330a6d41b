"""Reference reports, computed from the README's definitions alone.

Every operator is a full np.kron chain and every spectrum one np.linalg.eigh: H is the sum of the model's terms,
H_j the sum of the local terms on site j, H_L their sum and H_I = H - H_L.  Of frustra it reads only the terms
(coefficients, sites and factor matrices) and the tolerances.
"""

import itertools

import numpy as np

from frustra.linalg import CLOSED_MARGIN_TOL, STRUCTURAL_TOL


def embed(coeff, factors, dims) -> np.ndarray:
    """coeff times the factors on their sites and the identity on every other site, as one np.kron chain."""
    ops = dict(factors)
    out = np.array([[coeff]], dtype=complex)
    for site, d in enumerate(dims):
        out = np.kron(out, ops.get(site, np.eye(d)))
    return out


def _operators(model, local_terms):
    """H, H_L and the per-site H_j of ``model`` with H_L the sum of the single-site ``local_terms``."""
    dims = model.dims
    h = sum(embed(t.coeff, t.factors, dims) for t in model.terms)
    h_l = sum((embed(t.coeff, t.factors, dims) for t in local_terms), np.zeros_like(h))
    site_h = [np.zeros((d, d), dtype=complex) for d in dims]
    for t in local_terms:
        (site, op), = t.factors
        site_h[site] += t.coeff * op
    return h, h_l, site_h


def reference_report(model, local_terms, ground=None) -> dict:
    """The numeric fields of the ground-state report of ``model`` with H_L the sum of ``local_terms``, and the ground
    vector (``"ground_state"``).

    The ground vector is H's first eigenvector, or, when the ground level is degenerate, ``ground`` (the state the
    report holds), checked to lie in it.  ``entanglement`` is 1 - s_0^2 of the vector's amplitude matrix for two
    sites, and None for more, which this reference does not compute.  The bounds are None unless delta_e_ent exceeds
    STRUCTURAL_TOL * max(1, |E0|, |E_max|).
    """
    dims = model.dims
    h, h_l, site_h = _operators(model, local_terms)
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
        "ground_state": psi,
    }


def reference_proof_chain(model, local_terms, ground=None) -> dict | None:
    """reference_report of a two-site model with the cut of the bound's proof and the split of its excess; None
    where the bound is undefined.

    The ground vector is expanded in the products np.kron(u_a, v_b) of the eigenvectors of H_0 and H_1 and cut
    strictly below E0_L + delta_e_ent, less STRUCTURAL_TOL * max(1, |E0_L + delta_e_ent|).  With w = 1 - sum_below
    |alpha|^2: excess = ef_bound - entanglement = overshoot_local + overshoot_interaction + entanglement_gap, where
    overshoot_local = (local_frustration - w delta_e_ent) / delta_e_ent, overshoot_interaction =
    interaction_frustration / delta_e_ent and entanglement_gap = w - entanglement.
    """
    want = reference_report(model, local_terms, ground)
    if want["ef_bound"] is None:
        return None
    _, _, site_h = _operators(model, local_terms)
    (l0, u), (l1, v) = (np.linalg.eigh(h_j) for h_j in site_h)
    delta = want["delta_e_ent"]
    threshold = want["E0_L"] + delta
    cut = threshold - STRUCTURAL_TOL * max(1.0, abs(threshold))
    below = [(a, b) for a in range(l0.size) for b in range(l1.size) if l0[a] + l1[b] < cut]
    kept = sum(abs(np.vdot(np.kron(u[:, a], v[:, b]), want["ground_state"])) ** 2 for a, b in below)
    weight = 1.0 - kept
    return want | {
        "below_threshold": below,
        "sum_alpha_sq": kept,
        "weight_bound": weight,
        "excess": want["ef_bound"] - want["entanglement"],
        "overshoot_local": (want["local_frustration"] - weight * delta) / delta,
        "overshoot_interaction": want["interaction_frustration"] / delta,
        "entanglement_gap": weight - want["entanglement"],
    }


def reference_excited(model, local_terms) -> list[dict]:
    """The fields of the excited-state report of every eigenstate j of H, paired with the j-th lowest product level
    of H_L, for a model whose levels of H and of H_L are nondegenerate.

    A product level is a configuration c of per-site levels, of energy E_L(c) = sum_s of H_s's c_s-th eigenvalue.
    The product subspace that varies site s holds the configurations equal to c off s; the outside of it, every
    other configuration.  delta_j_ent is the largest over s of the smallest |E_L_j - E_L(c')| outside, the lowest
    such s chosen; delta_j_Kperp the smallest |E_j - E_L(c')| outside the chosen subspace.  h_i_norm is the operator
    norm of H_I.  With scale max(1, |E_0|, |E_max|): bound_29 = h_i_norm^2 / (delta_j_ent - h_i_norm)^2 and
    bound_exact_gap = h_i_norm^2 / delta_j_Kperp^2, each None unless the difference squared in its denominator
    exceeds CLOSED_MARGIN_TOL * scale; precondition_met is delta_j_ent > h_i_norm.
    """
    h, h_l, site_h = _operators(model, local_terms)
    energies = np.linalg.eigvalsh(h)
    h_i = h - h_l
    h_norm = np.linalg.norm(h_i, 2)
    e_i_max = np.linalg.eigvalsh(h_i)[-1]
    margin_tol = CLOSED_MARGIN_TOL * max(1.0, abs(energies[0]), abs(energies[-1]))
    site_levels = [np.linalg.eigvalsh(h_j) for h_j in site_h]
    local = {c: sum(ev[i] for ev, i in zip(site_levels, c))
             for c in itertools.product(*(range(len(ev)) for ev in site_levels))}
    configs = sorted(local, key=local.get)
    rows = []
    for e_j, config in zip(energies, configs):
        def outside(s):
            return [local[c] for c in configs if any(c[t] != config[t] for t in range(len(config)) if t != s)]

        deltas = [min(abs(local[config] - e) for e in outside(s)) for s in range(len(config))]
        site = deltas.index(max(deltas))
        delta_j = deltas[site]
        kperp = min(abs(e_j - e) for e in outside(site))
        margin = delta_j - h_norm
        rows.append({
            "E_j": e_j,
            "E_L_j": local[config],
            "local_config": config,
            "delta_j_ent": delta_j,
            "delta_j_Kperp": kperp,
            "h_i_norm": h_norm,
            "e_i_max_eigenvalue": e_i_max,
            "bound_29": h_norm ** 2 / margin ** 2 if margin > margin_tol else None,
            "bound_exact_gap": h_norm ** 2 / kperp ** 2 if kperp > margin_tol else None,
            "precondition_met": delta_j > h_norm,
        })
    return rows
