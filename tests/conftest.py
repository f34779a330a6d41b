import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from frustra.models import SpinModel, _interaction_terms, dense_terms, model_to_dict

settings.register_profile(
    "frustra",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
# CI runs the reference tests on more draws: HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", settings.get_profile("frustra"), max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "frustra"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def solver_sizes(monkeypatch):
    """Shapes of the arrays passed to np.linalg.eigh, eigvalsh and svd, in call order: (k, d, d) for a stack."""
    sizes = {"eigh": [], "eigvalsh": [], "svd": []}
    for name, seen in sizes.items():
        solver = getattr(np.linalg, name)

        def counting(a, *args, _solver=solver, _seen=seen, **kwargs):
            _seen.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return sizes


def members(shapes, d) -> int:
    """d x d matrices decomposed across the recorded solver calls: a (d, d) call is one, a (k, d, d) stack is k."""
    return sum(shape[0] if len(shape) == 3 else 1 for shape in shapes if shape[-2:] == (d, d))


def save_model(model, path) -> None:
    """Write a model file that load_model reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def product_vector(spec, config) -> np.ndarray:
    """The product eigenvector of H_L of a local spectrum at one configuration of per-site levels."""
    vec = np.array([1.0 + 0.0j])
    for site, level in enumerate(config):
        vec = np.kron(vec, spec.site_eigenvectors[site][:, int(level)])
    return vec


def dense_interaction(splitting) -> np.ndarray:
    """The splitting's dense H_I: the one it keeps, or the dense build of the terms whose diagonal it keeps."""
    diagonal, h_i = splitting._interaction
    if not diagonal:
        return h_i
    one = isinstance(splitting.model, SpinModel)
    models, local = ((splitting.model,), (splitting.local_terms,)) if one else (splitting.model, splitting.local_terms)
    rows = [_interaction_terms(m.terms, terms) for m, terms in zip(models, local)]
    return dense_terms(rows[0] if one else rows, models[0].dims)
