import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "frustra",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("frustra")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def solver_sizes(monkeypatch):
    """Sizes of the matrices passed to np.linalg.eigh and np.linalg.eigvalsh, in call order."""
    sizes = {"eigh": [], "eigvalsh": []}
    for name, seen in sizes.items():
        solver = getattr(np.linalg, name)

        def counting(a, *args, _solver=solver, _seen=seen, **kwargs):
            _seen.append(np.shape(a)[0])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return sizes
