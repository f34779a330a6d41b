"""Seeded inputs for the benchmark workloads.

A run is a list of *epochs*; an epoch is a fixed list of CLI calls.  The
batch runs whole epochs until the time budget is spent, so every run of a
workload does the same mix of work whatever its speed.  Each call carries
its argv, its report count and the facts the output checks need.

Inputs are a pure function of (workload, seed, scale): the same arguments
write byte-identical model files, and no two calls of a run share a model.

ground-1024 and excited-als run the alternating optimizer, whose cost
changes several-fold under a 1% change of a model parameter.  Their models
therefore sit on a fixed set of base points drawn once over the stated
ranges, and the seed moves every parameter by at most JITTER (relative).
The cost mix is then the same for every seed, while no two seeds or calls
share a model.  grid-small's cost does not depend on the drawn values, so
its inputs are drawn afresh from the seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

BASE_SEED = 2004
JITTER = 1e-3
MAX_EPOCHS = 32  # pre-generated: fills the budget of a program ~10x faster than today

# per scale: sizes of one epoch and of each call
SIZES = {
    "full": {
        "ground_sites": 10, "ground_calls": 1,
        "grid_cycles": 4, "sweep_points": 48, "gammas": 96, "trials": 40,
        "chain3_calls": 6, "chain4_calls": 2, "j_all": True,
    },
    "tiny": {
        "ground_sites": 4, "ground_calls": 1,
        "grid_cycles": 1, "sweep_points": 4, "gammas": 3, "trials": 3,
        "chain3_calls": 1, "chain4_calls": 1, "j_all": False,
    },
}


@dataclass
class Call:
    kind: str  # analyze | sweep | saturate | perturb | excited
    argv: list
    reports: int
    spec: dict  # what the output checks need to know about the input


@dataclass
class Plan:
    warmup: Call
    epochs: list  # list of list[Call]

    def calls(self):
        return [call for epoch in self.epochs for call in epoch]


def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, *stream])


def _floats(values) -> list:
    return [float(v) for v in values]


def _chain(name: str, fields, couplings, field_op: str, bond_op: str) -> dict:
    """-sum_i g_i F_i - sum_i J_i B_i B_{i+1} on an open qubit chain."""
    terms = [{"coeff": -g, "factors": [{"site": i, "op": field_op}]}
             for i, g in enumerate(fields)]
    terms += [{"coeff": -j, "factors": [{"site": i, "op": bond_op}, {"site": i + 1, "op": bond_op}]}
              for i, j in enumerate(couplings)]
    return {"name": name, "sites": [2] * len(fields), "terms": terms}


def _jitter(base: np.ndarray, rng: np.random.Generator) -> list:
    return _floats(base * (1.0 + JITTER * rng.uniform(-1.0, 1.0, size=base.shape)))


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _hermitian(rng: np.random.Generator, d: int, unit_norm: bool = False) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (z + z.conj().T) / 2.0
    if unit_norm:
        h = h / float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return h


def _two_site_model(rng: np.random.Generator, d: int, name: str) -> dict:
    """Random local terms on both sites plus three random product interactions."""
    terms = [{"coeff": 1.0, "factors": [{"site": s, "op": _matrix_json(_hermitian(rng, d))}]}
             for s in (0, 1)]
    for _ in range(3):
        coeff = float(rng.normal())
        factors = [{"site": s, "op": _matrix_json(_hermitian(rng, d, unit_norm=True))}
                   for s in (0, 1)]
        terms.append({"coeff": coeff, "factors": factors})
    return {"name": name, "sites": [d, d], "terms": terms}


def _write_model(models_dir: str, tag: str, model: dict) -> str:
    path = os.path.join(models_dir, f"{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model, fh, indent=1)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# ground-1024: analyze on 10-qubit transverse-field Ising chains


def _ground_epoch(seed, epoch, size, models_dir):
    n, count = size["ground_sites"], size["ground_calls"]
    base = np.random.default_rng([BASE_SEED, 1])
    base_g = base.uniform(0.5, 2.0, size=(count, n))
    base_j = base.uniform(0.5, 1.5, size=(count, n - 1))
    rng = _rng(seed, 1, epoch)
    calls = []
    for k in range(count):
        fields, couplings = _jitter(base_g[k], rng), _jitter(base_j[k], rng)
        model = _chain(f"tfim{n}-e{epoch}-{k}", fields, couplings, "X", "Z")
        path = _write_model(models_dir, f"ground-e{epoch}-{k}", model)
        calls.append(Call("analyze", ["analyze", "--model", path], 1,
                          {"model": model, "fields": fields}))
    return calls


# ---------------------------------------------------------------------------
# grid-small: sweep, saturate and perturb on 2-16 dimensional problems


def _grid_epoch(seed, epoch, size, models_dir):
    """Cycles of three sweeps, one perturb block and two saturate calls.

    The kinds take clearly different times (perturb < sweep < saturate), and
    sweeps are half of the calls, so the median call is a sweep rather than
    the edge between two kinds, where a small shift would move it a lot.
    """
    rng = _rng(seed, 2, epoch)
    points, n_gammas, trials = size["sweep_points"], size["gammas"], size["trials"]

    def sweep():
        lo, hi = float(rng.uniform(0.01, 0.5)), float(rng.uniform(2.0, 5.0))
        return Call("sweep", ["sweep", "--grid", f"{lo!r}:{hi!r}:{points}"], points,
                    {"lo": lo, "hi": hi, "points": points})

    def saturate(c, d):
        model = _two_site_model(rng, d, f"random2-d{d}-e{epoch}-{c}")
        path = _write_model(models_dir, f"grid-e{epoch}-{c}-d{d}", model)
        gammas = _floats(np.geomspace(rng.uniform(0.2, 0.5), rng.uniform(1e-3, 2e-3), n_gammas))
        return Call("saturate", ["saturate", "--model", path,
                                 "--gammas", ",".join(repr(g) for g in gammas)],
                    n_gammas, {"model": model, "gammas": gammas})

    def perturb():
        trial_seed = int(rng.integers(1, 2**31))
        return Call("perturb", ["perturb", "--trials", str(trials), "--dims", "4,8,16",
                                "--seed", str(trial_seed)], trials, {"trials": trials})

    calls = []
    for c in range(size["grid_cycles"]):
        calls += [sweep(), perturb(), sweep(), saturate(c, 2), sweep(), saturate(c, 3)]
    return calls


# ---------------------------------------------------------------------------
# excited-als: excited --j 0..d-1 on chain3 and on 4-qubit chains


CHAIN3_PARAMS = ("ga", "gb", "gc", "jab", "jbc")


def _excited_epoch(seed, epoch, size, models_dir):
    n3, n4 = size["chain3_calls"], size["chain4_calls"]
    base = np.random.default_rng([BASE_SEED, 3])
    base3_g = base.uniform(0.5, 2.0, size=(n3, 3))
    base3_j = base.uniform(0.5, 1.5, size=(n3, 2))
    base4_g = base.uniform(0.5, 2.0, size=(n4, 4))
    base4_j = base.uniform(0.5, 1.5, size=(n4, 3))
    rng = _rng(seed, 3, epoch)

    def j_range(d):
        return f"0..{d - 1 if size['j_all'] else 1}", (d if size["j_all"] else 2)

    chain3_calls, chain4_calls = [], []
    for k in range(n3):
        fields, couplings = _jitter(base3_g[k], rng), _jitter(base3_j[k], rng)
        argv = ["excited", "--model", "chain3"]
        for key, value in zip(CHAIN3_PARAMS, fields + couplings):
            argv += ["--param", f"{key}={value!r}"]
        spec, rows = j_range(8)
        # chain3: -ga Z_A - gb Z_B - gc Z_C - jab X_A X_B - jbc X_B X_C
        model = _chain(f"chain3-e{epoch}-{k}", fields, couplings, "Z", "X")
        chain3_calls.append(Call("excited", argv + ["--j", spec], rows, {"model": model}))
    for k in range(n4):
        fields, couplings = _jitter(base4_g[k], rng), _jitter(base4_j[k], rng)
        model = _chain(f"chain4-e{epoch}-{k}", fields, couplings, "Z", "X")
        path = _write_model(models_dir, f"excited-e{epoch}-{k}", model)
        spec, rows = j_range(16)
        chain4_calls.append(Call("excited", ["excited", "--model", path, "--j", spec], rows,
                                 {"model": model}))
    # spread the 4-qubit calls evenly through the epoch
    calls, stride = [], max(1, n3 // max(1, n4))
    for k, call in enumerate(chain3_calls):
        calls.append(call)
        if (k + 1) % stride == 0 and chain4_calls:
            calls.append(chain4_calls.pop(0))
    return calls + chain4_calls


EPOCH_BUILDERS = {
    "ground-1024": _ground_epoch,
    "grid-small": _grid_epoch,
    "excited-als": _excited_epoch,
}
WORKLOADS = tuple(EPOCH_BUILDERS)


def build_plan(workload: str, seed: int, workdir: str, scale: str = "full",
               epochs: int = MAX_EPOCHS) -> Plan:
    """Write the model files for one run under ``workdir`` and return its calls.

    The warm-up call is the first call of an extra epoch that the batch
    never uses, so it shares no model with the timed calls.
    """
    if workload not in EPOCH_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    size = SIZES[scale]
    build = EPOCH_BUILDERS[workload]
    models_dir = os.path.join(workdir, "models")
    os.makedirs(models_dir, exist_ok=True)
    warmup = build(seed, epochs, size, models_dir)[0]
    return Plan(warmup, [build(seed, e, size, models_dir) for e in range(epochs)])
