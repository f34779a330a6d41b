"""Spans around the calls into each frustra module, and the per-layer metrics.

``install()`` wraps every public function of the eight layer modules and
puts the wrapper at every import site inside the package (for example
both ``frustra.linalg.hermitian_eig`` and ``frustra.bounds.hermitian_eig``),
so calls between modules and within one module are all recorded.  A span
is (name, start, end, parent span, call id); spans stay in memory until
the worker writes them out.  A span's self time is its duration minus the
durations of its child spans (calls run one at a time, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "models", "linalg", "entanglement", "bounds", "saturation",
          "perturbation", "verify")

# (function, measured quantities) in the order the metrics are reported
FUNCTION_METRICS = {
    "linalg": (("hermitian_eig", ("calls", "self_s")), ("op_norm", ("calls", "self_s")),
               ("svd", ("calls", "self_s")), ("fix_phases", ("self_s",))),
    "models": (("dense_terms", ("calls", "self_s")), ("split", ("calls", "self_s")),
               ("local_spectrum", ("calls",)), ("interaction_extremes", ("calls",)),
               ("load_model", ("self_s",))),
    "entanglement": (("geometric_measure_multipartite", ("calls", "self_s")),
                     ("schmidt", ("calls", "self_s"))),
    "bounds": (("analyze_ground", ("calls",)), ("analyze_excited", ("calls",)),
               ("delta_j_ent", ("self_s",))),
    "saturation": (("saturation_sweep", ("calls",)),),
    "perturbation": (("hermitian_instance", ("calls",)), ("check_theorem", ("self_s",))),
    "verify": (("perturbation_trial", ("calls",)),),
    "cli": (),
}

UNITS = {"calls": "count", "self_s": "s"}

DERIVED = (
    ("linalg.hermitian_eig.dim3_sum", "count"),
    ("linalg.hermitian_eig.calls_per_report", "calls/report"),
    ("models.dense_terms.calls_per_report", "calls/report"),
    ("entanglement.sweeps", "count"),
    ("entanglement.sweep_budget_frac", "ratio"),
    ("entanglement.unconverged_frac", "ratio"),
    ("verify.redraw_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


class Recorder:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index, call id]
        self.stack = []
        self.call_id = -1
        self.eig_dims = []  # matrix dimension of each hermitian_eig call
        self.optimizer = []  # [iterations, restarts, max_iters, converged] per multipartite call

    def wrap(self, name: str, fn, observe=None):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "eig_dims": self.eig_dims,
                "optimizer": self.optimizer}


def _observers(recorder: Recorder, modules: dict) -> dict:
    gm = modules["entanglement"].geometric_measure_multipartite
    gm_signature = inspect.signature(gm)

    def eig(args, kwargs, result):
        recorder.eig_dims.append(len(result.eigenvalues))

    def optimizer(args, kwargs, result):
        bound = gm_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        recorder.optimizer.append([result.iterations, bound.arguments["restarts"],
                                   bound.arguments["max_iters"], bool(result.converged)])

    return {"linalg.hermitian_eig": eig,
            "entanglement.geometric_measure_multipartite": optimizer}


def install() -> Recorder:
    """Wrap the layer modules' public functions at every import site in frustra."""
    recorder = Recorder()
    modules = {layer: importlib.import_module(f"frustra.{layer}") for layer in LAYERS}
    observers = _observers(recorder, modules)
    wrappers = {}
    for layer, mod in modules.items():
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[id(value)] = (value, recorder.wrap(name, value, observers.get(name)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "frustra" and not mod_name.startswith("frustra."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return recorder


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s"))
        for fn, quantities in FUNCTION_METRICS[layer]:
            out += [(f"{layer}.{fn}.{q}", UNITS[q]) for q in quantities]
        out += [(name, unit) for name, unit in DERIVED if name.split(".")[0] == layer]
    return out + [(name, unit) for name, unit in DERIVED if name.startswith("trace.")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, reports: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of one traced batch, as {name: {"value", "unit"}}."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    calls, self_s = {}, {}
    for i, (name_index, start, end, _parent, _call) in enumerate(spans):
        name = names[name_index]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value

    redraws = sum(1 for name_index, _s, _e, parent, _c in spans
                  if names[name_index] == "perturbation.hermitian_instance" and parent >= 0
                  and names[spans[parent][0]] == "verify.perturbation_trial")
    optimizer = trace["optimizer"]
    values = {
        "linalg.hermitian_eig.dim3_sum": float(sum(d ** 3 for d in trace["eig_dims"])),
        "linalg.hermitian_eig.calls_per_report": _ratio(calls.get("linalg.hermitian_eig", 0), reports),
        "models.dense_terms.calls_per_report": _ratio(calls.get("models.dense_terms", 0), reports),
        "entanglement.sweeps": float(sum(o[0] for o in optimizer)),
        "entanglement.sweep_budget_frac": _ratio(sum(o[0] for o in optimizer),
                                                 sum((o[1] + 1) * o[2] for o in optimizer)),
        "entanglement.unconverged_frac": _ratio(sum(not o[3] for o in optimizer), len(optimizer)),
        "verify.redraw_frac": _ratio(redraws, calls.get("verify.perturbation_trial", 0)) - 1.0
        if calls.get("verify.perturbation_trial") else 0.0,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    out = {}
    for name, unit in metric_names():
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            value = layer_self[layer]
        elif name in values:
            value = values[name]
        else:
            fn, _, quantity = rest.rpartition(".")
            table = calls if quantity == "calls" else self_s
            value = table.get(f"{layer}.{fn}", 0)
        out[name] = {"value": float(value), "unit": unit}
    return out
