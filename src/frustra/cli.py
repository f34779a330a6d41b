"""Command-line front end.

Subcommands: analyze, sweep, excited, saturate, perturb, selftest,
list-models.  Reports go to stdout (or --out) as JSON, or as CSV with one
header row and floats at 17 significant digits (sweep, saturate, and
--format csv).  Every run is fully determined by its arguments; the
seeded subcommands take --seed.  The sweep's rows come from one call of
``verify.ising_sweep_rows``.  An --out path that cannot be opened exits 2
before any work.  Exit codes: 0 success (an undefined bound is a
reported outcome, not an error), 1 a failed property suite, 2
configuration error (a dimension-cap or two-party error included), 3
computation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import entanglement as ent
from . import verify
from .bounds import EntanglementOptions, analyze_excited, analyze_ground, json_values
from .errors import (DimensionCapError, FrustraError, InvalidAssignmentError,
                     InvalidBipartitionError, NotBipartiteError)
from .models import (BUILTIN_MODELS, SpinModel, builtin_params, dim_cap, load_model, make_builtin,
                     regroup, split)
from .saturation import saturation_sweep, schmidt_splitting, validate_gammas

CONFIG_ERROR = 2
COMPUTE_ERROR = 3


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _write_text(text: str, out_path: str | None, mode: str = "w") -> None:
    if out_path:
        try:
            with open(out_path, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _write_json(payload, out_path: str | None) -> None:
    """json.dumps(payload, indent=2) and a newline, byte for byte; each state's amplitudes are spliced in."""
    blocks = []
    def hold(value):  # json indents in pure Python, so a state's [[re, im], ...] of finite floats waits as null
        if isinstance(value, dict):
            return {k: blocks.append(v) if k == "amplitudes" else hold(v) for k, v in value.items()}
        return [hold(v) for v in value] if isinstance(value, list) else value
    text = json.dumps(hold(payload), indent=2).split('"amplitudes": null')  # json alone writes a key unescaped
    for i, pairs in enumerate(blocks, 1):
        pad = " " * (len(text[i - 1]) - text[i - 1].rfind("\n") + 1)  # the key's indent, plus 2
        body = f",\n{pad}".join([f"[\n{pad}  {re!r},\n{pad}  {im!r}\n{pad}]" for re, im in pairs])  # json's floats
        text[i] = f'"amplitudes": [\n{pad}{body}\n{pad[2:]}]{text[i]}'
    _write_text("".join(text) + "\n", out_path)


def _csv_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Rows as CSV under one header row; the columns default to the first row's keys.
    A nested object is not a column, and a list is written joined by ';'."""
    if columns is None:
        columns = [key for key, value in rows[0].items() if not isinstance(value, dict)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects k=v, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key.strip()] = float(raw)
        except ValueError:
            raise ConfigError(f"parameter {key!r} must be numeric, got {raw!r}") from None
    return params


def _load_model(args) -> SpinModel:
    name = args.model
    params = _parse_params(args.param)
    if name in BUILTIN_MODELS:
        try:
            return make_builtin(name, **params)
        except (KeyError, FrustraError) as exc:
            raise ConfigError(str(exc)) from exc
    if name.endswith(".json"):
        if params:
            raise ConfigError("--param applies to built-in models only")
        try:
            model = load_model(name)
        except (OSError, ValueError, FrustraError) as exc:
            raise ConfigError(f"cannot load model file {name!r}: {exc}") from exc
        unnamed = [label for label in model.site_labels if "|" in label or "," in label]
        if unnamed:  # --bipartition could not name these sites
            raise ConfigError(f"model file {name!r}: labels {unnamed} contain '|' or ','")
        return model
    raise ConfigError(f"unknown model {name!r}; see `frustra list-models` or pass a .json path")


def _parse_bipartition(model: SpinModel, spec: str):
    sides = spec.split("|")
    if len(sides) != 2:
        raise ConfigError(f"bipartition must have exactly two sides, got {spec!r}")
    parts = []
    for side in sides:
        side = side.strip()
        if side in model.site_labels:
            labels = [side]
        elif "," in side:
            labels = [s.strip() for s in side.split(",")]
        else:
            labels = list(side)
        try:
            parts.append(tuple(model.label_index(lab) for lab in labels))
        except FrustraError as exc:
            raise ConfigError(str(exc)) from exc
    return tuple(parts)


def _load_parties(args) -> SpinModel:
    """The model, regrouped into the two parties of --bipartition when given."""
    model = _load_model(args)
    if not args.bipartition:
        return model
    try:
        return regroup(model, _parse_bipartition(model, args.bipartition))
    except InvalidBipartitionError as exc:
        raise ConfigError(f"bad --bipartition {args.bipartition!r}: {exc}") from exc


def _build_splitting(args):
    model = _load_parties(args)
    if model.num_sites < 2:  # checked before any eigensolve: delta_e_ent is a second-smallest gap
        raise ConfigError(f"model has {model.num_sites} site; analyze and excited need at least 2")
    spec = args.split or "default"
    if spec == "default":
        return split(model)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                local = json.load(fh)["local"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read split file {path!r}: {exc}") from exc
        if not isinstance(local, list) or any(type(i) is not int for i in local):
            raise ConfigError(f"split file {path!r}: \"local\" must be a list of integers")
        try:
            return split(model, local=local)
        except InvalidAssignmentError as exc:
            raise ConfigError(f"bad split file {path!r}: {exc}") from exc
    if spec.startswith("schmidt:"):
        try:
            (gamma,) = validate_gammas([spec[len("schmidt:"):]])
        except ValueError as exc:
            raise ConfigError(f"bad schmidt gamma in {spec!r}: {exc}") from None
        return schmidt_splitting(model, gamma)
    raise ConfigError(f"unknown --split value {spec!r}")


def _ent_opts(args) -> EntanglementOptions:
    return EntanglementOptions(seed=args.seed, tol=args.tol)


# ---------------------------------------------------------------------------
# subcommands


def _emit(args, values, columns: list[str] | None = None) -> int:
    """Write the JSON values of a report, or of a list of them, as --format asks: JSON, or CSV with one row a
    report, a sweep record's row holding its report's fields too."""
    if args.format == "json":
        _write_json(values, args.out)
    else:
        rows = values if isinstance(values, list) else [values]
        _write_text(_csv_table([{**row.get("report", {}), **row} for row in rows], columns), args.out)
    return 0


def cmd_analyze(args) -> int:
    report = analyze_ground(_build_splitting(args), _ent_opts(args))
    return _emit(args, json_values(report, states=args.format == "json"))  # a CSV row has no state column


def _parse_grid(spec: str):
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"--grid expects MIN:MAX:N, got {spec!r}") from None
    if count < 1 or not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
        raise ConfigError(f"bad grid {spec!r}")
    return np.linspace(lo, hi, count)


def cmd_sweep(args) -> int:
    rows = verify.ising_sweep_rows(_parse_grid(args.grid))
    _write_text(_csv_table(rows), args.out)
    return 0


def _parse_j_list(spec: str, dimension: int):
    ranges = []
    try:
        for chunk in spec.split(","):
            lo, dots, hi = chunk.strip().partition("..")
            ranges.append((int(lo), int(hi) if dots else int(lo)))
    except ValueError:
        raise ConfigError(f"--j expects indices like 0..3 or 0,2,5, got {spec!r}") from None
    out = []
    for lo, hi in ranges:
        if hi < lo:
            raise ConfigError(f"--j range {lo}..{hi} is reversed, got {spec!r}")
        # check the ends before expanding, so a huge range is rejected, not built
        if lo < 0 or hi >= dimension:
            j = lo if lo < 0 else max(lo, dimension)  # the first index out of range
            raise ConfigError(f"eigenstate index {j} out of range (dimension {dimension})")
        out.extend(range(lo, hi + 1))
    return out


def cmd_excited(args) -> int:
    splitting = _build_splitting(args)
    js = _parse_j_list(args.j, splitting.model.dimension)
    return _emit(args, json_values(analyze_excited(splitting, js, _ent_opts(args))))


SATURATE_COLUMNS = [
    "gamma", "E0", "E0_L", "E0_I", "E_f", "delta_e_ent",
    "ef_bound", "entanglement", "excess", "overshoot_interaction",
]


def cmd_saturate(args) -> int:
    model = _load_parties(args)
    try:
        gammas = validate_gammas(args.gammas.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --gammas list {args.gammas!r}: {exc}") from None
    return _emit(args, json_values(saturation_sweep(model, gammas), states=False), SATURATE_COLUMNS)


def cmd_perturb(args) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise ConfigError(f"--dims expects comma-separated integers, got {args.dims!r}") from None
    if min(dims) < 2:
        # one dimension cannot separate the a-eigenvalue from B's upper spectrum
        raise ConfigError(f"--dims must be at least 2, got {args.dims!r}")
    cap = dim_cap()
    if max(dims) > cap:
        raise ConfigError(f"--dims must be at most the dimension cap {cap}, got {args.dims!r}")
    reports = []
    result = verify.perturbation_suite(trials=args.trials, dims=dims, seed=args.seed,
                                       collect=lambda trial, report: reports.append((trial, report)))
    _write_text("".join(json.dumps({"trial": t, **json_values(r)}) + "\n" for t, r in reports), args.out)
    print(
        f"perturb: {result.trials} trials, {result.failures} failures, "
        f"worst PSD margin {result.stats['worst_psd_margin']:.3e}, "
        f"sharpness ratio {result.stats['sharpness_ratio']:.6f}"
    )
    return 0 if result.ok else 1


def cmd_selftest(args) -> int:
    scale = args.trials / 500.0 if args.trials else 1.0
    results = verify.run_all(seed=args.seed, scale=scale)
    width = max(len(r.name) for r in results)
    print(f"{'suite':<{width}}  status  trials  failures  notes")
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        extras = ", ".join(f"{k}={v:.3g}" for k, v in sorted(r.stats.items()))
        print(f"{r.name:<{width}}  {status:<6}  {r.trials:>6}  {r.failures:>8}  {extras}")
    return 0 if all(r.ok for r in results) else 1


def cmd_list_models(_args) -> int:
    for name, (_factory, doc) in sorted(BUILTIN_MODELS.items()):
        params = ", ".join(f"{k}={v:g}" for k, v in builtin_params(name).items())
        print(f"{name}({params}): {doc}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:  # numpy seeds must be non-negative
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frustra",
        description="Frustration-based entanglement bounds for small spin Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def model_args(p):
        p.add_argument("--model", required=True,
                       help="built-in model name or path to a model .json file")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="model parameter override (repeatable)")
        p.add_argument("--bipartition", metavar="A|B",
                       help="group sites into two parties by label, e.g. B|AC")
        p.add_argument("--out", help="write the report here instead of stdout")

    def common(p):  # saturate fixes its split and always takes the exact Schmidt route
        model_args(p)
        p.add_argument("--split", default="default",
                       help="default | file:PATH | schmidt:GAMMA")
        p.add_argument("--seed", type=_seed, default=ent.DEFAULT_SEED,
                       help="seed for randomized components")
        p.add_argument("--tol", type=_positive_float, default=ent.DEFAULT_TOL,
                       help="optimizer tolerance")

    p = sub.add_parser("analyze", help="frustration report for the ground state")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="transverse-Ising comparison sweep (CSV)")
    p.add_argument("--grid", default="0.01:5:200", metavar="MIN:MAX:N",
                   help="field grid, default 0.01:5:200")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("excited", help="bound reports for excited eigenstates")
    common(p)
    p.add_argument("--j", required=True, help="eigenstate indices, e.g. 0..3 or 0,2,5")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_excited)

    p = sub.add_parser("saturate", help="Schmidt-splitting gamma sweep")
    model_args(p)
    p.add_argument("--gammas", required=True, help="descending list, e.g. 1e-1,1e-2,1e-3")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("perturb", help="randomized perturbation-theorem suite")
    p.add_argument("--trials", type=_positive_int, default=500)
    p.add_argument("--dims", default="4,8,16")
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--out", help="write per-trial JSON lines here")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("selftest", help="run every randomized property suite")
    p.add_argument("--trials", type=_positive_int, help="base trial count (default 500)")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("list-models", help="list built-in models and parameters")
    p.set_defaults(func=cmd_list_models)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR if exc.code not in (0, None) else 0
    try:
        if getattr(args, "out", None):
            # fail before any work; appending nothing leaves an existing file as it is
            _write_text("", args.out, "a")
        return args.func(args)
    except (ConfigError, DimensionCapError, NotBipartiteError) as exc:  # cap and two-party rule too
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (FrustraError, ValueError, IndexError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


def entry_point() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
