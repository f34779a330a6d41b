"""frustra benchmark: drives ``frustra.cli.main`` on seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ground-1024 --seed 1 --seconds 20 --trace 0

Workloads: ground-1024, grid-small, excited-als (see perfbench/README.md).
The inputs are written under .perfbench_work/ and removed at the end.

With ``--trace 0`` a fresh worker process imports ``frustra.cli``, makes
one warm-up call and then runs whole epochs of calls until ``--seconds``
have passed; two more fresh processes repeat the import and warm-up so
that set-up time is a median of three.  The last stdout line carries the
end-to-end metrics.  With ``--trace 1`` one epoch runs untraced and then
traced, each in a fresh process, and the last line carries the per-layer
metrics.  Every call's output is checked outside the timed region; a call
that exits non-zero or fails a check counts in ``failed``.  The line
before the result holds the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(plan: workloads.Plan, workdir: str, tag: str, deadline: float, *,
               epochs=None, seconds: float = 0.0, trace: bool = False,
               setup_only: bool = False) -> dict:
    """Run one fresh worker process on the plan and return its result document."""
    plan_path = os.path.join(workdir, f"{tag}-plan.json")
    result_path = os.path.join(workdir, f"{tag}-result.json")
    doc = {
        "src": SRC,
        "tracing_dir": HERE,
        "warmup": plan.warmup.argv,
        "epochs": [[call.argv for call in epoch] for epoch in (epochs or plan.epochs)],
        "seconds": seconds,
        "trace": trace,
        "setup_only": setup_only,
    }
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a worker could start")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                              cwd=workdir, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(calls: list, results: list) -> list:
    """Problems per failed call, as (argv, problems) pairs."""
    failures = []
    for call, res in zip(calls, results):
        problems = checks.check_call(call, res["code"], res["stdout"])
        if problems:
            if res["stderr"]:
                problems.append(res["stderr"].strip())
            failures.append((call.argv, problems))
    return failures


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(plan, workdir, seconds, deadline):
    main = run_worker(plan, workdir, "main", deadline, seconds=seconds)
    setups = [main["setup_s"]]
    for k in range(1, SETUP_SAMPLES):
        setups.append(run_worker(plan, workdir, f"setup{k}", deadline, setup_only=True)["setup_s"])
    results = main["calls"]
    calls = plan.calls()[:len(results)]
    reports = sum(call.reports for call in calls)
    walls = [r["wall"] for r in results]
    metrics = {
        "reports_per_s": _metric(reports / main["batch_s"], "1/s"),
        "call_p50_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mib": _metric(main["peak_rss_kib"] / 1024.0, "MiB"),
    }
    checked = [plan.warmup] + calls
    failures = check_outputs(checked, [main["warmup"]] + results)
    counts = {"calls": len(calls), "reports": reports, "call_samples": len(walls),
              "setup_samples": len(setups), "batch_s": main["batch_s"], "epochs": main["epochs"]}
    return metrics, checked, failures, counts, main


def per_layer(plan, workdir, deadline):
    epoch = plan.epochs[:1]
    untraced = run_worker(plan, workdir, "untraced", deadline, epochs=epoch)
    traced = run_worker(plan, workdir, "traced", deadline, epochs=epoch, trace=True)
    calls = epoch[0]
    reports = sum(call.reports for call in calls)
    metrics = tracing.layer_metrics(traced["trace"], reports, untraced["batch_s"], traced["batch_s"])
    checked = [plan.warmup] + calls + [plan.warmup] + calls
    failures = check_outputs(checked, [untraced["warmup"]] + untraced["calls"]
                             + [traced["warmup"]] + traced["calls"])
    counts = {"calls": len(calls), "reports": reports, "epochs": 1,
              "spans": len(traced["trace"]["spans"]),
              "untraced_batch_s": untraced["batch_s"], "traced_batch_s": traced["batch_s"]}
    return metrics, checked, failures, counts, traced


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "frustra"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, counts, worker, attempted, failed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        openblas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version, "blas": openblas,
        "blas_threads": worker.get("blas_threads"), "jobs": 1,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        **counts,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frustra", "cli.py")):
        print(f"error: no frustra sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = workloads.build_plan(args.workload, args.seed, workdir, args.scale)
        if args.trace:
            metrics, checked, failures, counts, worker = per_layer(plan, workdir, deadline)
        else:
            metrics, checked, failures, counts, worker = end_to_end(plan, workdir, args.seconds,
                                                                    deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    for argv_, problems in failures[:5]:
        print(f"check failed: {' '.join(argv_)[:200]}: {'; '.join(problems)[:500]}", file=sys.stderr)
    attempted, failed = len(checked), len(failures)
    print(json.dumps({"provenance": provenance(args, counts, worker, attempted, failed)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
