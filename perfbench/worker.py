"""One benchmark process: import frustra.cli, warm up, then run a batch of calls.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the source tree, a warm-up argv and the batch as a list of
epochs (lists of argv).  Every call goes through ``frustra.cli.main`` in
this process with stdout and stderr captured.  The batch runs whole
epochs until ``seconds`` have passed (at least one).  The worker imports
nothing heavy before ``frustra.cli``, so the timed import is the one a
fresh interpreter pays.  Results, including every call's captured stdout
and, with ``trace`` set, the recorded spans, go to RESULT.json.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def blas_threads():
    """Thread count reported by the OpenBLAS library this process loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    start = time.perf_counter()
    import frustra.cli as cli
    import_s = time.perf_counter() - start

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception is a failed call, not a crash
                traceback.print_exc()
                code = -1
        wall = time.perf_counter() - begin
        return {"code": code, "wall": wall, "stdout": out.getvalue(), "stderr": err.getvalue()}

    warmup = run(plan["warmup"])
    result = {"import_s": import_s, "setup_s": import_s + warmup["wall"], "warmup": warmup}
    if not plan["setup_only"]:
        recorder = None
        if plan["trace"]:
            sys.path.insert(0, plan["tracing_dir"])
            import tracing

            recorder = tracing.install()
        calls, epochs = [], 0
        batch_start = time.perf_counter()
        for epoch in plan["epochs"]:
            if epochs and time.perf_counter() - batch_start >= plan["seconds"]:
                break
            epochs += 1
            for argv in epoch:
                if recorder is not None:
                    recorder.call_id = len(calls)
                calls.append(run(argv))
        result["batch_s"] = time.perf_counter() - batch_start
        result["epochs"] = epochs
        result["calls"] = calls
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            result["trace"] = recorder.dump()
    result["blas_threads"] = blas_threads()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
