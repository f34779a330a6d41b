"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload="grid-small", trace=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["calls"] >= 1
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["linalg.hermitian_eig.calls"]["value"] > 0
        assert result["metrics"]["cli.self_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# output checks


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(call, stdout) for every call of one tiny epoch of each workload."""
    import frustra.cli

    out = {}
    for workload in workloads.WORKLOADS:
        workdir = str(tmp_path_factory.mktemp(workload))
        plan = workloads.build_plan(workload, 5, workdir, "tiny", epochs=1)
        for call in plan.epochs[0]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert frustra.cli.main(call.argv) == 0
            out.setdefault(call.kind, []).append((call, buf.getvalue()))
    return out


def test_clean_outputs_pass(outputs):
    for kind, pairs in outputs.items():
        for call, text in pairs:
            assert checks.check_call(call, 0, text) == [], (kind, call.argv)


def test_nonzero_exit_fails(outputs):
    call, text = outputs["analyze"][0]
    assert checks.check_call(call, 3, text)


def _corrupt_json(pair, edit):
    call, text = pair
    doc = json.loads(text)
    edit(doc)
    return checks.check_call(call, 0, json.dumps(doc))


def test_shifted_ground_energy_fails(outputs):
    def shift(rep):
        rep["E0"] += 1e-6
    assert _corrupt_json(outputs["analyze"][0], shift)


@pytest.mark.parametrize("key", ("ef_bound", "ratio_bound"))
def test_bound_below_entanglement_fails(outputs, key):
    def lower(rep):
        rep[key] = rep["entanglement"] - 1e-3
    assert _corrupt_json(outputs["analyze"][0], lower)


def test_wrong_local_gap_fails(outputs):
    def shift(rep):
        rep["delta_e_ent"] *= 1.0 + 1e-6
    assert _corrupt_json(outputs["analyze"][0], shift)


@pytest.mark.parametrize("value", (0.0, 0.999))
def test_entanglement_outside_its_limits_fails(outputs, value):
    def set_value(rep):
        rep["entanglement"] = value
        rep["ef_bound"] = rep["ratio_bound"] = 1.0
    assert _corrupt_json(outputs["analyze"][0], set_value)


def test_negative_frustration_energy_fails(outputs):
    def negate(rep):
        rep["E_f"] = -1e-3
    assert _corrupt_json(outputs["analyze"][0], negate)


def test_excited_corruptions_fail(outputs):
    def shift(rows):
        rows[-1]["E_j"] += 1e-6

    def misorder(rows):
        rows[0]["bound_29"], rows[0]["bound_30"] = 1.0, 0.5

    def exceed(rows):
        rows[0].update(precondition_met=True, bound_29=0.0, bound_30=0.0, entanglement=0.5)

    def inflate(rows):  # above 1 - max |amplitude|^2 <= 1 - 1/d
        rows[0]["entanglement"] = 0.999

    def deflate(rows):  # below the largest-Schmidt-coefficient limit
        rows[0]["entanglement"] = 0.0

    for edit in (shift, misorder, exceed, inflate, deflate):
        assert _corrupt_json(outputs["excited"][0], edit), edit.__name__


def _corrupt_csv(pair, column, value):
    call, text = pair
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index(column)] = value
    return checks.check_call(call, 0, "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")


def test_sweep_corruptions_fail(outputs):
    pair = outputs["sweep"][0]
    assert _corrupt_csv(pair, "dev_entanglement", "1e-7")
    assert _corrupt_csv(pair, "entanglement", "0.25")


def test_saturate_corruptions_fail(outputs):
    pair = outputs["saturate"][0]
    assert _corrupt_csv(pair, "excess", "-1e-9")
    assert _corrupt_csv(pair, "E0", "-100")


def test_perturb_failures_fail(outputs):
    call, text = outputs["perturb"][0]
    bad = text.replace(" 0 failures", " 1 failures")
    assert bad != text and checks.check_call(call, 0, bad)
    assert checks.check_call(call, 0, text.replace('"all_ok": true', '"all_ok": false', 1))


# ---------------------------------------------------------------------------
# seeded inputs


def _plan_files(workload, seed, workdir):
    plan = workloads.build_plan(workload, seed, str(workdir), "tiny", epochs=2)
    files = {}
    for name in sorted(os.listdir(workdir / "models")):
        files[name] = (workdir / "models" / name).read_bytes()
    argv = [[a.replace(str(workdir), "<dir>") for a in call.argv] for call in plan.calls()]
    return files, argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(tmp_path, workload):
    first = _plan_files(workload, 11, tmp_path / "a")
    again = _plan_files(workload, 11, tmp_path / "b")
    other = _plan_files(workload, 12, tmp_path / "c")
    assert first == again
    assert first != other
    files, argv = first
    models = list(files.values()) + [json.dumps(a) for a in argv if "--param" in a]
    assert len(set(models)) == len(models)  # no two calls share a model
