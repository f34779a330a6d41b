import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import frustra.bounds
import frustra.entanglement
import frustra.models
import frustra.saturation
import frustra.verify
from frustra import json_values
from frustra.cli import _csv_table, main
from frustra.linalg import STRUCTURAL_TOL, TOL_ENT, NormKind, ground_eig
from frustra.models import build_dense, chain3, load_model, model_to_dict
from conftest import members, save_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_ising(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "ising2", "--param", "g=1")
    assert code == 0
    report = json.loads(out)
    assert abs(report["ef_bound"] - 0.3819660) < 1e-6
    assert abs(report["entanglement"] - 0.0527864) < 1e-6
    assert report["entanglement_method"] == "schmidt_exact"
    assert report["ground_state"]["dims"] == [2, 2]


def test_analyze_triangle_degenerate(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "triangle", "--param", "J=1")
    assert code == 0
    report = json.loads(out)
    assert report["ef_bound"] is None
    assert report["ef_bound_reason"] == "delta_e_ent = 0"
    assert report["degenerate_ground"] is True


def test_analyze_chain3_bipartition(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "chain3",
                           "--param", "gb=10", "--bipartition", "B|AC")
    assert code == 0
    report = json.loads(out)
    assert report["ratio_bound"] is not None and report["ratio_bound"] < 0.5
    assert report["entanglement"] <= report["ratio_bound"] + 1e-6


@pytest.mark.parametrize("argv", [
    ("--model", "ising2", "--param", "g=0.3"),
    ("--model", "ising2", "--param", "g=2"),
    ("--model", str(Path(__file__).parent / "data" / "saturate_qutrit_model.json")),
    ("--model", "chain3", "--bipartition", "B|AC"),
], ids=["ising2-g0.3", "ising2-g2", "qutrit", "chain3-B|AC"])
def test_excited_ground_matches_analyze_on_two_parties(capsys, argv):
    # a two-party eigenstate takes the exact route in both subcommands
    _, ground, _ = run_cli(capsys, "analyze", *argv)
    code, excited, _ = run_cli(capsys, "excited", *argv, "--j", "0")
    assert code == 0
    ground, (first,) = json.loads(ground), json.loads(excited)
    assert first["entanglement_method"] == ground["entanglement_method"] == "schmidt_exact"
    assert first["entanglement"] == ground["entanglement"]


def test_saved_model_keeps_labels_for_bipartition(tmp_path, capsys):
    path = str(tmp_path / "chain3.json")
    save_model(chain3(gb=10.0), path)
    argv = ["analyze", "--bipartition", "B|AC"]
    code, from_file, _ = run_cli(capsys, *argv, "--model", path)
    assert code == 0
    _, builtin, _ = run_cli(capsys, *argv, "--model", "chain3", "--param", "gb=10")
    assert from_file == builtin


def test_excited_decomposes_h_once(capsys, solver_sizes):
    code, out, _ = run_cli(capsys, "excited", "--model", "chain3", "--j", "0..7")
    assert code == 0 and len(json.loads(out)) == 8
    assert members(solver_sizes["eigh"], 8) == 1  # H, shared by every j
    assert members(solver_sizes["eigh"], 2) == 3  # one per site: the local spectrum is shared too
    assert members(solver_sizes["eigvalsh"], 8) == 1  # H_I, eigenvalues only


def test_excited_draws_the_seeded_starts_once(capsys, monkeypatch):
    # 32 restarts: one generator per restart for the whole call, not per eigenstate
    calls = count_calls(monkeypatch, np.random, "default_rng")
    code, out, _ = run_cli(capsys, "excited", "--model", "chain3", "--j", "0..7")
    assert code == 0 and len(json.loads(out)) == 8
    assert len(calls) == 32


def test_analyze_builds_each_operator_once(capsys, monkeypatch):
    calls = []
    build = frustra.models.dense_terms

    def counting(terms, dims):
        calls.append(len(dims))
        return build(terms, dims)

    monkeypatch.setattr(frustra.models, "dense_terms", counting)
    code, _, _ = run_cli(capsys, "analyze", "--model", "chain3")
    assert code == 0
    assert len(calls) == 2  # H and H_I, each from its own terms; H_L stays per site


def test_analyze_holds_a_diagonal_interaction_as_its_diagonal(capsys, monkeypatch):
    """The 10-qubit chain's ZZ bonds make H_I diagonal: H is the only dense build, and H_I is summed as its diagonal."""
    calls = count_calls(monkeypatch, frustra.models, "dense_terms")
    builds, sum_terms = [], frustra.models._sum_terms

    def spy(terms, dims, dense):
        builds.append(dense)
        return sum_terms(terms, dims, dense)

    monkeypatch.setattr(frustra.models, "_sum_terms", spy)
    path = Path(__file__).parent / "data" / "transverse_chain10_model.json"
    code, _, _ = run_cli(capsys, "analyze", "--model", str(path))
    assert code == 0 and len(calls) == 1 and builds == [True, False]


def count_calls(monkeypatch, module, name):
    """Replace module.name with a wrapper that appends to the returned list."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_sweep_measures_each_model_once(capsys, monkeypatch):
    # the symmetric and the asymmetric split of one grid point share its ground state: one batched call holds each once
    states = []
    batch = frustra.entanglement.geometric_measure_bipartite
    monkeypatch.setattr(frustra.entanglement, "geometric_measure_bipartite",
                        lambda psis, *args: states.append(list(psis)) or batch(psis, *args))
    code, out, _ = run_cli(capsys, "sweep", "--grid", "0.1:2:7")
    assert code == 0 and len(out.splitlines()) == 8
    assert len(states) == 1 and len(states[0]) == 7 and len(set(map(id, states[0]))) == 7


@pytest.mark.parametrize("model, sites", [("triangle", 3),
                                          (str(Path(__file__).parent / "data" / "transverse_chain10_model.json"), 10)],
                         ids=["triangle", "chain10"])
def test_saturate_refuses_more_than_two_parties_before_any_solve(capsys, solver_sizes, model, sites):
    code, out, err = run_cli(capsys, "saturate", "--model", model, "--gammas", "0.1")
    assert code == 2 and out == ""
    assert err == f"error: model has {sites} sites; regroup it into two parties first\n"
    assert solver_sizes == {"eigh": [], "eigvalsh": [], "svd": []}


def test_analyze_measures_a_lone_multipartite_state_through_the_single_form(capsys, monkeypatch):
    # the benchmark's tracer binds this function's signature and reads .iterations from its result
    seen = []
    single = frustra.entanglement.geometric_measure_multipartite
    monkeypatch.setattr(frustra.entanglement, "geometric_measure_multipartite",
                        lambda psi, *args, **kwargs: seen.append(psi) or single(psi, *args, **kwargs))
    code, _, _ = run_cli(capsys, "analyze", "--model", "chain3")
    assert code == 0
    assert len(seen) == 1 and isinstance(seen[0], frustra.entanglement.PureState)


def test_sweep_solves_its_grid_as_stacks(capsys, solver_sizes):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "0.01:5:48")
    assert code == 0 and len(out.splitlines()) == 49
    assert solver_sizes == {
        "eigh": [(48, 4, 4)] + [(48, 2, 2)] * 4,  # H, shared by both splits; then each split's two site spectra
        "eigvalsh": [(48, 4, 4)],  # the asymmetric split's H_I; the default split's H_I = -ZZ is diagonal
        "svd": [(48, 2, 2)],  # the ground states' Schmidt decompositions
    }


def test_saturate_decomposes_the_ground_state_once(capsys, monkeypatch):
    # a0 and the entanglement every gamma shares come from one decomposition
    calls = count_calls(monkeypatch, frustra.entanglement, "schmidt")
    gammas = "0.5,0.2,0.1,0.05,0.02,1e-2,5e-3,1e-3"
    code, out, _ = run_cli(capsys, "saturate", "--model", "ising2", "--gammas", gammas)
    assert code == 0 and len(out.splitlines()) == 9
    assert len(calls) == 1


def test_saturate_builds_nothing_per_gamma(capsys, monkeypatch):
    # H and P x I once per call, however many gammas, no local spectrum and one ground PureState
    spectra = count_calls(monkeypatch, frustra.models, "local_spectrum")
    builds = count_calls(monkeypatch, frustra.models, "dense_terms")
    states = count_calls(monkeypatch, frustra.entanglement.PureState, "__post_init__")
    monkeypatch.setattr(frustra.saturation, "dense_terms", frustra.models.dense_terms)
    per_call = []
    for gammas in ("0.5,1e-3", "0.5,0.2,0.1,0.05,0.02,1e-2,5e-3,1e-3"):
        before = len(builds), len(states)
        code, _, _ = run_cli(capsys, "saturate", "--model", "ising2", "--gammas", gammas)
        assert code == 0
        per_call.append((len(builds) - before[0], len(states) - before[1]))
    assert per_call == [(2, 1), (2, 1)]
    assert spectra == []


def _labelled_chain(tmp_path, labels):
    path = str(tmp_path / "chain.json")
    doc = model_to_dict(frustra.models.transverse_chain(3))
    doc["labels"] = labels
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("spec, name", [
    ("AB|C,D", "chain3[AB|CD]"),
    ("C,D|AB", "chain3[CD|AB]"),
    ("AB|CD", "chain3[AB|CD]"),
    (" AB | C , D ", "chain3[AB|CD]"),
])
def test_bipartition_names_a_multi_character_label(tmp_path, capsys, spec, name):
    # a side that is exactly one label names that site, before the comma and letter rules
    path = _labelled_chain(tmp_path, ["AB", "C", "D"])
    code, out, err = run_cli(capsys, "analyze", "--model", path, "--bipartition", spec)
    assert code == 0, err
    assert json.loads(out)["model"] == name


def test_bipartition_label_letters_are_not_sites(tmp_path, capsys):
    path = _labelled_chain(tmp_path, ["AB", "C", "D"])
    code, out, err = run_cli(capsys, "analyze", "--model", path, "--bipartition", "A|B,C,D")
    assert code == 2 and out == "" and "unknown site label 'A'" in err


def test_analyze_config_errors(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "nope")
    assert code == 2 and "unknown model" in err
    code, _, err = run_cli(capsys, "analyze", "--model", "ising2", "--param", "q=1")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--model", "ising2", "--param", "g=x")
    assert code == 2
    code, _, _ = run_cli(capsys, "analyze", "--model", "missing.json")
    assert code == 2
    code, _, _ = run_cli(capsys, "analyze", "--model", "ising2", "--split", "bogus:1")
    assert code == 2
    code, _, _ = run_cli(capsys, "analyze", "--model", "chain3", "--bipartition", "B|AX")
    assert code == 2
    code, _, _ = run_cli(capsys, "bogus-command")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["excited", "--model", "chain3", "--j", "x"],
    ["excited", "--model", "chain3", "--j", "0..x"],
    ["excited", "--model", "ising2", "--j", "3..1"],
    ["excited", "--model", "ising2", "--j", "0,3..1"],
    # the ends are checked before the range is expanded
    ["excited", "--model", "ising2", "--j", "0..1000000000000"],
    ["perturb", "--dims", "4,x", "--trials", "1"],
    ["perturb", "--dims", "0", "--trials", "1"],
    ["perturb", "--dims", "1", "--trials", "2"],
    ["analyze", "--model", "chain3", "--bipartition", "B|"],
    ["analyze", "--model", "chain3", "--bipartition", "A|A"],
    ["analyze", "--model", "chain3", "--bipartition", "AB|BC"],
    ["analyze", "--model", "ising2", "--split", "schmidt:-1"],
    ["analyze", "--model", "chain3", "--split", "schmidt:0.1"],
    ["saturate", "--model", "ising2", "--gammas", "1e-2,1e-1"],
    ["saturate", "--model", "chain3", "--gammas", "1e-1,1e-2"],
    ["selftest", "--trials", "0"],
    ["perturb", "--trials", "-1"],
    ["sweep", "--grid", "nan:1:3"],
    ["sweep", "--grid", "0:inf:3"],
    ["saturate", "--model", "ising2", "--gammas", "0.1,nan"],
    ["saturate", "--model", "ising2", "--gammas", "inf,0.1"],
    ["analyze", "--model", "chain3", "--seed", "-1"],
    ["analyze", "--model", "chain3", "--tol", "nan"],
    ["analyze", "--model", "chain3", "--tol", "-1"],
    ["analyze", "--model", "ising2", "--split", "schmidt:inf"],
    ["perturb", "--trials", "1", "--seed", "-1"],
    ["selftest", "--trials", "1", "--seed", "-3000"],
    # an --out path that cannot be written
    ["analyze", "--model", "ising2", "--out", "/nonexistent/x.json"],
    ["sweep", "--grid", "0.2:2:2", "--out", "/nonexistent/missing_dir/x.csv"],
    ["perturb", "--trials", "2", "--out", "/nonexistent/missing_dir/x.jsonl"],
    ["excited", "--model", "chain3", "--j", "0", "--out", "."],
    # removed flags
    ["sweep", "--grid", "0.2:2:2", "--jobs", "2"],
    ["sweep", "--grid", "0.2:2:2", "--seed", "1"],
    ["sweep", "--grid", "0.2:2:2", "--tol", "1e-9"],
    ["perturb", "--trials", "1", "--jobs", "2"],
    # saturate fixes its split and takes the exact Schmidt route
    ["saturate", "--model", "ising2", "--gammas", "0.1,0.01", "--split", "default"],
    ["saturate", "--model", "ising2", "--gammas", "0.1,0.01", "--seed", "1"],
    ["saturate", "--model", "ising2", "--gammas", "0.1,0.01", "--tol", "1e-9"],
], ids=" ".join)
def test_config_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "computation error" not in err
    if "--out" in argv:
        assert err.startswith("error: cannot write")


CONFIG_MESSAGES = {
    "param-without-equals": (["analyze", "--model", "ising2", "--param", "g"], "--param expects k=v, got 'g'"),
    "param-on-a-file": (["analyze", "--model", str(Path(__file__).parent / "data" / "zz_chain6_model.json"),
                         "--param", "g=1"], "--param applies to built-in models only"),
    "three-sided-bipartition": (["analyze", "--model", "chain3", "--bipartition", "A|B|C"],
                                "bipartition must have exactly two sides, got 'A|B|C'"),
    "schmidt-gamma-not-a-number": (["analyze", "--model", "ising2", "--split", "schmidt:abc"],
                                   "bad schmidt gamma in 'schmidt:abc'"),
    "grid-of-two-parts": (["sweep", "--grid", "1:2"], "--grid expects MIN:MAX:N, got '1:2'"),
}


@pytest.mark.parametrize("argv, message", CONFIG_MESSAGES.values(), ids=CONFIG_MESSAGES.keys())
def test_config_errors_name_their_cause(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_tol_reaches_the_optimizer(capsys, monkeypatch):
    tols, measure = [], frustra.entanglement.geometric_measure_multipartite

    def spy(psi, **kwargs):
        tols.append(kwargs["tol"])
        return measure(psi, **kwargs)

    monkeypatch.setattr(frustra.entanglement, "geometric_measure_multipartite", spy)
    code, out, _ = run_cli(capsys, "analyze", "--model", "chain3", "--tol", "1e-8")
    assert code == 0 and tols == [1e-8] and json.loads(out)["entanglement_method"] == "alternating"


def _src_env(**extra):
    src = str(Path(frustra.models.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_no_scipy():
    """Importing scipy.linalg costs about 0.2 s and 28 MiB at start-up; the CLI needs none of it."""
    code = ("import sys, frustra.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), check=True)
    assert done.stdout.strip() == "[]"


def _ising2_doc(edit):
    doc = model_to_dict(frustra.models.ising2())
    edit(doc)
    return doc


BAD_FILES = {
    # --split file: on ising2, whose terms are X on 0, X on 1 and the ZZ coupling
    "split local 5": ("split", {"local": 5}),
    "split top-level list": ("split", [0]),
    "split string index": ("split", {"local": ["a"]}),
    "split negative index": ("split", {"local": [-1]}),
    "split float index": ("split", {"local": [0.5]}),
    "split bool index": ("split", {"local": [True]}),
    "split null": ("split", {"local": None}),
    "split index out of range": ("split", {"local": [3]}),
    "split duplicate index": ("split", {"local": [0, 0]}),
    "split coupling as local": ("split", {"local": [2]}),
    # --model PATH.json
    "model float dimension": ("model", _ising2_doc(lambda d: d.update(sites=[2.5, 2]))),
    "model float factor site": ("model", _ising2_doc(
        lambda d: d["terms"][0]["factors"][0].update(site=0.7))),
    "model bool coeff": ("model", _ising2_doc(lambda d: d["terms"][0].update(coeff=True))),
    "model bool op entry": ("model", _ising2_doc(
        lambda d: d["terms"][0]["factors"][0].update(op=[[True, False], [False, False]]))),
    "model bool imaginary part": ("model", _ising2_doc(
        lambda d: d["terms"][0]["factors"][0].update(op=[[[1.0, False], 0], [0, 0]]))),
    "model duplicate labels": ("model", _ising2_doc(lambda d: d.update(labels=["A", "A"]))),
    "model label with bar": ("model", _ising2_doc(lambda d: d.update(labels=["A|B", "C"]))),
    "model label with comma": ("model", _ising2_doc(lambda d: d.update(labels=["A,B", "C"]))),
    "model labels string": ("model", _ising2_doc(lambda d: d.update(labels="AB"))),
    "model factors object": ("model", _ising2_doc(lambda d: d["terms"][0].update(factors={}))),
}


@pytest.mark.parametrize("kind, doc", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_malformed_files_exit_2(tmp_path, capsys, kind, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if kind == "split":
        argv = ["analyze", "--model", "ising2", "--split", f"file:{path}"]
    else:
        argv = ["analyze", "--model", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "computation error" not in err


def test_analyze_model_file_and_split_file(tmp_path, capsys):
    model_path = tmp_path / "chain.json"
    model_path.write_text(json.dumps(model_to_dict(chain3(1.0, 2.0, 1.0))))
    code, out, _ = run_cli(capsys, "analyze", "--model", str(model_path))
    assert code == 0
    assert json.loads(out)["E0"] < 0

    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps({"local": [0]}))
    code, out, _ = run_cli(capsys, "analyze", "--model", "ising2",
                           "--split", f"file:{split_path}")
    assert code == 0
    assert abs(json.loads(out)["ef_bound"] - 0.0890728) < 1e-6


def test_analyze_schmidt_split(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "ising2",
                           "--split", "schmidt:0.01")
    assert code == 0
    report = json.loads(out)
    assert abs(report["delta_e_ent"] - 0.01) < 1e-10
    assert report["ef_bound"] >= report["entanglement"] - 1e-9


def test_analyze_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--model", "ising2", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["E0"] < 0


def test_unwritable_out_fails_before_any_work(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("perturbation_suite ran before --out was checked")

    monkeypatch.setattr(frustra.verify, "perturbation_suite", fail)
    code, out, err = run_cli(capsys, "perturb", "--trials", "200",
                             "--out", "/nonexistent/x.jsonl")
    assert code == 2 and out == ""
    assert "cannot write '/nonexistent/x.jsonl'" in err


def test_perturb_dims_obey_the_dimension_cap(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("perturbation_suite ran with a dimension above the cap")

    monkeypatch.setattr(frustra.verify, "perturbation_suite", fail)
    monkeypatch.setenv("FRUSTRA_DIM_CAP", "8")
    code, out, err = run_cli(capsys, "perturb", "--dims", "16", "--trials", "1")
    assert code == 2 and out == ""
    assert "dimension cap 8" in err
    monkeypatch.setenv("FRUSTRA_DIM_CAP", "many")
    code, out, err = run_cli(capsys, "perturb", "--dims", "4", "--trials", "1")
    assert code == 2 and out == ""
    assert "FRUSTRA_DIM_CAP must be an integer" in err


@pytest.mark.parametrize("cap", ["abc", "1"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "ising2"],
    ["excited", "--model", "ising2", "--j", "0"],
    ["saturate", "--model", "ising2", "--gammas", "0.1"],
    ["sweep", "--grid", "1:1:1"],
    ["perturb", "--trials", "1"],
    ["selftest", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_bad_dimension_cap_exits_2(capsys, monkeypatch, argv, cap):
    monkeypatch.setenv("FRUSTRA_DIM_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: FRUSTRA_DIM_CAP must be")


def test_out_check_keeps_an_existing_file(tmp_path, capsys):
    out_path = tmp_path / "keep.json"
    out_path.write_text("kept\n")
    code, _, _ = run_cli(capsys, "analyze", "--model", "no-such-model", "--out", str(out_path))
    assert code == 2
    assert out_path.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# sweep


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_sweep_small_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "0.5:1.5:3")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert float(row["dev_entanglement"]) < 1e-10
        assert float(row["dev_ef_symmetric"]) < 1e-10
        assert float(row["dev_ef_asymmetric"]) < 1e-10
        assert float(row["ef_bound_asymmetric"]) <= float(row["ef_bound_symmetric"])


def test_sweep_g_zero_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid", "0:1:2")
    assert code == 0
    rows = parse_csv(out)
    first = rows[0]
    assert float(first["g"]) == 0.0
    # the closed form extends continuously to the strong-coupling limit 1/2
    assert abs(float(first["closed_form_gse"]) - 0.5) < 1e-9
    # numeric bounds are undefined at delta_e_ent = 0 and left blank
    assert first["ef_bound_symmetric"] == ""
    assert first["dev_ef_symmetric"] == ""


def test_analyze_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--model", "chain3", "--param", "gb=3")
    _, out2, _ = run_cli(capsys, "analyze", "--model", "chain3", "--param", "gb=3")
    assert out1 == out2


def test_analyze_byte_identical_reruns_on_the_ground_tier(capsys):
    """Dimension 1024: Lanczos and its certificate, not the full decomposition."""
    path = str(Path(__file__).parent / "data" / "transverse_chain10_model.json")
    _, out1, _ = run_cli(capsys, "analyze", "--model", path)
    _, out2, _ = run_cli(capsys, "analyze", "--model", path)
    assert out1 == out2


def test_analyze_classical_chain_on_the_ground_tier(capsys):
    """A diagonal H at d = 256 takes the one ground route; H_L and H_I share its classical ground state."""
    path = str(Path(__file__).parent / "data" / "classical_chain8_model.json")
    g = ground_eig(build_dense(load_model(path)))
    assert g is not None and not g.degenerate
    code, out, _ = run_cli(capsys, "analyze", "--model", path)
    assert code == 0
    report = json.loads(out)
    assert report["E0"] == g.energy and report["degenerate_ground"] is False
    assert abs(report["E_f"]) <= STRUCTURAL_TOL * g.scale
    assert report["entanglement"] <= TOL_ENT


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", str(Path(__file__).parent / "data" / "transverse_chain10_model.json")],
    ["excited", "--model", "chain3", "--j", "0..7"],
    ["sweep", "--grid", "0.01:5:48"],
    ["saturate", "--model", str(Path(__file__).parent / "data" / "saturate_qutrit_model.json"),
     "--gammas", "1e-1,1e-2,1e-3"],
    # below the README's two exceptions: excited at d = 64, and the ground tier at d = 256, a power of two
    ["excited", "--model", str(Path(__file__).parent / "data" / "zz_chain6_model.json"), "--j", "0..7",
     "--format", "csv"],
    ["analyze", "--model", str(Path(__file__).parent / "data" / "classical_chain8_model.json")],
], ids=["analyze", "excited", "sweep", "saturate", "excited-zz-chain6", "analyze-classical-chain8"])
def test_stdout_does_not_depend_on_blas_threads(argv):
    # the optimizer's per-state GEMMs and the dense solvers must round alike on 1 and 2 threads
    outs = [subprocess.run([sys.executable, "-m", "frustra.cli", *argv], capture_output=True,
                           env=_src_env(OPENBLAS_NUM_THREADS=threads), check=True).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


def test_sweep_is_even_in_the_field(capsys):
    """H(-g) = (Z x Z) H(g) (Z x Z): the closed forms take |g|, and the numeric columns follow."""
    _, out, _ = run_cli(capsys, "sweep", "--grid", "-3:3:13")
    rows = parse_csv(out)
    for neg, pos in zip(rows[:6], rows[:6:-1]):
        assert float(neg["g"]) == -float(pos["g"]) < 0
        for key in ("closed_form_gse", "closed_form_fb", "closed_form_fb2"):
            assert neg[key] == pos[key]
        for key in ("entanglement", "ef_bound_symmetric", "ef_bound_asymmetric", "dev_entanglement"):
            assert abs(float(neg[key]) - float(pos[key])) <= 1e-12 * max(1.0, abs(float(pos[key])))
        assert float(neg["dev_entanglement"]) < 1e-10


def test_sweep_determinism_and_jobs(capsys):
    _, out1, _ = run_cli(capsys, "sweep", "--grid", "0.2:2:5")
    _, out2, _ = run_cli(capsys, "sweep", "--grid", "0.2:2:5")
    assert out1 == out2


def test_sweep_rejects_other_models(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--model", "triangle", "--grid", "0.1:1:2")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--grid", "1:0:2")
    assert code == 2


# ---------------------------------------------------------------------------
# excited / saturate / perturb / selftest


def test_excited_reports(capsys):
    code, out, _ = run_cli(capsys, "excited", "--model", "ising2",
                           "--param", "g=2", "--j", "0..3")
    assert code == 0
    reports = json.loads(out)
    assert [r["j"] for r in reports] == [0, 1, 2, 3]
    assert abs(reports[0]["bound_29"] - 1 / 9) < 1e-12
    assert reports[0]["precondition_met"] is True
    code, _, _ = run_cli(capsys, "excited", "--model", "ising2", "--j", "9")
    assert code == 2


def test_excited_squares_a_huge_margin_without_overflow(capsys):
    # (delta_j - ||H_I||)^2 overflows to inf, so bound_29 is 0.0 instead of an error
    code, out, _ = run_cli(capsys, "excited", "--model", "ising2",
                           "--param", "g=1e300", "--j", "0..3")
    assert code == 0
    assert json.loads(out)[0]["bound_29"] == 0.0


@pytest.mark.parametrize("argv", [
    ("analyze", "--model", "ising2", "--param", "g=1e308"),
    ("excited", "--model", "ising2", "--param", "g=1e308", "--j", "0..3"),
    ("saturate", "--model", "ising2", "--param", "g=1e308", "--gammas", "1e-1,1e-2"),
    ("sweep", "--grid", "1e308:1e308:1"),
    ("sweep", "--grid", "1e200:1e200:1"),
], ids=["analyze", "excited", "saturate", "sweep", "sweep-closed-forms"])
def test_an_overflowed_spectrum_exits_3(capsys, argv):
    # H's eigenvalues overflow to -inf and inf: no -Infinity or NaN reaches stdout, and no RuntimeWarning comes first;
    # at g = 1e200 H is finite but the sweep's closed forms overflow in 1 + 4 g^2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "not finite" in err


@pytest.mark.parametrize("g", [1e200, np.float64(1e200)], ids=["float", "numpy"])
def test_sweep_row_raises_where_the_closed_forms_overflow(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match="not finite"):
            frustra.verify.ising_sweep_rows([g])
        assert frustra.verify.ising_sweep_rows([np.float64(1e150)])[0]["closed_form_gse"] == 0.0


def test_an_overflowed_ground_tier_model_exits_3(tmp_path, capsys):
    # d = 256 reaches the ground tier, whose Gershgorin row sums overflow: it falls back to the full spectrum
    path = str(tmp_path / "chain8.json")
    save_model(frustra.models.transverse_chain(8, 1e308), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "analyze", "--model", path)
    assert code == 3 and out == ""
    assert "not finite" in err


def test_saturate_csv(capsys):
    code, out, _ = run_cli(capsys, "saturate", "--model", "ising2",
                           "--param", "g=1", "--gammas", "1e-1,1e-2,1e-3")
    assert code == 0
    rows = parse_csv(out)
    excesses = [float(r["excess"]) for r in rows]
    assert excesses[0] > excesses[1] > excesses[2] > 0


def test_saturate_json(capsys):
    code, out, _ = run_cli(capsys, "saturate", "--model", "ising2",
                           "--gammas", "1e-1,1e-2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert payload[0]["gamma"] == 0.1
    assert not payload[0]["unreliable"]
    assert list(payload[0]) == ["gamma", "excess", "overshoot_interaction", "unreliable", "report"]
    assert list(payload[0]["report"]) == CSV_HEADERS["analyze"][1]


def _strict_json(text):
    """json.loads that refuses NaN and the infinities, as a strict JSON parser does."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_an_undefined_saturate_bound_has_no_excess(capsys):
    """At g = 1000 the bound of gamma = 1e-6 is undefined (delta_e_ent = gamma <= STRUCTURAL_TOL * scale): its
    excess and overshoot are null in JSON and empty in CSV, like its bound."""
    argv = ["saturate", "--model", "ising2", "--param", "g=1000", "--gammas", "1e-5,1e-6"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    defined, undefined = _strict_json(out)
    assert code == 0 and defined["excess"] is not None and defined["report"]["ef_bound"] is not None
    assert undefined["excess"] is None and undefined["overshoot_interaction"] is None
    assert undefined["report"]["ef_bound"] is None and undefined["unreliable"]
    code, out, _ = run_cli(capsys, *argv)
    row = parse_csv(out)[1]
    assert code == 0 and row["ef_bound"] == row["excess"] == row["overshoot_interaction"] == ""


def test_perturb_reports_and_summary(tmp_path, capsys):
    out_path = tmp_path / "trials.jsonl"
    code, out, _ = run_cli(capsys, "perturb", "--trials", "12", "--seed", "1",
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert first["all_ok"] is True
    assert "perturb: 12 trials, 0 failures" in out


def test_selftest_quick(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--trials", "8", "--seed", "0")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_list_models(capsys):
    code, out, _ = run_cli(capsys, "list-models")
    assert code == 0
    assert out == (
        "chain3(ga=1, gb=1, gc=1, jab=1, jbc=1): "
        "three-spin chain, per-site field strengths and X-X couplings\n"
        "ising2(g=1): two-spin transverse Ising model\n"
        "triangle(J=1): frustrated antiferromagnetic triangle\n"
    )


CSV_HEADERS = {
    "analyze": (["analyze", "--model", "chain3", "--format", "csv"], [
        "model", "E0", "E0_L", "E0_I", "E_f", "delta_e_ent", "entanglement",
        "entanglement_method", "ef_bound", "ef_bound_reason", "ratio_bound",
        "ratio_bound_reason", "E_I_max", "E_I_tot", "local_frustration",
        "interaction_frustration", "degenerate_ground",
    ]),
    "excited": (["excited", "--model", "ising2", "--j", "0..1", "--format", "csv"], [
        "j", "E_j", "local_config", "E_L_j", "delta_j_ent", "delta_j_Kperp",
        "h_i_norm", "e_i_max_eigenvalue", "bound_29", "bound_30", "bound_exact_gap",
        "entanglement", "entanglement_method", "precondition_met", "pairing_flag",
    ]),
    "saturate": (["saturate", "--model", "ising2", "--gammas", "1e-1,1e-2"], [
        "gamma", "E0", "E0_L", "E0_I", "E_f", "delta_e_ent",
        "ef_bound", "entanglement", "excess", "overshoot_interaction",
    ]),
    "sweep": (["sweep", "--grid", "0.5:1.5:2"], [
        "g", "entanglement", "ef_bound_symmetric", "ef_bound_asymmetric",
        "closed_form_gse", "closed_form_fb", "closed_form_fb2",
        "dev_entanglement", "dev_ef_symmetric", "dev_ef_asymmetric",
    ]),
}


@pytest.mark.parametrize("argv, columns", CSV_HEADERS.values(), ids=CSV_HEADERS.keys())
def test_csv_header_rows(capsys, argv, columns):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header, *rows = out.splitlines()
    assert header == ",".join(columns)
    assert rows and all(len(next(csv.reader([row]))) == len(columns) for row in rows)


def _excited():
    return frustra.bounds.analyze_excited(frustra.models.split(chain3()), 1)


# each report type, built on demand, with the fields that hold a nested object
REPORTS = {
    "FrustrationReport": (lambda: frustra.bounds.analyze_ground(frustra.models.split(chain3())),
                          {"ground_state"}),
    "ExcitedBoundReport": (_excited, {"chosen_subspace"}),
    "ProductSubspace": (lambda: _excited().chosen_subspace, set()),
    "SweepRecord": (lambda: frustra.saturation.saturation_sweep(frustra.models.ising2(), (0.1,))[0],
                    {"report"}),
    "PerturbationCheckReport": (lambda: frustra.verify.perturbation_trial(7, 0), {"norm_chain"}),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_keys_are_its_fields(name):
    # one converter shapes every JSON report and CSV row
    build, nested = REPORTS[name]
    report = build()
    assert type(report).__name__ == name
    names = [f.name for f in dataclasses.fields(report)]
    row = json_values(report)
    assert list(row) == names
    assert {n for n in names if dataclasses.is_dataclass(getattr(report, n))
            or isinstance(getattr(report, n), dict)} == nested
    assert json.loads(json.dumps(row)) == row
    header = _csv_table([row]).splitlines()[0]
    assert header == ",".join(n for n in names if n not in nested)


def test_converter_writes_states_enums_and_arrays():
    report = frustra.bounds.analyze_ground(frustra.models.split(frustra.models.ising2()))
    psi = report.ground_state
    row = json_values(report)
    assert row["ground_state"] == {"dims": [2, 2],
                                   "amplitudes": [[a.real, a.imag] for a in psi.amplitudes.tolist()]}
    assert "ground_state" not in json_values(report, states=False)
    record = frustra.saturation.saturation_sweep(frustra.models.ising2(), (0.1,))[0]
    assert list(json_values(record, states=False)["report"]) == list(row)[:-1]
    check = frustra.verify.perturbation_trial(7, 0)
    values = json_values(check)
    assert list(values["norm_chain"]) == [kind.value for kind in check.norm_chain]
    assert values["norm_chain"]["operator"] == list(check.norm_chain[NormKind.OPERATOR])
    assert values["canonical_cosines"] == check.canonical_cosines.tolist()
    assert values["all_ok"] is (check.op_ineq_holds and check.dominance_ok and check.norm_chain_ok)


def test_csv_joins_lists_and_drops_nested_objects():
    rows = [{"a": 1.5, "b": [1, 2.25, None], "c": {"x": 1}, "d": None},
            {"a": 2, "b": [], "c": {}, "d": "s"}]
    assert _csv_table(rows).splitlines() == ["a,b,d", "1.5,1;2.25;,", "2,,s"]


@pytest.mark.parametrize("argv", [
    ["saturate", "--model", "chain3", "--gammas", "1e-1,1e-2"],
    ["analyze", "--model", "chain3", "--split", "schmidt:0.1"],
], ids=" ".join)
def test_schmidt_routes_need_two_parties(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: model has 3 sites")


@pytest.mark.parametrize("command", [["analyze"], ["excited", "--j", "0"]], ids=lambda c: c[0])
def test_one_site_model_is_a_config_error(tmp_path, capsys, solver_sizes, command):
    path = tmp_path / "one_site.json"
    path.write_text(json.dumps({"name": "one", "sites": [2],
                                "terms": [{"coeff": 1.0, "factors": [{"site": 0, "op": "X"}]}]}))
    code, out, err = run_cli(capsys, *command, "--model", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: model has 1 site;")
    assert solver_sizes == {"eigh": [], "eigvalsh": [], "svd": []}  # rejected before any eigensolve


# ---------------------------------------------------------------------------
# the JSON writer and the reused parser


def _recording(monkeypatch):
    """The payloads the CLI hands to its JSON writer, in call order."""
    payloads = []

    def recorded(*args, **kwargs):
        payloads.append(json_values(*args, **kwargs))
        return payloads[-1]

    monkeypatch.setattr(frustra.cli, "json_values", recorded)
    return payloads


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data").glob("*_model.json")), ids=lambda p: p.stem)
def test_analyze_writes_what_the_json_module_writes(capsys, monkeypatch, path):
    payloads = _recording(monkeypatch)
    code, out, _ = run_cli(capsys, "analyze", "--model", str(path))
    assert code == 0 and out == json.dumps(payloads[0], indent=2) + "\n"


def test_spliced_amplitudes_are_the_json_modules_bytes(capsys):
    """Signed zeros, subnormals, long reprs and exponents; several states at several depths."""
    state = {"dims": [5], "amplitudes": [[-0.0, 5e-324], [1 / 3, 0.1], [1e16, -1e-300], [0.0, 1.0], [2.5, 1e22]]}
    name = '"amplitudes": null'
    payload = [{"model": name, "state": state, "nested": {"amplitudes": [[1.0, -0.0]], "x": [name]}},
               {"amplitudes": [[0.1, 0.2]]}, name]
    frustra.cli._write_json(payload, None)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name", ['"amplitudes": null', "amplitudes", 'x"amplitudes', '"amplitudes": [\n'])
def test_a_model_name_is_never_spliced(tmp_path, capsys, monkeypatch, name):
    doc = model_to_dict(frustra.models.ising2())
    doc["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    payloads = _recording(monkeypatch)
    code, out, _ = run_cli(capsys, "analyze", "--model", str(path))
    assert code == 0 and json.loads(out)["model"] == name
    assert out == json.dumps(payloads[0], indent=2) + "\n"


@pytest.mark.parametrize("calls", [
    [["analyze", "--model", "ising2", "--param", "g=2"], ["analyze", "--model", "ising2"]],
    [["excited", "--model", "chain3", "--j", "0..2"], ["analyze", "--model", "chain3"]],
    [["analyze", "--model", "ising2", "--format", "xml"], ["analyze", "--model", "ising2", "--format", "csv"]],
], ids=["param-then-none", "excited-then-analyze", "usage-error-then-good"])
def test_consecutive_calls_match_fresh_processes(capsys, calls):
    """One parser serves every main call of a process; an append action or an error leaves nothing behind."""
    in_process = [run_cli(capsys, *argv) for argv in calls]
    fresh = [subprocess.run([sys.executable, "-m", "frustra.cli", *argv], capture_output=True, env=_src_env())
             for argv in calls]
    assert [(code, out) for code, out, _ in in_process] == [(done.returncode, done.stdout.decode()) for done in fresh]
    assert in_process[0][0] == (2 if "xml" in calls[0] else 0)
