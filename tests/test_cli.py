import csv
import io
import json

import numpy as np
import pytest

import frustra.entanglement
import frustra.models
from frustra.cli import main
from frustra.models import model_to_dict, chain3, save_model


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


def test_saved_model_keeps_labels_for_bipartition(tmp_path, capsys):
    path = str(tmp_path / "chain3.json")
    save_model(chain3(gb=10.0), path)
    argv = ["analyze", "--bipartition", "B|AC"]
    code, from_file, _ = run_cli(capsys, *argv, "--model", path)
    assert code == 0
    _, builtin, _ = run_cli(capsys, *argv, "--model", "chain3", "--param", "gb=10")
    assert from_file == builtin


def test_excited_decomposes_h_once(capsys, monkeypatch):
    sizes = {"eigh": [], "eigvalsh": []}
    for name in sizes:
        solver = getattr(np.linalg, name)

        def counting(a, *args, _solver=solver, _sizes=sizes[name], **kwargs):
            _sizes.append(np.shape(a)[0])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    code, out, _ = run_cli(capsys, "excited", "--model", "chain3", "--j", "0..7")
    assert code == 0 and len(json.loads(out)) == 8
    assert sizes["eigh"].count(8) == 1  # H, shared by every j
    assert sizes["eigh"].count(2) == 3  # one per site: the local spectrum is shared too
    assert sizes["eigvalsh"].count(8) == 1  # H_I, eigenvalues only


def test_analyze_builds_each_operator_once(capsys, monkeypatch):
    calls = []
    build = frustra.models.dense_terms

    def counting(terms, dims):
        calls.append(len(dims))
        return build(terms, dims)

    monkeypatch.setattr(frustra.models, "dense_terms", counting)
    code, _, _ = run_cli(capsys, "analyze", "--model", "chain3")
    assert code == 0
    assert len(calls) == 2  # H and H_L; H_I = H - H_L


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
    # the symmetric and the asymmetric split of one grid point share its ground state
    calls = count_calls(monkeypatch, frustra.entanglement, "geometric_measure_bipartite")
    code, out, _ = run_cli(capsys, "sweep", "--grid", "0.1:2:7")
    assert code == 0 and len(out.splitlines()) == 8
    assert len(calls) == 7


def test_saturate_decomposes_the_ground_state_twice(capsys, monkeypatch):
    # once to choose a0, once for the entanglement every gamma shares
    calls = count_calls(monkeypatch, frustra.entanglement, "schmidt")
    gammas = "0.5,0.2,0.1,0.05,0.02,1e-2,5e-3,1e-3"
    code, out, _ = run_cli(capsys, "saturate", "--model", "ising2", "--gammas", gammas)
    assert code == 0 and len(out.splitlines()) == 9
    assert len(calls) == 2


def test_saturate_builds_one_local_part_per_gamma(capsys, monkeypatch):
    # H once for the model, then only H_L = -gamma P x I for each gamma
    calls = count_calls(monkeypatch, frustra.models, "dense_terms")
    gammas = "0.5,0.2,0.1,0.05,0.02,1e-2,5e-3,1e-3"
    code, _, _ = run_cli(capsys, "saturate", "--model", "ising2", "--gammas", gammas)
    assert code == 0
    assert len(calls) == 8 + 1


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
    # removed flags
    ["sweep", "--grid", "0.2:2:2", "--jobs", "2"],
    ["sweep", "--grid", "0.2:2:2", "--seed", "1"],
    ["sweep", "--grid", "0.2:2:2", "--tol", "1e-9"],
    ["perturb", "--trials", "1", "--jobs", "2"],
], ids=" ".join)
def test_config_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "computation error" not in err


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
    "model duplicate labels": ("model", _ising2_doc(lambda d: d.update(labels=["A", "A"]))),
    "model label with bar": ("model", _ising2_doc(lambda d: d.update(labels=["A|B", "C"]))),
    "model label with comma": ("model", _ising2_doc(lambda d: d.update(labels=["A,B", "C"]))),
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


def test_saturate_csv(capsys):
    code, out, _ = run_cli(capsys, "saturate", "--model", "ising2",
                           "--param", "g=1", "--gammas", "1e-1,1e-2,1e-3")
    assert code == 0
    rows = parse_csv(out)
    excesses = [float(r["excess"]) for r in rows]
    assert excesses[0] > excesses[1] > excesses[2] > 0
    assert set(rows[0].keys()) == {
        "gamma", "E0", "E0_L", "E0_I", "E_f", "delta_e_ent",
        "ef_bound", "entanglement", "excess", "overshoot_interaction",
    }


def test_saturate_json(capsys):
    code, out, _ = run_cli(capsys, "saturate", "--model", "ising2",
                           "--gammas", "1e-1,1e-2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert payload[0]["gamma"] == 0.1
    assert not payload[0]["unreliable"]


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
    for name in ("ising2", "triangle", "chain3"):
        assert name in out
