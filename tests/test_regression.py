"""Committed outputs of sweep, saturate and perturb calls like the grid-small benchmark's.

Each file under tests/data was written by the command in its test.  Strings,
ints and bools must match exactly, floats within 1e-12 * max(1, |v|).
"""

import csv
import io
import json
from pathlib import Path

from frustra.cli import main
from test_entanglement import assert_close_json

DATA = Path(__file__).parent / "data"
GAMMAS = ("0.4,0.3,0.25,0.2,0.15,0.12,0.1,0.08,0.06,0.05,0.04,0.03,"
          "0.025,0.02,0.015,0.012,0.01,0.008,0.006,0.005,0.004,0.003,0.002,0.0015")


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv(text: str):
    return [[_value(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def _words(line: str):
    return [_value(word.rstrip(",")) for word in line.split()]


def test_sweep_matches_committed_output(capsys):
    assert main(["sweep", "--grid", "0.01:5:48"]) == 0
    got = _csv(capsys.readouterr().out)
    assert_close_json(got, _csv((DATA / "sweep_0.01-5-48.csv").read_text()))


def test_saturate_two_qutrits_matches_committed_output(capsys):
    model = str(DATA / "saturate_qutrit_model.json")
    assert main(["saturate", "--model", model, "--gammas", GAMMAS]) == 0
    got = _csv(capsys.readouterr().out)
    assert_close_json(got, _csv((DATA / "saturate_qutrit_24.csv").read_text()))


def test_perturb_matches_committed_output(tmp_path, capsys):
    out = tmp_path / "trials.jsonl"
    assert main(["perturb", "--trials", "24", "--seed", "7", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert_close_json(_words(summary), _words((DATA / "perturb_24_seed7.txt").read_text()))
    got = [json.loads(line) for line in out.read_text().splitlines()]
    want = [json.loads(line) for line in (DATA / "perturb_24_seed7.jsonl").read_text().splitlines()]
    assert_close_json(got, want)
