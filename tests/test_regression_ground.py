"""Committed `analyze` outputs on the ground-tier path and on its fallback.

analyze_transverse_chain10.json is a 10-qubit transverse-field chain
(dimension 1024, like the ground-1024 benchmark), whose ground vector comes
from the certified Lanczos tier.  analyze_zz_chain6.json is a classical ZZ chain
(dimension 64, a two-fold ground level), which falls back to the full
decomposition.  Both were written by the full-decomposition solver that the
ground tier replaced.  Strings and bools must match exactly, floats
(amplitudes included) within 1e-12 * max(1, |v|).
"""

import json
from pathlib import Path

import pytest

from frustra.cli import main
from test_entanglement import assert_close_json

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["transverse_chain10", "zz_chain6"])
def test_analyze_matches_committed_output(capsys, name):
    assert main(["analyze", "--model", str(DATA / f"{name}_model.json")]) == 0
    got = json.loads(capsys.readouterr().out)
    assert_close_json(got, json.loads((DATA / f"analyze_{name}.json").read_text()))
