import os
import pathlib
import subprocess
import sys

from frustra.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_reproduce_figures_matches_cli_bytes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"),
         "--points", "5", "--outdir", str(tmp_path / "figs")],
        check=True, env=env, capture_output=True,
    )
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", "0.01:5:5", "--out", str(sweep)]) == 0
    saturation = tmp_path / "saturation.csv"
    assert main(["saturate", "--model", "ising2", "--param", "g=1",
                 "--gammas", "1e-1,1e-2,1e-3", "--out", str(saturation)]) == 0
    assert (tmp_path / "figs" / "ising_sweep.csv").read_bytes() == sweep.read_bytes()
    assert (tmp_path / "figs" / "ising_saturation.csv").read_bytes() == saturation.read_bytes()
