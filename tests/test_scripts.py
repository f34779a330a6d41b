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


def test_readme_library_example_runs():
    """The python block under the README's Library heading runs as written, RuntimeWarnings raised as errors."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "analyze_ground" in block
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
