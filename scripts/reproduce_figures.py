#!/usr/bin/env python3
"""Regenerate the transverse-Ising comparison data.

Writes two CSV files into --outdir (default: .), each through the CLI, so
they match `frustra sweep` and `frustra saturate` byte for byte:

* ising_sweep.csv      entanglement and both frustration bounds against the
                       closed forms, over the standard field grid
* ising_saturation.csv Schmidt-splitting gamma sweep at g = 1

and prints the worst deviations as a quick regression check.
"""

import argparse
import csv
import pathlib
import sys

from frustra.cli import main as frustra


def run(*argv) -> list[dict]:
    """Run one subcommand whose last two arguments are --out PATH; return its CSV rows."""
    code = frustra(list(argv))
    if code:
        sys.exit(code)
    with open(argv[-1], newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=".", help="directory for the CSV files")
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--g", type=float, default=1.0, help="field for the gamma sweep")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    sweep_path = outdir / "ising_sweep.csv"
    rows = run("sweep", "--grid", f"0.01:5:{args.points}", "--out", str(sweep_path))
    print(f"wrote {sweep_path} ({len(rows)} rows)")
    for label, column in (("entanglement", "dev_entanglement"),
                          ("sym bound   ", "dev_ef_symmetric"),
                          ("asym bound  ", "dev_ef_asymmetric")):
        worst = max(float(r[column]) for r in rows)
        print(f"  max |{label} - closed form| : {worst:.3e}")

    sat_path = outdir / "ising_saturation.csv"
    records = run("saturate", "--model", "ising2", "--param", f"g={args.g!r}",
                  "--gammas", "1e-1,1e-2,1e-3", "--out", str(sat_path))
    print(f"wrote {sat_path}")
    for r in records:
        print(f"  gamma={float(r['gamma']):g}: bound-entanglement excess = {float(r['excess']):.3e}")


if __name__ == "__main__":
    main()
