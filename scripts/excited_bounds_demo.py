#!/usr/bin/env python3
"""Excited-state entanglement bounds in and out of the weak-coupling regime.

First tabulates all four eigenstates of the two-spin transverse Ising model
at a few field strengths; then draws random weakly coupled three-qubit
chains and reports how often each eigenstate's bound applies and how tight
it is.
"""

import argparse

import numpy as np

from frustra.bounds import EntanglementOptions, analyze_excited
from frustra.models import ising2, split
from frustra.verify import random_weak_chain


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=int, default=20, help="random chains to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    opts = EntanglementOptions(restarts=8)

    print("two-spin transverse Ising, all eigenstates")
    print(f"{'g':>5} {'j':>2} {'E_j':>9} {'entanglement':>13} {'bound':>10} {'applies':>8}")
    for g in (0.5, 1.0, 2.0, 4.0):
        for j, r in enumerate(analyze_excited(split(ising2(g)), range(4), opts)):
            bound = f"{r.bound_29:.6f}" if r.bound_29 is not None else "-"
            print(f"{g:5.1f} {j:2d} {r.E_j:9.4f} {r.entanglement:13.8f} "
                  f"{bound:>10} {str(r.precondition_met):>8}")

    print(f"\n{args.models} random weakly coupled three-qubit chains")
    applicable = 0
    total = 0
    worst_ratio = 0.0
    for i in range(args.models):
        model = random_weak_chain(np.random.default_rng([args.seed, i]))
        for r in analyze_excited(split(model), range(8), opts):
            total += 1
            if r.precondition_met and r.bound_29 is not None:
                applicable += 1
                if r.bound_29 > 0:
                    worst_ratio = max(worst_ratio, r.entanglement / r.bound_29)
    print(f"bound applicable for {applicable}/{total} eigenstates; "
          f"worst entanglement/bound ratio {worst_ratio:.3f}")


if __name__ == "__main__":
    main()
