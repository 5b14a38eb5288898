#!/usr/bin/env python3
"""Finite-volume criterion values over an L sweep.

At lam = 0 the run is deterministic; with disorder the boundary sum is a
Monte Carlo average.  The criterion value B_s L^4 lam^{-2s} sum E|R|^s has a
polynomial-vs-exponential turnover in L; margins improve only past it.
"""

import argparse

from lifshitzlab import anderson as am
from lifshitzlab import selfenergy as se


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--energy", type=float, default=0.85)
    parser.add_argument("--s", type=float, default=0.24)
    parser.add_argument("--b", type=float, default=0.5)
    parser.add_argument("--sweep", default="13,16,19,22,25")
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ctx = se.solve_self_energy(args.energy, args.lam)
    print(f"lam = {ctx.lam}, E = {ctx.energy}, E* = {ctx.estar:.6g}, "
          f"s = {args.s}, b = {args.b}")
    print(f"{'L':>4} {'value':>12} {'stderr':>10} {'margin':>12} {'passes':>7}")
    for L in (int(t) for t in args.sweep.split(",")):
        res = am.finite_volume_criterion(L, ctx, s=args.s, b=args.b,
                                         samples=args.samples, seed=args.seed)
        print(f"{L:4d} {res.value:12.4e} {res.stderr:10.2e} "
              f"{res.margin:12.4e} {str(res.passes):>7}")


if __name__ == "__main__":
    main()
