#!/usr/bin/env python3
"""Sweep the self-energy fixed point across the admissible window.

Prints (E, E*, sigma, residual) rows for a few couplings and reports the
fitted lower bound c in E* >= c lam^(4-eps) at the window edge.
"""

import argparse
import sys

import numpy as np

from lifshitzlab import selfenergy as se


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--couplings", default="0.05,0.1,0.2")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--count", type=int, default=12)
    args = parser.parse_args()

    print(f"I1(0) = {se.i1_zero():.9f}  (closed form {se.watson_constant():.9f})")
    edge_ratios = []
    for lam in (float(t) for t in args.couplings.split(",")):
        lo = se.threshold_E_eps(lam, args.epsilon)
        hi = lam**2 * se.i1_zero() + lam
        if hi < lo:
            sys.exit(f"empty window at lam={lam:g}, eps={args.epsilon:g}: its upper "
                     f"edge lam^2 I1(0) + lam = {hi:g} lies below E_eps = {lo:g}")
        print(f"\nlam = {lam}: window [{lo:.6g}, {hi:.6g}]")
        print(f"{'E':>12} {'E*':>12} {'sigma':>12} {'residual':>10}")
        for energy in np.linspace(lo, hi, args.count):
            ctx = se.solve_self_energy(float(energy), lam, epsilon=args.epsilon)
            print(f"{energy:12.6g} {ctx.estar:12.6g} {ctx.sigma:12.6g} "
                  f"{ctx.residual():10.2e}")
        edge = se.solve_self_energy(lo, lam, epsilon=args.epsilon)
        edge_ratios.append(edge.estar / lam ** (4.0 - args.epsilon))
    print(f"\nfitted c in E* >= c lam^(4-eps) at the window edge: "
          f"{min(edge_ratios):.4f}")


if __name__ == "__main__":
    main()
