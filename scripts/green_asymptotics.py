#!/usr/bin/env python3
"""Long-distance behavior of the free lattice Green function.

Fits the exponential decay rate and the 1/(2 pi (|x|+1)) prefactor along an
axis and compares the Bessel-integral route against the FFT oracle.
"""

import argparse
import sys

from lifshitzlab import green as gr
from lifshitzlab.errors import PeriodizationError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--estar", type=float, default=0.01)
    parser.add_argument("--rmin", type=int, default=20)
    parser.add_argument("--rmax", type=int, default=60)
    parser.add_argument("--fft-grid", type=int, default=0,
                        help="if > 0, cross-check against the FFT table")
    args = parser.parse_args()

    rep = gr.check_asymptotics(range(args.rmin, args.rmax + 1, 5), args.estar)
    print(f"E* = {rep.estar}")
    print(f"fitted rate {rep.fitted_rate:.6f} vs sqrt(2E*) = {rep.expected_rate:.6f} "
          f"(ratio {rep.rate_ratio:.4f})")
    print(f"prefactor ratios: {['%.4f' % r for r in rep.ratios]}")
    print(f"deviation envelope: c1 = {rep.c1:.3f}, c2 = {rep.c2:.3f}")
    print(f"fitted K in value <= K/(|x|+1): {rep.envelope_constant:.4f}")

    if args.fft_grid:
        # the largest radius whose periodization bound the FFT table accepts
        for radius in range(min(args.rmax, args.fft_grid // 4), -1, -1):
            try:
                table_f = gr.green_free_fft(args.fft_grid, args.estar, radius=radius)
                break
            except PeriodizationError as exc:
                failure = exc
        else:
            sys.exit(f"no FFT cross-check on grid {args.fft_grid}: {failure}")
        worst = 0.0
        for r in range(0, radius + 1, max(radius // 8, 1)):
            worst = max(worst, abs(table_f.value((r, 0, 0))
                                   - gr.green_free((r, 0, 0), args.estar)))
        print(f"max |bessel - fft| on the axis up to {radius}: {worst:.3e}")


if __name__ == "__main__":
    main()
