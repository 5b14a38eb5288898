#!/usr/bin/env python3
"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/report.py --seed 1 --seconds 30            # end to end
    python3 perfbench/report.py --seed 1 --seconds 30 --trace 1  # per layer
    python3 perfbench/report.py --smoke                          # tiny sizes, both

Run from the root of a source checkout.  The check line of each workload
gives failed checks over checks attempted (the check failure fraction with
its base).  Exits 1 if any workload fails a check or does not finish.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("disorder", "spectral", "perturbative")


def run(workload, seed, seconds, trace, smoke):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one pass, untraced and traced")
    args = p.parse_args()
    modes = (0, 1) if args.smoke else (args.trace,)
    seconds = 0 if args.smoke else args.seconds
    ok = True
    for workload in WORKLOADS:
        for trace in modes:
            res = run(workload, args.seed, seconds, trace, args.smoke)
            print(f"{workload} (trace {trace})")
            if res is None:
                print("  did not finish")
                ok = False
                continue
            frac = res["failed"] / res["attempted"]
            print(f"  checks: {res['failed']} failed of {res['attempted']} "
                  f"(check_fail_frac {frac:g}), correct: {res['correct']}")
            ok &= res["correct"]
            for name, m in res["metrics"].items():
                print(f"  {name:50s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
