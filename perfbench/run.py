#!/usr/bin/env python3
"""Benchmark of lifshitzlab: verified-study throughput per workload.

    python3 perfbench/run.py --workload disorder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from its
`src/`).  One process runs the workload's studies back to back in a closed
loop, one pass after another, until `--seconds` have passed; every study
checks its result against an oracle.  With `--trace 0` it reports the
end-to-end metrics: set-up time (median of fresh-interpreter set-ups), the
median pass time at a reference host speed (see `hostprobe.py`) and the peak
resident memory.  With `--trace 1` it alternates untraced and traced
passes and reports the per-layer metrics (calls, self time and work counts
per pass, per-study throughput from the untraced passes, and the tracing
overhead); the spans are written to `.perfbench_out/`.  `--smoke` runs the
tiny input sizes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted` and `failed` (oracle checks) and `metrics`.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# BLAS threads are capped below nproc (2 on the reference machine) so that
# numbers do not depend on what else the machine runs; the cap is recorded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
WORKLOADS = ("disorder", "spectral", "perturbative")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny input sizes")
    p.add_argument("--setup-probe", action="store_true",
                   help="(internal) set up once, print the set-up time, exit")
    return p.parse_args(argv)


def environment(seed):
    import numpy
    import scipy

    def blas_version(config):
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas_version(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git": git,
        "seed": seed,
    }


def probe_setup(args):
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_pass(studies, checks, tracer=None, probe=None):
    """Run every study once.

    Returns (seconds in studies, {study: (seconds, units)}, probe seconds);
    with a `probe`, it runs before every study and its time is not counted
    in the studies' time.
    """
    done = {}
    probe_s = 0.0
    for study in studies:
        if probe:
            probe_s += probe()
        if tracer:
            tracer.open(f"study.{study.name}")
        ts = time.perf_counter()
        try:
            units = study.run(checks)
        except Exception as exc:  # a raising study is a failed check; keep going
            traceback.print_exc()
            checks.expect(f"{study.name} completes", False, repr(exc))
            units = 0
        finally:
            if tracer:
                tracer.close()
        done[study.name] = (time.perf_counter() - ts, units)
    return sum(secs for secs, _ in done.values()), done, probe_s


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lifshitzlab", "__init__.py")):
        print(f"no lifshitzlab sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    import studies as st  # imports numpy, scipy and lifshitzlab: part of set-up
    import hostprobe as hp

    checks = st.Checks()
    workload, i1_cold_s = st.setup(args.workload, args.seed,
                                   "smoke" if args.smoke else "full", ROOT,
                                   workdir, checks)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env = environment(args.seed)
    print("environment " + json.dumps(env), flush=True)

    if args.trace:
        import spans as tr
        untraced, traced, tracers = [], [], []
        t_loop = time.perf_counter()
        while (not untraced or not traced
               or time.perf_counter() - t_loop < args.seconds):
            if len(untraced) <= len(traced):
                untraced.append(run_pass(workload, checks))
            else:
                tracer = tr.Tracer()
                tracer.install()
                try:
                    traced.append(run_pass(workload, checks, tracer))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
        layers = [t.layer_metrics() for t in tracers]
        metrics = {name: (statistics.median(m[name] for m in layers), unit)
                   for name, unit in tr.per_layer_names().items()}
        metrics["selfenergy.i1_zero.cold_s"] = (i1_cold_s, "s")
        feeds = {s.metric: s.name for s in workload if s.metric}
        for name in st.THROUGHPUTS:
            rates = [done[feeds[name]][1] / done[feeds[name]][0]
                     for _, done, _ in untraced] if name in feeds else [0.0]
            metrics[name] = (statistics.median(rates), "1/s")
        overhead = (statistics.median(w for w, _, _ in traced)
                    / statistics.median(w for w, _, _ in untraced) - 1.0)
        metrics["trace_overhead_frac"] = (overhead, "ratio")
        passes = untraced
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump({"environment": env, "columns": ["name", "start", "end", "parent"],
                       "passes": [t.spans for t in tracers]}, fh)
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        probe = hp.HostProbe()
        passes = []
        t_loop = time.perf_counter()
        while not passes or time.perf_counter() - t_loop < args.seconds:
            passes.append(run_pass(workload, checks, probe=probe))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [w for w, _, _ in passes]
        probes = [p / len(workload) for _, _, p in passes]
        scaled = [w * hp.HostProbe.REF_S / p for w, p in zip(walls, probes)]
        print(f"over {len(passes)} passes: pass wall time median "
              f"{statistics.median(walls):.4f} s (fastest {min(walls):.4f}, slowest "
              f"{max(walls):.4f}); probe median {statistics.median(probes):.4f} s; "
              f"pass time at reference speed median {statistics.median(scaled):.4f} s")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    for study in workload:
        secs = statistics.median(done[study.name][0] for _, done, _ in passes)
        units = passes[0][1][study.name][1]
        print(f"study {study.name}: {units} {study.unit} in {secs:.4f} s "
              f"(median of {len(passes)} passes)")
    for failure in checks.failures:
        print(f"CHECK FAILED {failure}")
    print(f"checks: {len(checks.failures)} failed of {checks.attempted}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
