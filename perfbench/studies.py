"""The benchmark's three workloads: studies, their input sizes and oracle checks.

Each workload is a list of studies run back to back in one process.  A study
runs one acceptance computation at a stated input size, checks its result
against an independent oracle or an exact identity, and returns the number of
work units it completed.  `setup` does everything a user pays once per
session: imports, energy contexts, the cold I1(0) Richardson ladder and the
first sparse factorisation.

Why these workloads:

* `disorder` holds every resolvent solve (sparse LU for the fractional
  moments, matrix-free CG for the criterion) and never touches `green` or
  `diagrams`.
* `spectral` is dominated by the per-point Bessel quadrature in
  `green.green_free` and has no disorder and no sparse algebra.
* `perturbative` is the only workload using `diagrams` and `graphvalues`, and
  the only one where memory binds (the dense l = 2 `gmat` at b = 8).

All randomness comes from the workload seed, passed to the library's `seed=`
arguments; `spectral` is deterministic and ignores it.
"""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from lifshitzlab import anderson as am
from lifshitzlab import cli
from lifshitzlab import diagrams as dg
from lifshitzlab import expansion as ex
from lifshitzlab import graphvalues as gv
from lifshitzlab import green as gr
from lifshitzlab import selfenergy as se
from lifshitzlab.density import DensitySpec

# The MC comparisons gate on |z| <= 5, not the acceptance suite's 3: that
# suite fixes its seeds, while the benchmark draws a new seed per run, and the
# l=2, b=5 z is heavier-tailed than normal (3 of 150 seeds beyond 3, the
# largest 3.7).  Dropping the quartic-cumulant block still gives |z| > 7.
# Every z is printed, so excursions past 3 stay visible.
Z_GATE = 5.0

# Input sizes.  "full" is what the timed and traced runs measure; "smoke" is
# the tiny configuration that checks the harness end to end in seconds.
SIZES = {
    "full": {
        "fracmom12_samples": 8, "fracmom18_samples": 2, "criterion_samples": 2,
        "selfenergy_count": 20, "green_radius": 12, "decay_distances": (4, 6, 8),
        "mc_b5_samples": 10_000, "mc_small_estar_samples": 500,
        "mc_small_estar_radius": 8, "decomposition_potentials": 3, "census_nmax": 4,
        "scaling_samples": 400_000, "torus_samples": 50_000,
        "diagram_value_samples": 50_000,
    },
    "smoke": {
        "fracmom12_samples": 2, "fracmom18_samples": 1, "criterion_samples": 1,
        "selfenergy_count": 4, "green_radius": 6, "decay_distances": (2, 3, 4),
        "mc_b5_samples": 2_000, "mc_small_estar_samples": 100,
        "mc_small_estar_radius": 6, "decomposition_potentials": 1, "census_nmax": 3,
        "scaling_samples": 40_000, "torus_samples": 5_000,
        "diagram_value_samples": 5_000,
    },
}


@dataclass
class Checks:
    """Oracle checks attempted in a run, and the ones that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


@dataclass
class Study:
    """One verified computation; `run(checks)` returns the work units done."""

    name: str
    unit: str
    run: Callable
    metric: str = None   # throughput metric fed by this study, if any


def _rel(a, b):
    return abs(a - b) / abs(b)


def _run_cli(argv, checks, outdir):
    os.makedirs(outdir, exist_ok=True)
    code = cli.main([*argv, "--out", outdir])
    checks.expect(f"cli {argv[0]} exit code", code == 0, f"exit {code}")
    return code == 0


def _context_at_estar(lam, estar):
    """EnergyContext pinned at (lam, E*), as the acceptance suite builds it."""
    sigma = lam**2 * se.torus_integral_I1(estar)
    return se.EnergyContext(lam=lam, energy=estar + sigma, estar=estar, sigma=sigma)


def _cocg_moments(box, ctx, s, pairs, samples, etas, seed):
    """E|R(x,y)|^s by matrix-free COCG on the stencil: the resolvent oracle.

    Shares no code with the library's solvers: the operator is
    -Delta/2 + lam V + E + i eta with Dirichlet edges, applied by slicing,
    and conjugate-orthogonal CG solves the complex symmetric system.
    """
    side = box.side
    out = np.zeros((len(etas), len(pairs)))
    for index in range(samples):
        pot = ctx.lam * am.sample_potential(box, DensitySpec(), seed, index)
        pot = pot.reshape((side,) * 3)
        for ieta, eta in enumerate(etas):
            diag = 3.0 + ctx.energy + 1j * eta + pot
            cols = {}
            for ipair, (x, y) in enumerate(pairs):
                if y not in cols:
                    cols[y] = _cocg(diag, box.index(y))
                out[ieta, ipair] += abs(cols[y][box.index(x)]) ** s / samples
    return out


def _cocg(diag, rhs_index, tol=1e-13, maxit=2000):
    def apply(v):
        w = diag * v
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis], hi[axis] = slice(None, -1), slice(1, None)
            w[tuple(hi)] -= 0.5 * v[tuple(lo)]
            w[tuple(lo)] -= 0.5 * v[tuple(hi)]
        return w

    b = np.zeros(diag.shape, dtype=complex)
    b.ravel()[rhs_index] = 1.0
    x, r = np.zeros_like(b), b.copy()
    p, rho = r.copy(), np.sum(r * r)
    for _ in range(maxit):
        q = apply(p)
        alpha = rho / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) < tol:
            return x.ravel()
        rho, rho_old = np.sum(r * r), rho
        p = r + (rho / rho_old) * p
    raise RuntimeError("COCG oracle did not converge")


def _check_moments(name, est, oracle, checks):
    dev = float(np.max(np.abs(est.estimates - oracle) / oracle))
    checks.expect(f"{name} vs COCG oracle", dev <= 1e-8, f"max rel {dev:.2e}")


def _check_contexts(contexts, checks):
    for name, ctx in contexts.items():
        res = ctx.residual()
        checks.expect(f"self-energy residual {name}", res < 1e-10, f"{res:.2e}")


def _disorder(seed, size, root, outdir, checks):
    ctx12 = se.solve_self_energy(0.45, 0.5)
    ctx18 = {e: se.solve_self_energy(se.energy_of_estar(e, 0.3), 0.3)
             for e in (0.4, 0.2, 0.1)}
    ctx12b = se.solve_self_energy(0.85, 0.5)
    ctx_free = se.solve_self_energy(0.3, 0.0)
    _check_contexts({"box12": ctx12, "criterion": ctx12b,
                     **{f"box18 E*={e}": c for e, c in ctx18.items()}}, checks)
    box12, box18 = am.Box(side=12), am.Box(side=18)
    # first sparse factorisation, paid once per session
    am.fractional_moment(box12, ctx12, 0.3, [((2, 0, 0), (0, 0, 0))], samples=1,
                         seed=seed)

    def fracmom12(checks):
        n = size["fracmom12_samples"]
        est = am.fractional_moment(box12, ctx12, 0.3, [((2, 0, 0), (0, 0, 0))],
                                   samples=n, seed=seed)
        _check_moments("fracmom12", est, _cocg_moments(
            box12, ctx12, 0.3, est.pairs, n, est.eta_schedule, seed), checks)
        var = est.eta_variation(0)
        checks.expect("fracmom12 eta stability", var < 0.2, f"variation {var:.3g}")
        return n

    dists = (2, 3, 4, 6)

    def fracmom18(checks):
        n = size["fracmom18_samples"]
        for estar, ctx in ctx18.items():
            est = am.fractional_moment(box18, ctx, 0.3,
                                       [((d, 0, 0), (0, 0, 0)) for d in dists],
                                       samples=n, eta_schedule=(1e-3,), seed=seed)
            _check_moments(f"fracmom18 E*={estar}", est, _cocg_moments(
                box18, ctx, 0.3, est.pairs, n, est.eta_schedule, seed), checks)
            m = est.estimates[0]
            checks.expect(f"fracmom18 decay E*={estar}",
                          bool(np.all(m > 0) and np.all(np.diff(m) < 0)),
                          f"moments {m.tolist()}")
        return n * len(ctx18)

    sweep = (19, 22, 25)

    def criterion(checks):
        n = size["criterion_samples"]
        margins = [am.finite_volume_criterion(L, ctx12b, s=0.24, b=0.5, B_s=1.0,
                                              samples=n, seed=seed).margin
                   for L in sweep]
        checks.expect("criterion margin improves with L",
                      margins[0] < margins[1] < margins[2], f"margins {margins}")
        return n * len(sweep)

    def criterion_cli(checks):
        out = os.path.join(outdir, "criterion")
        if _run_cli(["criterion", "--boxl", "7", "--lam", "0", "--estar", "0.3",
                     "--s", "0.2", "--seed", str(seed)], checks, out):
            with open(os.path.join(out, "criterion.json")) as fh:
                value = json.load(fh)["value"]
            direct = am.finite_volume_criterion(7, ctx_free, s=0.2).value
            checks.expect("cli criterion matches library", _rel(value, direct) < 1e-12,
                          f"{value!r} vs {direct!r}")
        return 1

    return [
        Study("fracmom12", "samples", fracmom12, "fracmom12_samples_per_s"),
        Study("fracmom18", "samples", fracmom18, "fracmom18_samples_per_s"),
        Study("criterion", "samples", criterion, "criterion_samples_per_s"),
        Study("criterion_cli", "commands", criterion_cli),
    ]


def _wedge_points(radius):
    return [(a, b, c) for a in range(radius + 1) for b in range(a, radius + 1)
            for c in range(b, radius + 1) if a * a + b * b + c * c <= radius * radius]


def _spectral(seed, size, root, outdir, checks):
    ctx_sigma = se.solve_self_energy(se.energy_of_estar(0.05, 0.1), 0.1)
    ctx_decay = _context_at_estar(0.5, 0.05)
    _check_contexts({"sigma identity": ctx_sigma, "decay": ctx_decay}, checks)
    radius = size["green_radius"]
    wedge = _wedge_points(radius)
    tables = {}

    def selfenergy(checks):
        count = size["selfenergy_count"]
        for lam in (0.05, 0.1, 0.2):
            out = os.path.join(outdir, f"selfenergy-{lam}")
            if _run_cli(["selfenergy", "--lam", str(lam), "--epsilon", "1",
                         "--count", str(count)], checks, out):
                with open(os.path.join(out, "selfenergy.csv")) as fh:
                    rows = fh.read().splitlines()[1:]
                worst = max(float(r.split(",")[3]) for r in rows)
                checks.expect(f"self-energy residual lam={lam}",
                              len(rows) == count and worst < 1e-10,
                              f"{len(rows)} rows, worst residual {worst:.2e}")
        return 3 * count

    def watson(checks):
        val = se.torus_integral_I1(0.0)
        closed = se.watson_constant()
        checks.expect("I1(0) vs Watson", abs(val - closed) <= 1e-7
                      and abs(val - 0.5054620) <= 1e-5, f"{val!r} vs {closed!r}")
        return 1

    def green_tables(checks):
        for estar in (0.05, 0.5):
            tables[estar] = gr.green_table_bessel(estar, radius=radius)
        return 2 * len(wedge)

    def green_fft_oracle(checks):
        for estar, bessel in tables.items():
            fft = gr.green_free_fft(256, estar, radius=radius)
            worst = max(abs(bessel.value(x) - fft.value(x)) for x in wedge)
            checks.expect(f"bessel vs fft-256 E*={estar}", worst <= 1e-8,
                          f"max |diff| {worst:.2e}")
        dev = _rel(ctx_sigma.lam**2 * gr.green_free((0, 0, 0), ctx_sigma.estar),
                   ctx_sigma.sigma)
        checks.expect("sigma = lam^2 G(0)", dev <= 1e-8, f"rel {dev:.2e}")
        return 2

    def asymptotics(checks):
        distances = range(20, 61, 5)
        rep = gr.check_asymptotics(distances, 0.01)
        checks.expect("green asymptotics", abs(rep.rate_ratio - 1.0) <= 0.05
                      and all(0.8 <= r <= 1.2 for r in rep.ratios),
                      f"rate ratio {rep.rate_ratio:.4f}, ratios {rep.ratios}")
        return len(distances)

    def decay_envelope(checks):
        rep = ex.check_decay_envelope(1, ctx_decay, size["decay_distances"],
                                      box_margin=4)
        checks.expect("decay envelope l=1 holds", rep.holds,
                      f"rate {rep.fitted_rate:.4f} vs envelope {rep.envelope_rate:.4f}")
        return len(rep.distances)

    def green_cli(checks):
        out = os.path.join(outdir, "green")
        if _run_cli(["green", "--estar", "0.05", "--radius", str(radius),
                     "--method", "fft", "--grid", "128"], checks, out):
            table = gr.read_table_csv(os.path.join(out, "green_table.csv"))
            worst = max(abs(table.value(x) - tables[0.05].value(x)) for x in wedge)
            checks.expect("cli green fft-128 vs bessel", worst <= 1e-8,
                          f"max |diff| {worst:.2e}")
        return 1

    return [
        Study("selfenergy", "solves", selfenergy, "selfenergy_solves_per_s"),
        Study("watson", "integrals", watson),
        Study("green_tables", "points", green_tables, "green_points_per_s"),
        Study("green_fft_oracle", "tables", green_fft_oracle),
        Study("asymptotics", "points", asymptotics),
        Study("decay_envelope", "distances", decay_envelope),
        Study("green_cli", "commands", green_cli),
    ]


def _perturbative(seed, size, root, outdir, checks):
    ctx45 = se.solve_self_energy(se.energy_of_estar(0.45, 0.5), 0.5)
    ctx01 = se.solve_self_energy(se.energy_of_estar(0.1, 0.3), 0.3)
    ctx_identity = _context_at_estar(0.5, 0.5)
    _check_contexts({"E*=0.45": ctx45, "E*=0.1": ctx01}, checks)
    box8 = am.Box(side=8)
    # first sparse factorisation, paid once per session
    ex.evaluate_decomposition(box8, np.zeros(box8.n_sites), ctx_identity,
                              (0, 0, 0), (1, 1, 1), 1)
    origin, step = (0, 0, 0), (1, 0, 0)

    def z_check(name, cmp):
        z = cmp.z_score
        print(f"  {name}: z = {z:+.3f}")
        checks.expect(f"{name} |z| <= {Z_GATE:g}", abs(z) <= Z_GATE, f"z = {z:+.3f}")

    def moment_mc_b5(checks):
        n = size["mc_b5_samples"]
        for order in (1, 2):
            z_check(f"tadpole cancellation l={order} b=5",
                    ex.mc_moment_Al_squared(order, ctx45, origin, step, samples=n,
                                            box_radius=5, seed=seed))
        return 2 * n

    def moment_mc_small_estar(checks):
        n = size["mc_small_estar_samples"]
        b = size["mc_small_estar_radius"]
        z_check(f"tadpole cancellation l=2 E*=0.1 b={b}",
                ex.mc_moment_Al_squared(2, ctx01, origin, step, samples=n,
                                        box_radius=b, seed=seed))
        return n

    def decomposition(checks):
        count = size["decomposition_potentials"]
        worst = 0.0
        for index in range(count):
            pot = am.sample_potential(box8, DensitySpec(), seed=seed, index=index)
            for n_stop in (1, 2, 3):
                chk = ex.evaluate_decomposition(box8, pot, ctx_identity, origin,
                                                (1, 1, 1), n_stop)
                worst = max(worst, chk.residual)
        checks.expect("decomposition identity", worst < 1e-9, f"residual {worst:.2e}")
        return 3 * count

    def census(checks):
        records = 0
        for n in range(2, size["census_nmax"] + 1):
            broken, divergent, improper = 0, 0, 0
            for part in dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True):
                graph = dg.build_feynman_graph(part)
                rep = dg.classify_superficial_convergence(graph)
                records += len(rep.records)
                broken += sum(r.loops + r.n_vertices - 1 != r.internal
                              or r.div > 4 - r.external - r.loops for r in rep.records)
                if not part.has_gate:
                    divergent += not rep.superficially_convergent
                    improper += sum(not dg.is_graph_F(graph, r.edges)
                                    for r in rep.proper_div_nonnegative(graph))
            checks.expect(f"census n={n} counting identities", broken == 0,
                          f"{broken} records break them")
            checks.expect(f"census n={n} gate-free convergence",
                          divergent == 0 and improper == 0,
                          f"{divergent} divergent graphs, {improper} non-F subgraphs")
        gate = dg.build_feynman_graph(dg.Partition(
            dg.IndexSet(2, 2), frozenset({frozenset({1, 2}), frozenset({4, 5})})))
        tadpole = dg.divergence_degree(gate, [gate.zero_loops[0]])[0]
        checks.expect("tadpole div = 1", tadpole == 1, f"div {tadpole}")
        return records

    def graph_mc(checks):
        graph = dg.build_feynman_graph(dg.enumerate_partitions(
            dg.IndexSet(2, 2), pairings_only=True, gate_free=True)[0])
        # Common random numbers: both energies reuse one stream, so the exact
        # n = 2 scaling value(E*) = value(2 E*) must hold to rounding.  Two
        # independent streams would give a z-test, but this estimator's
        # stderr understates its spread (z has sd ~1.4 over seeds).
        n = size["scaling_samples"]
        v1 = gv.continuum_pairing_integral(graph, 0.2, gv.MCParams(n, seed, "scaling"))
        v2 = gv.continuum_pairing_integral(graph, 0.4, gv.MCParams(n, seed, "scaling"))
        checks.expect("continuum scaling E*^(1-n/2), n=2", _rel(v1.value, v2.value) < 1e-9,
                      f"{v1.value!r} vs {v2.value!r}")
        nt = size["torus_samples"]
        torus = gv.torus_pairing_integral(graph, 0.2, gv.MCParams(nt, seed, "torus"))
        checks.expect("torus pairing integral positive", torus.value > 0,
                      f"{torus.value!r}")
        nv = size["diagram_value_samples"]
        out = os.path.join(outdir, "diagram-value")
        graphs = 0
        if _run_cli(["diagram-value", "--n", "2", "--samples", str(nv),
                     "--seed", str(seed)], checks, out):
            with open(os.path.join(out, "diagram_values.csv"), newline="") as fh:
                values = [float(row["value"]) for row in csv.DictReader(fh)]
            graphs = len(values)
            checks.expect("cli diagram-value finite positive",
                          graphs > 0 and all(0 < v < math.inf for v in values),
                          f"values {values}")
        return 2 * n + nt + graphs * nv

    def stopping_rule(checks):
        verified = 0
        for lam in (1e-4, 3e-4, 1e-3):
            for estar in (0.3, 0.5, 0.9):
                ba = gv.assemble_An_bound(1, lam, estar)
                if ba.ratio <= math.exp(-8.0):
                    verified += gv.stopping_rule_holds_exact(ba.ratio, ba.chosen_N)
        checks.expect("stopping rule exact", verified >= 6, f"{verified} verified")
        return verified

    golden = os.path.join(root, "tests", "data", "terms_N2_golden.txt")

    def expansion_cli(checks):
        out = os.path.join(outdir, "expand-verify")
        if _run_cli(["expand-verify", "--N", "2", "--box", "8", "--lambda", "0.5",
                     "--seed", str(seed)], checks, out):
            with open(os.path.join(out, "expand_verify.json")) as fh:
                worst = max(r["residual"] for r in json.load(fh)["residuals"].values())
            checks.expect("cli expand-verify residual", worst < 1e-9, f"{worst:.2e}")
            with open(os.path.join(out, "expansion_terms.txt")) as fh, \
                    open(golden) as gh:
                checks.expect("cli N=2 term table matches golden file",
                              fh.read() == gh.read())
        if _run_cli(["diagrams", "--n", "3", "--gate-free"], checks,
                    os.path.join(outdir, "diagrams")):
            with open(os.path.join(outdir, "diagrams", "diagram_census.json")) as fh:
                census_n3 = json.load(fh)["census"]
            checks.expect("cli diagrams n=3 all convergent",
                          all(e["superficially_convergent"] for e in census_n3))
        return 2

    return [
        Study("moment_mc_b5", "samples", moment_mc_b5),
        Study("moment_mc_small_estar", "samples", moment_mc_small_estar,
              "moment_mc_samples_per_s"),
        Study("decomposition", "identities", decomposition),
        Study("census", "subgraphs", census, "census_subgraphs_per_s"),
        Study("graph_mc", "samples", graph_mc, "graph_mc_samples_per_s"),
        Study("stopping_rule", "grid points", stopping_rule),
        Study("expansion_cli", "commands", expansion_cli),
    ]


WORKLOADS = {"disorder": _disorder, "spectral": _spectral,
             "perturbative": _perturbative}

# Throughput metrics, one per study that feeds one.
THROUGHPUTS = ("fracmom12_samples_per_s", "fracmom18_samples_per_s",
               "criterion_samples_per_s", "green_points_per_s",
               "selfenergy_solves_per_s", "moment_mc_samples_per_s",
               "census_subgraphs_per_s", "graph_mc_samples_per_s")


def setup(workload, seed, size_name, root, outdir, checks):
    """Contexts and warm-up of `workload`; returns (studies, cold I1(0) seconds)."""
    t0 = time.perf_counter()
    se.i1_zero()
    i1_cold_s = time.perf_counter() - t0
    studies = WORKLOADS[workload](seed, SIZES[size_name], root, outdir, checks)
    return studies, i1_cold_s
