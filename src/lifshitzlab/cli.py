"""Command-line orchestration: validated configs, deterministic seeding, manifests.

Every run resolves its configuration from an optional key=value config file
plus command-line flags (flags win), validates it against the command's
schema (unknown keys are errors) and executes. Each runner only computes: it
returns its output files as writers plus the manifest notes, and `main` writes
the files and a manifest echoing the fully resolved config and its hash only
after every computation has succeeded, so a failed run leaves the output
directory as it was. Single-threaded runs are bit-reproducible functions of
the manifest.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import anderson as am
from . import diagrams as dg
from . import expansion as ex
from . import graphvalues as gv
from . import green as gr
from . import selfenergy as se
from .density import DensitySpec
from .errors import ConfigError, LifshitzLabError

ENV_OUTDIR = "LIFSHITZLAB_OUTDIR"


@dataclass
class Field:
    typ: type
    default: object = None
    required: bool = False
    help: str = ""


COMMON = {
    "out": Field(str, None, help="output directory (default $LIFSHITZLAB_OUTDIR or '.')"),
}

SCHEMAS = {
    "selfenergy": {
        **COMMON,
        "lam": Field(float, required=True, help="disorder coupling"),
        "epsilon": Field(float, 1.0, help="tail exponent in (0, 4)"),
        "count": Field(int, 20, help="number of energies across the window"),
    },
    "green": {
        **COMMON,
        "estar": Field(float, required=True),
        "radius": Field(int, 12, help="table radius"),
        "method": Field(str, "bessel", help="bessel | fft"),
        "grid": Field(int, 128, help="fft grid points per axis"),
        "asymptotics_min": Field(int, 0, help="if set, fit the axis decay over [min, max]"),
        "asymptotics_max": Field(int, 0, help="end of that range; needs 0 < min < max"),
    },
    "diagrams": {
        **COMMON,
        "n": Field(int, required=True, help="pairing order"),
        "gate_free": Field(bool, True),
    },
    "diagram-value": {
        **COMMON,
        "seed": Field(int, 0, help="64-bit root seed for all substreams"),
        "n": Field(int, required=True),
        "samples": Field(int, 100_000),
    },
    "expand-verify": {
        **COMMON,
        "seed": Field(int, 0, help="64-bit root seed for all substreams"),
        "order": Field(int, 2, help="stopping order N"),
        "box": Field(int, 8, help="box side"),
        "lam": Field(float, 0.5),
        "estar": Field(float, 0.5),
        "cancellation_samples": Field(int, 0, help="if > 0, run the l=1 moment MC"),
    },
    "fracmom": {
        **COMMON,
        "seed": Field(int, 0, help="64-bit root seed for all substreams"),
        "box": Field(int, 12),
        "lam": Field(float, 0.5),
        "energy": Field(float, required=True),
        "s": Field(float, 0.3),
        "distances": Field(str, "1,2,3,4", help="comma list of |x-y| along an axis"),
        "samples": Field(int, 200),
        "etas": Field(str, "1e-2,1e-3,1e-4"),
    },
    "criterion": {
        **COMMON,
        "seed": Field(int, 0, help="64-bit root seed for all substreams"),
        "boxl": Field(int, required=True, help="half-side L; the box has side 2L"),
        "lam": Field(float, 0.0),
        "energy": Field(float, 0.0, help="full energy E (0 means use estar directly)"),
        "estar": Field(float, 0.3),
        "s": Field(float, 0.2),
        "b": Field(float, 0.5),
        "bs": Field(float, 1.0),
        "samples": Field(int, 20),
    },
}


def _parse_value(raw: str, typ: type):
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {raw!r} as {typ.__name__}") from exc


def read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def resolve_config(command: str, file_values: dict, flag_values: dict) -> dict:
    schema = SCHEMAS[command]
    merged = {}
    for source in (file_values, flag_values):  # flags win
        for key, raw in source.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            merged[key] = raw
    resolved = {}
    for key, spec in schema.items():
        if key in merged:
            resolved[key] = _parse_value(merged[key], spec.typ)
        elif spec.required:
            raise ConfigError(f"missing required config key {key!r} for {command!r}")
        else:
            resolved[key] = spec.default
    if resolved.get("out") is None:
        resolved["out"] = os.environ.get(ENV_OUTDIR, ".")
    if os.path.exists(resolved["out"]) and not os.path.isdir(resolved["out"]):
        raise ConfigError(f"output path {resolved['out']!r} is not a directory")
    return resolved


@dataclass
class RunManifest:
    command: str
    config: dict
    outputs: list
    notes: dict
    started: float

    def config_hash(self) -> str:
        canon = json.dumps({"command": self.command, "config": self.config},
                           sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    def write(self, outdir: str):
        payload = {
            "command": self.command,
            "config": self.config,
            "config_sha256": self.config_hash(),
            "artifact_version": __version__,
            "started": self.started,
            "finished": time.time(),
            "outputs": self.outputs,
            "tolerances": {
                "torus_quadrature_rel": se.QUAD_TOL,
                "green_bessel_rel": gr.BESSEL_RELTOL,
                "resolvent_residual": am.RESIDUAL_TOL,
            },
            "notes": self.notes,
        }
        path = os.path.join(outdir, f"{self.command}_manifest.json")
        with open(path, "w") as fh:  # one string: json.dump writes chunk by chunk
            fh.write(json.dumps(payload, indent=1, sort_keys=True))
        return path


def _text(text):
    """Writer of `text` as given: no newline translation, so CSV keeps CRLF."""
    def write(path):
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return write


def _json(obj):
    return _text(json.dumps(obj, indent=1))


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return _text(buf.getvalue())


def run_selfenergy(cfg):
    lam, eps = cfg["lam"], cfg["epsilon"]
    if cfg["count"] < 1:
        raise ConfigError("count must be >= 1")
    if lam <= 0:
        raise ConfigError("lam must be > 0: at lam = 0 the window starts at E = 0, "
                          "where the self-energy equation has no solution")
    lo = se.threshold_E_eps(lam, eps)
    hi = lam**2 * se.i1_zero() + lam
    if hi < lo:
        raise ConfigError(f"empty window at lam={lam:g}, eps={eps:g}: its upper edge "
                          f"lam^2 I1(0) + lam = {hi:g} lies below E_eps = {lo:g}")
    rows = []
    for energy in np.linspace(lo, hi, cfg["count"]):
        ctx = se.solve_self_energy(float(energy), lam, epsilon=eps)
        rows.append([repr(float(energy)), repr(ctx.estar), repr(ctx.sigma),
                     repr(ctx.residual())])
    files = {"selfenergy.csv": _csv(["E", "estar", "sigma", "residual"], rows)}
    return files, {"window": [lo, hi], "i1_zero": se.i1_zero()}


def run_green(cfg):
    estar, radius = cfg["estar"], cfg["radius"]
    lo, hi = cfg["asymptotics_min"], cfg["asymptotics_max"]
    if (lo or hi) and not 0 < lo < hi:
        raise ConfigError(f"asymptotics range needs 0 < min < max, got [{lo}, {hi}]")
    if cfg["method"] == "fft":
        table = gr.green_free_fft(cfg["grid"], estar, radius=radius)
        notes = {"grid_size": table.grid_size, "symmetry_defect": table.symmetry_defect,
                 "periodization_bound": gr.periodization_bound(cfg["grid"], radius, estar)}
    elif cfg["method"] == "bessel":
        table = gr.green_table_bessel(estar, radius=radius)
        notes = {}
    else:
        raise ConfigError(f"unknown green method {cfg['method']!r}")
    files = {"green_table.csv": functools.partial(gr.write_table_csv, table)}
    notes["envelope_constant"] = table.fitted_envelope_constant()
    if hi:
        report = gr.check_asymptotics(range(lo, hi + 1, max((hi - lo) // 8, 1)), estar)
        files["green_asymptotics.json"] = _json(asdict(report))
    return files, notes


def run_diagrams(cfg):
    iset = dg.IndexSet(cfg["n"], cfg["n"])
    parts = dg.enumerate_partitions(iset, pairings_only=True,
                                    gate_free=cfg["gate_free"])
    entries = []
    for part in parts:
        graph = dg.build_feynman_graph(part)
        report = dg.classify_superficial_convergence(graph)
        full = report.records[-1]  # combinations order ends on the whole line set
        if full.edges != graph.edge_ids:
            raise ValueError(f"graph {graph.label()} is not connected")
        entries.append({
            "partition": part.label(),
            "superficially_convergent": report.superficially_convergent,
            "full_graph_div": full.div,
            "full_graph_l_div": full.l_div,
            "n_subgraphs": len(report.records),
            "divergent_subgraphs": [
                {"edges": list(r.edges), "div": r.div} for r in report.divergent_records
            ],
        })
    files = {"diagram_census.json": _json({
        "n": cfg["n"], "gate_free": cfg["gate_free"], "pairings": len(parts),
        "census": entries})}
    return files, {"all_superficially_convergent": all(
        e["superficially_convergent"] for e in entries)}


def run_diagram_value(cfg):
    iset = dg.IndexSet(cfg["n"], cfg["n"])
    parts = dg.enumerate_partitions(iset, pairings_only=True, gate_free=True)
    rows, values = [], []
    for i, part in enumerate(parts):
        graph = dg.build_feynman_graph(part)
        est = gv.graph_value(graph, gv.MCParams(samples=cfg["samples"],
                                                seed=cfg["seed"], stream=f"gv{i}"))
        rows.append([est.graph_id, cfg["n"], est.method, repr(est.value),
                     repr(est.stderr), est.samples, cfg["seed"]])
        values.append(est.value)
    files = {"diagram_values.csv": _csv(
        ["graph_id", "n", "method", "value", "stderr", "samples", "seed"], rows)}
    return files, {"fitted_K": max(values) ** (1.0 / cfg["n"]) if values else None}


def run_expand_verify(cfg):
    ctx = se.EnergyContext.from_estar(cfg["lam"], cfg["estar"])
    box = am.Box(side=cfg["box"])
    pot = am.sample_potential(box, DensitySpec(), cfg["seed"], 0)
    x = (0, 0, 0)
    y = (1, 1, 1)
    results = {}
    for n_stop in range(1, cfg["order"] + 1):
        chk = ex.evaluate_decomposition(box, pot, ctx, x, y, n_stop)
        results[n_stop] = {"residual": chk.residual,
                           "relative": chk.relative_residual}
    dec = ex.generate_terms(cfg["order"])
    out = {"context": {"lam": ctx.lam, "estar": ctx.estar, "sigma": ctx.sigma},
           "residuals": results}
    if cfg["cancellation_samples"] > 0:
        cmp1 = ex.mc_moment_Al_squared(1, ctx, (0, 0, 0), (1, 0, 0),
                                       samples=cfg["cancellation_samples"],
                                       box_radius=5, seed=cfg["seed"])
        out["cancellation_l1"] = {"mc": cmp1.mc_estimate, "stderr": cmp1.mc_stderr,
                                  "prediction": cmp1.prediction,
                                  "z": cmp1.z_score}
    files = {"expansion_terms.txt": _text(dec.term_table()),
             "expand_verify.json": _json(out)}
    return files, {"max_residual": max(r["residual"] for r in results.values())}


def run_fracmom(cfg):
    lam = cfg["lam"]
    ctx = se.solve_self_energy(cfg["energy"], lam)
    box = am.Box(side=cfg["box"])
    distances = [int(t) for t in cfg["distances"].split(",")]
    etas = [float(t) for t in cfg["etas"].split(",")]
    # common y = origin: one Krylov run per sample serves every pair and eta
    pairs = [((d, 0, 0), (0, 0, 0)) for d in distances]
    est = am.fractional_moment(box, ctx, cfg["s"], pairs, cfg["samples"],
                               eta_schedule=etas, seed=cfg["seed"])
    rows = [[f"{x[0]}:{x[1]}:{x[2]}", f"{y[0]}:{y[1]}:{y[2]}", cfg["s"], repr(eta),
             repr(float(est.estimates[ieta, ipair])),
             repr(float(est.stderrs[ieta, ipair])), cfg["samples"]]
            for ieta, eta in enumerate(etas)
            for ipair, (x, y) in enumerate(est.pairs)]
    mid = len(etas) // 2
    fit = am.correlation_length_fit(
        [(d, float(est.estimates[mid, i]), float(est.stderrs[mid, i]))
         for i, d in enumerate(distances)], cfg["s"]) \
        if len(distances) >= 4 and max(distances) >= 3 * min(distances) else None
    summary = {
        "estar": ctx.estar, "sigma": ctx.sigma,
        "eta_variation": [est.eta_variation(i) for i in range(len(pairs))],
        "fallbacks": est.fallbacks, "krylov_iterations": est.krylov_iterations,
    }
    if fit is not None:
        summary["xi"] = fit.xi
        summary["xi_ci"] = [fit.ci_low, fit.ci_high]
        summary["no_decay"] = fit.no_decay
    files = {"fracmom.csv": _csv(["x", "y", "s", "eta", "estimate", "stderr",
                                  "samples"], rows),
             "fracmom_summary.json": _json(summary)}
    return files, {}


def run_criterion(cfg):
    lam = cfg["lam"]
    if cfg["energy"] < 0:
        raise ConfigError("energy must be >= 0 (0 means use estar)")
    if cfg["energy"] > 0:
        ctx = se.solve_self_energy(cfg["energy"], lam)
    else:
        ctx = se.EnergyContext.from_estar(lam, cfg["estar"])
    res = am.finite_volume_criterion(cfg["boxl"], ctx, cfg["s"], b=cfg["b"],
                                     B_s=cfg["bs"], samples=cfg["samples"],
                                     seed=cfg["seed"])
    return {"criterion.json": _json({
        **asdict(res), "margin": res.margin, "passes": res.passes,
        "implied_decay_rate": res.implied_decay_rate})}, {}


RUNNERS = {
    "selfenergy": run_selfenergy,
    "green": run_green,
    "diagrams": run_diagrams,
    "diagram-value": run_diagram_value,
    "expand-verify": run_expand_verify,
    "fracmom": run_fracmom,
    "criterion": run_criterion,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifshitzlab",
        description="Desk-scale experiments on band-edge localization in the "
                    "3D Anderson model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="key = value config file; flags override it")
        for key, spec in schema.items():
            flags = [f"--{key.replace('_', '-')}"]
            if key == "lam":
                flags.append("--lambda")
            if key == "order":
                flags.append("--N")
            if spec.typ is bool:
                p.add_argument(*flags, dest=key, default=None,
                               action=argparse.BooleanOptionalAction, help=spec.help)
            else:
                p.add_argument(*flags, dest=key, default=None, type=str,
                               help=spec.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        flag_values = {k: v for k, v in vars(args).items()
                       if k not in ("command", "config") and v is not None}
        cfg = resolve_config(args.command, file_values, flag_values)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    try:
        files, notes = RUNNERS[args.command](cfg)
    except (ConfigError, ValueError) as exc:  # the library rejects out-of-range values
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LifshitzLabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    os.makedirs(cfg["out"], exist_ok=True)
    for name, write in files.items():
        write(os.path.join(cfg["out"], name))
    manifest = RunManifest(args.command, cfg, list(files), notes, started)
    path = manifest.write(cfg["out"])
    print(f"wrote manifest {path} with outputs {manifest.outputs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
