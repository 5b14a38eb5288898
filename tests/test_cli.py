import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

from lifshitzlab import anderson as am
from lifshitzlab import cli
from lifshitzlab import expansion as ex
from lifshitzlab import green as gr
from lifshitzlab import selfenergy as se


DATA = os.path.join(os.path.dirname(__file__), "data")


def run(args):
    return cli.main(args)


def snapshot(outdir):
    return {p.name: p.read_bytes() for p in outdir.iterdir()}


def test_selfenergy_run_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["selfenergy", "--lam", "0.1", "--count", "5", "--out", str(out1)]) == 0
    assert run(["selfenergy", "--lam", "0.1", "--count", "5", "--out", str(out2)]) == 0
    csv1 = (out1 / "selfenergy.csv").read_bytes()
    csv2 = (out2 / "selfenergy.csv").read_bytes()
    assert csv1 == csv2  # outputs are a pure function of the config
    manifest = json.loads((out1 / "selfenergy_manifest.json").read_text())
    assert manifest["outputs"] == ["selfenergy.csv"]
    assert manifest["config"]["lam"] == 0.1
    assert len(manifest["config_sha256"]) == 64


def test_manifest_hash_tracks_config(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["selfenergy", "--lam", "0.1", "--count", "4", "--out", str(out1)])
    run(["selfenergy", "--lam", "0.2", "--count", "4", "--out", str(out2)])
    h1 = json.loads((out1 / "selfenergy_manifest.json").read_text())["config_sha256"]
    h2 = json.loads((out2 / "selfenergy_manifest.json").read_text())["config_sha256"]
    assert h1 != h2


def test_manifest_tolerances_are_the_module_constants(tmp_path):
    assert run(["selfenergy", "--lam", "0.1", "--count", "2", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "selfenergy_manifest.json").read_text())
    assert manifest["tolerances"] == {"torus_quadrature_rel": se.QUAD_TOL,
                                      "green_bessel_rel": gr.BESSEL_RELTOL,
                                      "resolvent_residual": am.RESIDUAL_TOL}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = 0.1\ncount = 4  # flags win over this file\n")
    out = tmp_path / "out"
    assert run(["selfenergy", "--config", str(cfg), "--count", "3",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "selfenergy_manifest.json").read_text())
    assert manifest["config"]["count"] == 3
    assert manifest["config"]["lam"] == 0.1


def test_unknown_config_key_is_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = 0.1\nbogus_knob = 7\n")
    assert run(["selfenergy", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [["selfenergy", "--lam", "0.1"],
                                  ["green", "--estar", "0.5"],
                                  ["diagrams", "--n", "2"]])
def test_seed_is_unknown_to_deterministic_commands(tmp_path, argv):
    # these commands draw no random number, so they take no seed
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_box_over_the_site_budget_is_a_config_error(tmp_path):
    # the solvers' site budget, not Box, rejects the run; nothing is written
    out = tmp_path / "out"
    assert run(["fracmom", "--lam", "0.5", "--energy", "0.45", "--box", "200",
                "--samples", "1", "--distances", "1,2", "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_required_key_is_error(tmp_path):
    assert run(["selfenergy", "--out", str(tmp_path)]) == 2


def test_out_of_range_flags_are_config_errors(tmp_path):
    # the library's range guards raise ValueError; the CLI maps it to status 2
    assert run(["green", "--estar", "0.5", "--radius", "80", "--out", str(tmp_path)]) == 2
    assert run(["criterion", "--boxl", "60", "--out", str(tmp_path)]) == 2
    # empty or too small Monte Carlo runs, and a negative energy, are config errors
    assert run(["criterion", "--boxl", "4", "--lam", "0.5", "--energy", "0.85",
                "--samples", "0", "--out", str(tmp_path)]) == 2
    assert run(["fracmom", "--lam", "0.5", "--energy", "0.45", "--box", "6",
                "--samples", "0", "--distances", "1,2", "--out", str(tmp_path)]) == 2
    # a NaN eta leaked StopIteration from the Krylov run (exit 1)
    assert run(["fracmom", "--lam", "0.5", "--energy", "0.45", "--box", "6",
                "--samples", "1", "--distances", "1,2", "--etas", "nan,1e-3",
                "--out", str(tmp_path)]) == 2
    assert run(["expand-verify", "--N", "2", "--box", "8", "--cancellation-samples", "1",
                "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "expansion_terms.txt").exists()  # a rejected run writes nothing
    assert run(["criterion", "--boxl", "4", "--energy", "-1", "--out", str(tmp_path)]) == 2
    # a prefactor B_s <= 0 would make the criterion pass vacuously
    assert run(["criterion", "--boxl", "3", "--lam", "0", "--estar", "0.3", "--s", "0.2",
                "--bs", "0", "--out", str(tmp_path)]) == 2
    # orders below 1 have no graph; negative radii have no table
    assert run(["diagrams", "--n", "0", "--out", str(tmp_path)]) == 2
    assert run(["diagram-value", "--n", "0", "--out", str(tmp_path)]) == 2
    assert run(["green", "--estar", "0.5", "--radius", "-1", "--out", str(tmp_path)]) == 2
    assert run(["green", "--estar", "0.5", "--radius", "-1", "--method", "fft",
                "--out", str(tmp_path)]) == 2
    # an empty selfenergy window and a set but empty asymptotics range
    assert run(["selfenergy", "--lam", "0.1", "--count", "0", "--out", str(tmp_path)]) == 2
    assert run(["selfenergy", "--lam", "0.1", "--count", "-3", "--out", str(tmp_path)]) == 2
    assert run(["green", "--estar", "0.5", "--radius", "4", "--asymptotics-max", "30",
                "--out", str(tmp_path)]) == 2
    assert run(["green", "--estar", "0.5", "--radius", "4", "--asymptotics-min", "30",
                "--asymptotics-max", "10", "--out", str(tmp_path)]) == 2
    assert snapshot(tmp_path) == {}


@pytest.mark.parametrize("via_env", [False, True])
def test_out_naming_a_file_is_config_error(tmp_path, monkeypatch, via_env):
    target = tmp_path / "taken"
    target.write_bytes(b"keep me\n")
    argv = ["diagrams", "--n", "2"]
    if via_env:
        monkeypatch.setenv(cli.ENV_OUTDIR, str(target))
    else:
        argv += ["--out", str(target)]
    assert run(argv) == 2
    assert target.read_bytes() == b"keep me\n"


def test_failed_green_run_writes_nothing(tmp_path):
    # the table succeeds, then the asymptotics range passes the radius limit
    assert run(["green", "--estar", "0.5", "--radius", "6", "--asymptotics-min", "10",
                "--asymptotics-max", "80", "--out", str(tmp_path)]) == 2
    assert snapshot(tmp_path) == {}


def test_failed_selfenergy_run_writes_nothing(tmp_path):
    # at lam = 0 the window starts at E = 0, where no solution exists
    assert run(["selfenergy", "--lam", "0", "--out", str(tmp_path)]) == 2
    assert snapshot(tmp_path) == {}


def test_failed_rerun_keeps_the_earlier_run(tmp_path):
    assert run(["diagram-value", "--n", "2", "--samples", "2000",
                "--out", str(tmp_path)]) == 0
    before = snapshot(tmp_path)
    assert set(before) == {"diagram_values.csv", "diagram-value_manifest.json"}
    assert run(["diagram-value", "--n", "2", "--samples", "1",
                "--out", str(tmp_path)]) == 2
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("argv, name, golden", [
    (["selfenergy", "--lam", "0.1", "--count", "3"],
     "selfenergy.csv", "selfenergy_count3_golden.csv"),
    (["fracmom", "--lam", "0.5", "--energy", "0.45", "--box", "8", "--samples", "4",
      "--distances", "1,2", "--etas", "1e-2,1e-3"],
     "fracmom.csv", "fracmom_golden.csv"),
    (["diagram-value", "--n", "2", "--samples", "2000"],
     "diagram_values.csv", "diagram_values_n2_golden.csv"),
    # the MC draws pin each graph's tree order, loop order and a_ij
    (["diagram-value", "--n", "3", "--samples", "2000", "--seed", "3"],
     "diagram_values.csv", "diagram_values_n3_golden.csv"),
], ids=["selfenergy", "fracmom", "diagram-value", "diagram-value-n3"])
def test_csv_matches_golden_file(tmp_path, argv, name, golden):
    # byte for byte, CRLF line ends included
    assert run([*argv, "--out", str(tmp_path)]) == 0
    with open(os.path.join(DATA, golden), "rb") as fh:
        assert (tmp_path / name).read_bytes() == fh.read()


def test_selfenergy_at_the_window_edge(tmp_path):
    # at lam = 0.01, eps = 0.5 the window edge sits at E* ~ 1e-7
    assert run(["selfenergy", "--lam", "0.01", "--epsilon", "0.5", "--count", "3",
                "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "selfenergy.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert min(float(row.split(",")[1]) for row in rows) < 1e-6
    assert all(float(row.split(",")[3]) < 1e-10 for row in rows)


def test_readme_selfenergy_residuals_reach_rounding(tmp_path):
    assert run(["selfenergy", "--lam", "0.1", "--epsilon", "1", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "selfenergy.csv").read_text().splitlines()[1:]
    assert max(float(row.split(",")[3]) for row in rows) <= 1e-13


@pytest.mark.parametrize("lam, eps", [("0.1", "3.5"), ("1.5", "1")])
def test_selfenergy_window_upside_down_is_a_config_error(tmp_path, lam, eps, capsys):
    # lam^2 I1(0) + lam lies below E_eps = lam^2 I1(0) + lam^(4-eps)
    assert run(["selfenergy", "--lam", lam, "--epsilon", eps, "--count", "5",
                "--out", str(tmp_path)]) == 2
    assert "lies below E_eps" in capsys.readouterr().err
    assert snapshot(tmp_path) == {}


def test_numerical_failure_exit_code(tmp_path):
    # energy far below the admissible window
    assert run(["fracmom", "--lam", "0.5", "--energy", "0.01", "--samples", "2",
                "--box", "6", "--distances", "1,2", "--out", str(tmp_path)]) == 3


def _record_fields(record):
    """A result record's fields as JSON reads them back: tuples become lists."""
    return {f.name: list(v) if isinstance(v, tuple) else v
            for f in dataclasses.fields(record) for v in [getattr(record, f.name)]}


def test_green_run_with_asymptotics(tmp_path):
    assert run(["green", "--estar", "0.05", "--radius", "6", "--method", "bessel",
                "--asymptotics-min", "10", "--asymptotics-max", "26",
                "--out", str(tmp_path)]) == 0
    table = (tmp_path / "green_table.csv").read_text().splitlines()
    assert table[1] == "x1,x2,x3,value"
    report = json.loads((tmp_path / "green_asymptotics.json").read_text())
    assert 0.8 < report["fitted_rate"] / report["expected_rate"] < 1.2
    # the file is the report: its fields, and no others, at the library's values
    assert report == _record_fields(gr.check_asymptotics(range(10, 27, 2), 0.05))
    notes = json.loads((tmp_path / "green_manifest.json").read_text())["notes"]
    assert set(notes) == {"envelope_constant"}  # fft-only keys stay out


def test_green_fft_run(tmp_path):
    assert run(["green", "--estar", "0.5", "--radius", "5", "--method", "fft",
                "--grid", "64", "--out", str(tmp_path)]) == 0
    notes = json.loads((tmp_path / "green_manifest.json").read_text())["notes"]
    assert notes["grid_size"] == 64
    assert notes["periodization_bound"] == gr.periodization_bound(64, 5, 0.5)
    assert 0.0 <= notes["symmetry_defect"] <= 1e-15
    assert set(notes) == {"envelope_constant", "grid_size", "periodization_bound",
                          "symmetry_defect"}


def test_green_periodization_failure_code(tmp_path):
    assert run(["green", "--estar", "0.001", "--radius", "16", "--method", "fft",
                "--grid", "64", "--out", str(tmp_path)]) == 3


def test_diagrams_census_run(tmp_path):
    assert run(["diagrams", "--n", "3", "--out", str(tmp_path)]) == 0
    census = json.loads((tmp_path / "diagram_census.json").read_text())
    assert census["pairings"] == 7
    assert all(e["superficially_convergent"] for e in census["census"])


def test_diagram_value_ledger_run(tmp_path):
    assert run(["diagram-value", "--n", "2", "--samples", "2000",
                "--out", str(tmp_path)]) == 0
    ledger = (tmp_path / "diagram_values.csv").read_text().splitlines()
    assert ledger[0] == "graph_id,n,method,value,stderr,samples,seed"
    assert len(ledger) == 3  # two gate-free pairings at n = 2


def test_expand_verify_run(tmp_path):
    assert run(["expand-verify", "--N", "2", "--box", "8", "--lambda", "0.5",
                "--seed", "7", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "expand_verify.json").read_text())
    assert all(v["residual"] < 1e-9 for v in report["residuals"].values())
    terms = (tmp_path / "expansion_terms.txt").read_text()
    assert terms.splitlines()[0] == "insertions,order,terminal"


def test_fracmom_run(tmp_path):
    assert run(["fracmom", "--lam", "0.5", "--energy", "0.45", "--box", "8",
                "--samples", "4", "--distances", "1,2", "--etas", "1e-2,1e-3",
                "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fracmom.csv").read_text().splitlines()
    assert rows[0] == "x,y,s,eta,estimate,stderr,samples"
    assert len(rows) == 1 + 2 * 2
    summary = json.loads((tmp_path / "fracmom_summary.json").read_text())
    assert "eta_variation" in summary
    assert summary["fallbacks"] == 0
    assert 0 < summary["krylov_iterations"] < am.KRYLOV_MAXIT


def test_fracmom_run_fits_xi_on_the_middle_eta(tmp_path):
    # four distances spanning a factor of 4: the summary carries the decay fit
    assert run(["fracmom", "--lam", "0.5", "--energy", "0.45", "--box", "10",
                "--samples", "4", "--distances", "1,2,3,4", "--out", str(tmp_path)]) == 0
    rows = [row.split(",") for row in (tmp_path / "fracmom.csv").read_text().split()[1:]]
    mid = [(int(row[0].split(":")[0]), float(row[4]), float(row[5]))
           for row in rows if row[3] == "0.001"]
    fit = am.correlation_length_fit(mid, 0.3)
    summary = json.loads((tmp_path / "fracmom_summary.json").read_text())
    assert len(mid) == 4
    assert (summary["xi"], summary["xi_ci"], summary["no_decay"]) == \
        (fit.xi, [fit.ci_low, fit.ci_high], fit.no_decay)


def test_expand_verify_cancellation_is_the_l1_moment_mc(tmp_path):
    assert run(["expand-verify", "--N", "1", "--box", "6", "--seed", "5",
                "--cancellation-samples", "200", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "expand_verify.json").read_text())
    cmp1 = ex.mc_moment_Al_squared(1, se.EnergyContext.from_estar(0.5, 0.5), (0, 0, 0),
                                   (1, 0, 0), samples=200, box_radius=5, seed=5)
    assert report["cancellation_l1"] == {"mc": cmp1.mc_estimate, "stderr": cmp1.mc_stderr,
                                         "prediction": cmp1.prediction, "z": cmp1.z_score}


@pytest.mark.parametrize("value", ["false", "0", "No", "off"])
def test_config_file_boolean_equals_the_flag(tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"gate_free = {value}\n")
    by_file, by_flag = tmp_path / "file", tmp_path / "flag"
    assert run(["diagrams", "--n", "2", "--config", str(cfg), "--out", str(by_file)]) == 0
    assert run(["diagrams", "--n", "2", "--no-gate-free", "--out", str(by_flag)]) == 0
    assert (by_file / "diagram_census.json").read_bytes() == \
        (by_flag / "diagram_census.json").read_bytes()


def test_config_file_skips_comment_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a self-energy sweep\n\n   \nlam = 0.1\n  # count = 9\ncount = 2\n")
    assert run(["selfenergy", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    config = json.loads((tmp_path / "out" / "selfenergy_manifest.json").read_text())["config"]
    assert (config["lam"], config["count"]) == (0.1, 2)


@pytest.mark.parametrize("argv, lines", [
    (["diagrams", "--n", "2"], "gate_free = maybe\n"),
    (["selfenergy"], "lam = 0.1\ncount 3\n"),
    (["selfenergy", "--lam", "0.1", "--count", "three"], None),
    (["selfenergy", "--lam", "abc"], None),
    (["green", "--estar", "0.5", "--radius", "3", "--method", "quad"], None),
], ids=["bad-boolean", "line-without-equals", "int-flag", "float-flag", "green-method"])
def test_bad_input_is_a_config_error_and_writes_nothing(tmp_path, argv, lines, capsys):
    out = tmp_path / "out"
    if lines is not None:
        (tmp_path / "run.cfg").write_text(lines)
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_criterion_run(tmp_path):
    assert run(["criterion", "--boxl", "5", "--lam", "0", "--estar", "0.3",
                "--s", "0.2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "criterion.json").read_text())
    assert report["L"] == 5 and not report["lambda_factor_applied"]
    assert report["value"] > 0 and "margin" in report
    assert report["fallbacks"] == 0
    assert 0 < report["krylov_iterations"] < am.KRYLOV_MAXIT
    # the file is the result's fields plus its verdict, at the library's values
    res = am.finite_volume_criterion(5, se.EnergyContext.from_estar(0.0, 0.3), 0.2,
                                     b=0.5, B_s=1.0, samples=20, seed=0)
    assert report == {**_record_fields(res), "margin": res.margin, "passes": res.passes,
                      "implied_decay_rate": res.implied_decay_rate}


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    assert run(["diagrams", "--n", "2"]) == 0
    assert (tmp_path / "diagram_census.json").exists()


def test_manifest_bytes_are_one_json_dumps(tmp_path):
    assert run(["diagrams", "--n", "2", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "diagrams_manifest.json").read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=1, sort_keys=True)
    chunked = io.StringIO()
    json.dump(payload, chunked, indent=1, sort_keys=True)
    assert text == chunked.getvalue()


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.signal alone drags in stats, ndimage, interpolate, integrate and
    # optimize: about half the start-up of every command
    heavy = ("scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.interpolate",
             "scipy.integrate", "scipy.optimize")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, lifshitzlab.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
