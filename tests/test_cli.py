import json


from lifshitzlab import anderson as am
from lifshitzlab import cli
from lifshitzlab import green as gr
from lifshitzlab import selfenergy as se


def run(args):
    return cli.main(args)


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
    assert run(["expand-verify", "--N", "2", "--box", "8", "--cancellation-samples", "1",
                "--out", str(tmp_path)]) == 2
    assert run(["criterion", "--boxl", "4", "--energy", "-1", "--out", str(tmp_path)]) == 2


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


def test_numerical_failure_exit_code(tmp_path):
    # energy far below the admissible window
    assert run(["fracmom", "--lam", "0.5", "--energy", "0.01", "--samples", "2",
                "--box", "6", "--distances", "1,2", "--out", str(tmp_path)]) == 3


def test_green_run_with_asymptotics(tmp_path):
    assert run(["green", "--estar", "0.05", "--radius", "6", "--method", "bessel",
                "--asymptotics-min", "10", "--asymptotics-max", "26",
                "--out", str(tmp_path)]) == 0
    table = (tmp_path / "green_table.csv").read_text().splitlines()
    assert table[1] == "x1,x2,x3,value"
    report = json.loads((tmp_path / "green_asymptotics.json").read_text())
    assert 0.8 < report["fitted_rate"] / report["expected_rate"] < 1.2


def test_green_fft_run(tmp_path):
    assert run(["green", "--estar", "0.5", "--radius", "5", "--method", "fft",
                "--grid", "64", "--out", str(tmp_path)]) == 0


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


def test_criterion_run(tmp_path):
    assert run(["criterion", "--boxl", "5", "--lam", "0", "--estar", "0.3",
                "--s", "0.2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "criterion.json").read_text())
    assert report["L"] == 5 and not report["lambda_factor_applied"]
    assert report["value"] > 0 and "margin" in report


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    assert run(["diagrams", "--n", "2"]) == 0
    assert (tmp_path / "diagram_census.json").exists()
