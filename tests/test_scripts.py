"""Tiny-size smoke runs of every experiment script in `scripts/`."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def launch(name, *args):
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def run_script(name, *args):
    proc = launch(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_green_asymptotics_script_bessel_matches_fft():
    out = run_script("green_asymptotics.py", "--estar", "0.5", "--rmin", "4",
                     "--rmax", "12", "--fft-grid", "64")
    worst = float(re.search(r"max \|bessel - fft\| on the axis up to 12: (\S+)", out)[1])
    assert worst < 1e-12


def test_green_asymptotics_script_fits_fft_radius_to_periodization_bound():
    out = run_script("green_asymptotics.py", "--estar", "0.05", "--rmin", "4",
                     "--rmax", "20", "--fft-grid", "64")
    assert "on the axis up to 13:" in out  # radius 16 = grid/4 breaks the bound
    proc = launch("green_asymptotics.py", "--fft-grid", "64")  # default E* = 0.01
    assert proc.returncode != 0 and "Traceback" not in proc.stderr
    assert "periodization error bound" in proc.stderr


def test_selfenergy_curve_script():
    # the default couplings, then the window edge at E* ~ 1e-7 (lam = 0.01, eps = 0.5)
    for args, count in ((("--count", "3"), 9),
                        (("--couplings", "0.01", "--epsilon", "0.5", "--count", "3"), 3)):
        out = run_script("selfenergy_curve.py", *args)
        i1, closed = re.match(r"I1\(0\) = (\S+)  \(closed form (\S+)\)", out).groups()
        assert i1 == closed
        rows = [line.split() for line in out.splitlines() if len(line.split()) == 4]
        residuals = [float(row[3]) for row in rows if row[0] != "E"]
        assert len(residuals) == count and max(residuals) < 1e-10


def test_selfenergy_curve_script_rejects_an_upside_down_window():
    # at lam = 0.1, eps = 3.5 the sweep's upper edge lam^2 I1(0) + lam is below E_eps
    proc = launch("selfenergy_curve.py", "--couplings", "0.1", "--epsilon", "3.5",
                  "--count", "3")
    assert proc.returncode != 0 and "Traceback" not in proc.stderr
    assert "upper edge lam^2 I1(0) + lam = 0.105055 lies below E_eps = 0.321282" \
        in proc.stderr


def test_diagram_census_script():
    out = run_script("diagram_census.py", "--nmax", "2")
    assert "n = 2: 2 pairings, 2 superficially convergent" in out
    # gate graphs fail, and their proper subgraphs go through the reducibility test
    out = run_script("diagram_census.py", "--with-gates", "--nmax", "3")
    assert "n = 3: 15 pairings, 7 superficially convergent" in out


@pytest.mark.parametrize("lam", ["0", "0.5"])
def test_criterion_sweep_script(lam):
    out = run_script("criterion_sweep.py", "--lam", lam, "--sweep", "3,4",
                     "--samples", "1")
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["3", "4"]
