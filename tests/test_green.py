import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

from lifshitzlab import green as gr
from lifshitzlab import selfenergy as se
from lifshitzlab.errors import NonConvergenceError, PeriodizationError, TailDepthError
from test_selfenergy import midpoint_pair


def quad_green(x, estar):
    """Two-piece adaptive quadrature of the heat-kernel integral (test oracle)."""
    n1, n2, n3 = sorted(abs(int(c)) for c in x)

    def integrand(t):
        return math.exp(-estar * t) * ive(n1, t) * ive(n2, t) * ive(n3, t)

    r = math.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
    # integrand mass sits near t ~ r / sqrt(2 estar); split there for quad
    tsplit = max(10.0, 3.0 * r / math.sqrt(2.0 * estar))
    v1, _ = quad(integrand, 0.0, tsplit, epsabs=0.0, epsrel=1e-12, limit=500)
    v2, _ = quad(integrand, tsplit, np.inf, epsabs=1e-300, epsrel=1e-12, limit=500)
    return v1 + v2


def test_origin_value_equals_torus_integral():
    for estar in (0.05, 0.3, 1.0):
        assert gr.green_free((0, 0, 0), estar) == pytest.approx(
            midpoint_pair(1024, estar)[0], rel=1e-10)


def test_small_estar_values_are_finite_and_tables_build():
    # ive is NaN for t >= 2^30; the Hankel rows keep every entry finite
    table = gr.green_table_bessel(1e-9, radius=4)
    assert table.value((0, 0, 0)) == pytest.approx(se.torus_integral_I1(1e-9),
                                                   rel=1e-12, abs=0.0)
    for estar in (0.0, 1e-12, 1e-9):
        v = gr.green_free((7, 2, 1), estar)
        assert math.isfinite(v) and v > gr.green_free((7, 2, 1), 1e-6)


def test_far_orders_beyond_the_hankel_range_raise():
    # at t >= 2^30, mu / (8t) = 4 * 1000^2 / (8 * 2^30) > HANKEL_TOL
    with pytest.raises(NonConvergenceError):
        gr.green_free((1000, 0, 0), 1e-9)


def test_estar_bounds():
    with pytest.raises(ValueError):
        gr.green_free((1, 0, 0), -1e-3)
    with pytest.raises(ValueError):
        gr.check_asymptotics(range(4, 9), 0.0)


def test_sigma_identity_on_solved_context():
    ctx = se.solve_self_energy(0.3, 0.1)
    lhs = ctx.lam**2 * gr.green_free((0, 0, 0), ctx.estar)
    assert lhs == pytest.approx(ctx.sigma, rel=1e-8)


def test_positivity_across_energies():
    for estar in (1e-3, 1e-2, 1e-1):
        for x in ((0, 0, 0), (5, 0, 0), (10, 7, 3), (20, 0, 0), (12, 12, 12)):
            assert gr.green_free(x, estar) > 0.0


def test_wedge_symmetry_is_exact():
    v = gr.green_free((3, -1, 2), 0.2)
    assert v == gr.green_free((2, 3, 1), 0.2)  # sorted |components| identical


def test_fft_agrees_with_bessel_small():
    table_b = gr.green_table_bessel(0.2, radius=8)
    table_f = gr.green_free_fft(128, 0.2, radius=8)
    worst = max(abs(table_b.value(x) - table_f.value(x)) for x, _ in table_b.items())
    assert worst < 1e-10


def test_fft_reproduces_origin_at_unit_energy():
    table = gr.green_free_fft(128, 1.0, radius=4)
    assert table.value((0, 0, 0)) == pytest.approx(gr.green_free((0, 0, 0), 1.0),
                                                   abs=1e-8)


def irfftn_oracle_table(grid_size, estar, radius):
    """The FFT table by one full M^3 inverse transform of the whole grid (test oracle)."""
    m = grid_size
    c = 2.0 * np.sin(np.pi * np.arange(m) / m) ** 2
    cz = c[: m // 2 + 1]
    spectrum = 1.0 / (estar + c[:, None, None] + c[None, :, None] + cz[None, None, :])
    table_full = np.fft.irfftn(spectrum, s=(m, m, m), axes=(0, 1, 2))
    return table_full[: radius + 1, : radius + 1, : radius + 1].copy()


def pruned_irfft_oracle_table(grid_size, estar, radius):
    """The FFT table by three one-axis irffts of the half spectrum, each pruned to
    the rows x = -r..r before the next axis (test oracle)."""
    m, r = grid_size, radius
    c = 2.0 * np.sin(np.pi * np.arange(m // 2 + 1) / m) ** 2
    a = 1.0 / (estar + c[:, None, None] + c[None, :, None] + c[None, None, :])
    # the Hermitian extension irfft applies to a real half spectrum is the even one
    keep = np.r_[: r + 1, m - r : m]
    for axis in range(3):
        a = np.take(np.fft.irfft(a, n=m, axis=axis), keep, axis=axis)
    return a[: r + 1, : r + 1, : r + 1].copy()


@pytest.mark.parametrize("m, estar, radius", [
    (64, 0.5, 8), (65, 0.5, 8), (96, 0.7, 10), (127, 0.3, 12), (128, 0.2, 8),
    (128, 1.0, 4), (128, 0.05, 12), (256, 0.05, 12), (256, 0.5, 12), (256, 0.4, 20),
    (64, 0.5, 0), (64, 0.5, 33), (80, 0.2, 44),  # odd M, r = 0 and r > M/2 included
])
def test_pruned_fft_matches_full_grid_oracle(m, estar, radius):
    table = gr.green_free_fft(m, estar, radius=radius)
    oracle = irfftn_oracle_table(m, estar, radius)
    assert np.max(np.abs(table._data - oracle)) <= 1e-15
    assert table.symmetry_defect <= 1e-15


def test_fft_table_never_holds_a_full_grid():
    # one float64 256^3 cube is 128 MiB; the full-grid transform peaked at 322 MiB
    tracemalloc.start()
    try:
        gr.green_free_fft(256, 0.05, radius=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256**3 * 8


@pytest.mark.parametrize("m", [64, 65, 128, 256])
@pytest.mark.parametrize("radius", [4, 8, 12, 20])
@pytest.mark.parametrize("estar", [0.05, 0.5])
def test_cosine_products_match_pruned_irfft_oracle(m, radius, estar, monkeypatch):
    if gr.periodization_bound(m, radius, estar) >= gr.FFT_TOL:
        with pytest.raises(PeriodizationError):
            gr.green_free_fft(m, estar, radius=radius)
        monkeypatch.setattr(gr, "FFT_TOL", math.inf)  # compare the arithmetic all the same
    table = gr.green_free_fft(m, estar, radius=radius)
    oracle = pruned_irfft_oracle_table(m, estar, radius)
    assert np.max(np.abs(table._data - oracle)) <= 1e-15
    assert 0.0 < table.symmetry_defect <= 1e-15


def test_fft_table_peak_is_one_half_spectrum():
    # the spectrum is the one (M//2+1)^3 array; the three-irfft route peaked at 4.98 of them
    m = 256
    tracemalloc.start()
    try:
        gr.green_free_fft(m, 0.05, radius=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (m // 2 + 1) ** 3 * 8


def test_fft_octahedral_symmetry_defect():
    table = gr.green_free_fft(64, 0.5, radius=8)
    assert table.symmetry_defect < 1e-12


def test_periodization_rejection():
    with pytest.raises(PeriodizationError) as err:
        gr.green_free_fft(64, 1e-3, radius=16)
    assert err.value.bound > 1e-8


def test_periodization_bound_is_conservative(monkeypatch):
    # in an aliasing-dominated regime the measured error sits below the bound
    estar, m, radius = 0.05, 64, 20
    bound = gr.periodization_bound(m, radius, estar)
    assert bound > 1e-9  # aliasing well above double-precision noise here
    monkeypatch.setattr(gr, "FFT_TOL", 1e-6)
    table = gr.green_free_fft(m, estar, radius=radius)
    worst = 0.0
    for x in ((radius, 0, 0), (14, 14, 0), (0, 0, radius), (11, 9, 7), (19, 5, 0)):
        worst = max(worst, abs(table.value(x) - gr.green_free(x, estar)))
    assert worst <= bound


@pytest.mark.parametrize("estar", [0.0, -0.1])
def test_periodization_bound_needs_positive_estar(estar):
    with pytest.raises(ValueError, match="estar must be > 0"):
        gr.periodization_bound(64, 5, estar)


def resolvent_identity_residual(table: gr.GreenTable, patch_radius: int = 3) -> float:
    """Max |(-Delta/2 + E*) R - delta| applied to the table on a small patch."""
    best = 0.0
    es = table.estar
    for i in range(-patch_radius, patch_radius + 1):
        for j in range(-patch_radius, patch_radius + 1):
            for k in range(-patch_radius, patch_radius + 1):
                acc = (3.0 + es) * table.value((i, j, k))
                for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                          (0, 0, 1), (0, 0, -1)):
                    acc -= 0.5 * table.value((i + d[0], j + d[1], k + d[2]))
                target = 1.0 if (i, j, k) == (0, 0, 0) else 0.0
                best = max(best, abs(acc - target))
    return best


def test_resolvent_identity_on_patch():
    table = gr.green_table_bessel(0.3, radius=6)
    assert resolvent_identity_residual(table, patch_radius=2) < 1e-8


def test_monotone_decrease_in_estar():
    for x in ((0, 0, 0), (3, 2, 1), (7, 0, 0)):
        assert gr.green_free(x, 0.1) > gr.green_free(x, 0.2)


def test_envelope_constant_below_two():
    rep = gr.check_asymptotics(range(1, 41, 4), 0.01)
    assert rep.envelope_constant < 2.0
    table = gr.green_table_bessel(0.05, radius=6)
    assert table.fitted_envelope_constant() < 2.0


def loop_envelope_constant(table):
    """max of value(x) * (|x| + 1) by a loop over the ball (test oracle)."""
    best = 0.0
    for (i, j, k), v in table.items():
        best = max(best, v * (math.sqrt(i * i + j * j + k * k) + 1.0))
    return best


@pytest.mark.parametrize("build", [lambda: gr.green_free_fft(64, 0.5, radius=8),
                                   lambda: gr.green_table_bessel(0.05, radius=12)])
def test_envelope_constant_matches_loop_oracle_exactly(build):
    table = build()
    assert table.fitted_envelope_constant() == loop_envelope_constant(table)


def test_asymptotics_moderate_range():
    rep = gr.check_asymptotics(range(12, 33, 4), 0.01)
    assert 0.9 < rep.rate_ratio < 1.1
    assert all(0.8 < r < 1.2 for r in rep.ratios)
    # fitted envelope dominates the observed deviations by construction
    for r, ratio in zip(rep.distances, rep.ratios):
        assert abs(ratio - 1.0) <= rep.c1 * math.sqrt(rep.estar) + rep.c2 / r + 1e-12


@pytest.mark.parametrize("estar, x", [
    (0.5, (50, 0, 0)), (2.0, (25, 0, 0)),          # deep tails, sqrt(2E*)|x| = 50
    (1e-3, (20, 0, 0)), (1e-3, (12, 12, 12)),      # tiny E*: t_max ~ 1/E*
    (1e-4, (20, 0, 0)), (1e-4, (12, 12, 12)),
])
def test_trapezoid_matches_quadrature_oracle(estar, x):
    assert gr.green_free(x, estar) == pytest.approx(quad_green(x, estar), rel=1e-12)


def test_table_matches_quadrature_oracle_on_every_wedge_point():
    radius, estar = 8, 0.45
    table = gr.green_table_bessel(estar, radius=radius)
    wedge = [(a, b, c) for a in range(radius + 1) for b in range(a, radius + 1)
             for c in range(b, radius + 1) if a * a + b * b + c * c <= radius**2]
    worst = max(abs(table.value(x) / quad_green(x, estar) - 1.0) for x in wedge)
    assert worst <= 1e-12


@pytest.mark.parametrize("estar, x", [(2.0, (11, 42, 47)), (5.0, (0, 22, 60))])
def test_radius_64_table_at_large_estar_matches_oracle(estar, x):
    # the half-grid estimate (the h = 0.1 error) fails here; the h/2 sum clears it
    table = gr.green_table_bessel(estar, radius=64)
    assert table.value(x) == pytest.approx(quad_green(x, estar), rel=1e-12)


def test_table_is_exactly_permutation_symmetric_with_nan_outside_ball():
    table = gr.green_table_bessel(0.3, radius=7)
    data = table._data
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        assert np.array_equal(data, data.transpose(axes), equal_nan=True)
    assert np.isnan(data[7, 7, 7]) and np.isfinite(data[0, 0, 7])


def test_quadrature_error_contract(monkeypatch):
    # the summation-rounding floor makes any tolerance below double precision fail
    monkeypatch.setattr(gr, "BESSEL_RELTOL", 1e-16)
    with pytest.raises(NonConvergenceError):
        gr.green_free((2, 1, 0), 0.3)
    with pytest.raises(NonConvergenceError):
        gr.green_table_bessel(0.3, radius=3)
    monkeypatch.setattr(gr, "BESSEL_RELTOL", 1e-14)
    with pytest.raises(NonConvergenceError):
        gr.green_free((0, 0, 0), 0.3)


def test_table_csv_roundtrip(tmp_path):
    table = gr.green_table_bessel(0.4, radius=5)
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(table, path)
    back = gr.read_table_csv(path)
    assert back.estar == table.estar and back.method == table.method
    for x, v in table.items():
        assert back.value(x) == v


def test_table_csv_roundtrip_under_optimize(tmp_path):
    # asserts are stripped under -O; the header check must not be one
    table = gr.green_table_bessel(0.4, radius=3)
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(table, path)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; from lifshitzlab import green as gr; "
            "t = gr.read_table_csv(sys.argv[1]); print(repr(t.value((1, 2, 0))))")
    proc = subprocess.run([sys.executable, "-O", "-c", code, path], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(table.value((1, 2, 0)))


def test_table_csv_rejects_truncated_file_and_wrong_header(tmp_path):
    table = gr.green_table_bessel(0.4, radius=3)
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(table, path)
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[: len(lines) // 2])  # cut at a line end
    with pytest.raises(ValueError):
        gr.read_table_csv(path)
    with open(path, "w") as fh:
        fh.writelines([lines[0], "x,y,z,value\n", *lines[2:]])
    with pytest.raises(ValueError, match="columns"):
        gr.read_table_csv(path)


def _rewrite_header(path, **changes):
    with open(path) as fh:
        header, *rest = fh.readlines()
    fields = {k: v for k, v in json.loads(header[2:]).items() if k not in changes}
    fields.update({k: v for k, v in changes.items() if v is not None})
    with open(path, "w") as fh:
        fh.writelines(["# " + json.dumps(fields) + "\n", *rest])


@pytest.mark.parametrize("key", ["estar", "method", "tolerance", "radius"])
def test_table_csv_names_a_missing_header_key(tmp_path, key):
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(gr.green_table_bessel(0.4, radius=2), path)
    _rewrite_header(path, **{key: None})
    with pytest.raises(ValueError, match=key):
        gr.read_table_csv(path)


def test_table_csv_checks_the_header_radius(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(gr.green_table_bessel(0.4, radius=3), path)
    monkeypatch.setattr(gr, "MAX_RADIUS", 2)
    with pytest.raises(ValueError, match="beyond"):
        gr.read_table_csv(path)
    with open(path) as fh:
        lines = fh.readlines()[:2]  # a negative radius would leave an empty ball
    with open(path, "w") as fh:
        fh.writelines(lines)
    _rewrite_header(path, radius=-1)
    with pytest.raises(ValueError, match="radius"):
        gr.read_table_csv(path)


@pytest.mark.parametrize("radius", [3.5, 3.0])
def test_tables_reject_a_non_integer_radius(tmp_path, radius):
    with pytest.raises(ValueError, match="radius must be an integer"):
        gr.green_table_bessel(0.4, radius=radius)
    with pytest.raises(ValueError, match="radius must be an integer"):
        gr.green_free_fft(64, 0.5, radius=radius)
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(gr.green_table_bessel(0.4, radius=3), path)
    _rewrite_header(path, radius=radius)
    with pytest.raises(ValueError, match="radius must be an integer"):
        gr.read_table_csv(path)


def test_fft_rejects_a_non_integer_grid():
    # read as it stands, grid 64.5 gives a (1,0,0) entry of 0.06315 that passes
    # validate and its periodization bound, against 0.06456 from grid 64
    with pytest.raises(ValueError, match="grid_size must be an integer"):
        gr.green_free_fft(64.5, 0.5, radius=4)
    with pytest.raises(ValueError, match="grid_size must be an integer"):
        gr.green_free_fft(64.0, 0.5, radius=4)


def test_tables_read_numpy_integer_sizes():
    fft = gr.green_free_fft(np.int64(64), 0.5, radius=np.int32(4))
    assert type(fft.grid_size) is int and type(fft.radius) is int
    assert fft.value((1, 0, 0)) == gr.green_free_fft(64, 0.5, radius=4).value((1, 0, 0))
    bessel = gr.green_table_bessel(0.4, radius=np.int64(3))
    assert type(bessel.radius) is int
    assert bessel.value((1, 2, 0)) == gr.green_table_bessel(0.4, radius=3).value((1, 2, 0))


def test_fft_table_items_agree_with_value():
    # FFT entries are permutation-symmetric only to rounding; both reads take (|x1|, |x2|, |x3|)
    table = gr.green_free_fft(128, 0.05, radius=12)
    assert table.symmetry_defect > 0.0
    assert all(table.value(x) == v for x, v in table.items())


@pytest.mark.parametrize("row", ["9,0,0,0.1", "4,4,4,0.1"])
def test_table_csv_rejects_row_outside_the_ball(tmp_path, row):
    # (9,0,0) lies beyond the stored cube, (4,4,4) inside it but outside the ball
    table = gr.green_free_fft(64, 0.5, radius=4)
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(table, path)
    with open(path, "a") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match="outside"):
        gr.read_table_csv(path)


def items_write_table_csv(table, path):
    """`write_table_csv` with one f-string and one repr per `items()` row (test oracle)."""
    header = {"estar": table.estar, "method": table.method,
              "tolerance": table.tolerance, "radius": table.radius,
              "grid_size": table.grid_size}
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write("x1,x2,x3,value\n")
        fh.write("".join(f"{x1},{x2},{x3},{v!r}\n" for (x1, x2, x3), v in table.items()))


@pytest.mark.parametrize("radius", [0, 5, 12])
@pytest.mark.parametrize("build", [lambda r: gr.green_table_bessel(0.05, radius=r),
                                   lambda r: gr.green_free_fft(128, 0.05, radius=r)],
                         ids=["bessel", "fft"])
def test_table_csv_writer_equals_the_per_row_oracle(build, radius, tmp_path):
    table = build(radius)
    got, want = os.path.join(tmp_path, "got.csv"), os.path.join(tmp_path, "want.csv")
    gr.write_table_csv(table, got)
    items_write_table_csv(table, want)
    with open(got, "rb") as a, open(want, "rb") as b:
        assert a.read() == b.read()


def _table_lines(tmp_path, radius=3):
    path = os.path.join(tmp_path, "table.csv")
    gr.write_table_csv(gr.green_table_bessel(0.4, radius=radius), path)
    with open(path) as fh:
        return path, fh.readlines()


# edits of a radius-3 table's lines, each of which leaves the file malformed
MALFORMED = {
    "coordinate_1.0": lambda lines: [*lines, "1.0,0,0,0.06\n"],
    "coordinate_1.5": lambda lines: [*lines, "1.5,0,0,0.06\n"],
    "three_fields": lambda lines: [*lines, "1,0,0\n"],
    "five_fields": lambda lines: [*lines, "1,0,0,0.06,0\n"],
    "empty_body": lambda lines: lines[:2],
    "blank_line": lambda lines: [*lines[:5], "\n", *lines[5:]],
}


@pytest.mark.parametrize("edit", sorted(MALFORMED))
def test_table_csv_reader_rejects_malformed_rows(edit, tmp_path):
    path, lines = _table_lines(tmp_path)
    with open(path, "w") as fh:
        fh.writelines(MALFORMED[edit](lines))
    with pytest.raises(ValueError):
        gr.read_table_csv(path)


@pytest.mark.parametrize("row,match", [
    ("-1,0,0,0.5", r"entry \(1, 0, 0\) another value than the 0\.5 of an earlier row"),
    ("-1,0,0,inf", r"row '-1,0,0,inf' has a non-finite value"),
    ("-1,0,0,nan", r"row '-1,0,0,nan' has a non-finite value")])
def test_table_csv_reader_rejects_a_row_its_sign_flip_image_overrides(row, match,
                                                                      tmp_path):
    # the image of (-1, 0, 0) written later once replaced the bad row silently
    path, lines = _table_lines(tmp_path, radius=2)
    with open(path, "w") as fh:
        fh.writelines([*lines[:2], row + "\n", *lines[2:]])
    with pytest.raises(ValueError, match=match):
        gr.read_table_csv(path)


def test_table_csv_reader_names_the_row_and_entry_that_disagree(tmp_path):
    path, lines = _table_lines(tmp_path, radius=2)
    with open(path, "a") as fh:
        fh.write("0,0,-2,0.5\n")
    with pytest.raises(ValueError, match=r"row '0,0,-2,0\.5' gives the octant entry "
                                         r"\(0, 0, 2\) another value than the 0\.\d+"):
        gr.read_table_csv(path)


def test_table_validate_positivity():
    table = gr.green_table_bessel(0.4, radius=4)
    table.validate()
    bad = gr.GreenTable(estar=0.4, radius=1, method="bessel-integral",
                        tolerance=1e-10, _data=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("coord", [0.7, -0.9, 1.5])
def test_non_integer_coordinates_are_rejected(coord):
    # int() would truncate 0.7 and -0.9 to the origin and 1.5 to site 1
    with pytest.raises(ValueError, match=rf"site \({coord}, 0, 0\) has a non-integer"):
        gr.green_free((coord, 0, 0), 0.3)
    table = gr.green_table_bessel(0.3, radius=3)
    with pytest.raises(ValueError, match=rf"site \(0, 0, {coord}\) has a non-integer"):
        table.value((0, 0, coord))


def test_numpy_integer_coordinates_are_read():
    site = tuple(np.array([2, -1, 0], dtype=np.int64))
    assert gr.green_free(site, 0.3) == gr.green_free((2, -1, 0), 0.3)
    table = gr.green_table_bessel(0.3, radius=3)
    assert table.value(site) == table.value((np.int32(-2), 1, 0)) == table.value((2, 1, 0))


def test_table_rejects_out_of_ball_lookup():
    table = gr.green_table_bessel(0.4, radius=3)
    with pytest.raises(KeyError):
        table.value((3, 3, 3))


def test_large_radius_is_rejected():
    with pytest.raises(ValueError):
        gr.green_table_bessel(0.4, radius=80)
    with pytest.raises(ValueError):
        gr.green_free_fft(256, 0.4, radius=100)


# --- the per-process Bessel-row table against the per-call ive route ---------------


def per_call_ive_rows(orders, t):
    """ive(n, t) rows evaluated afresh for one call, Hankel terms where scipy gives NaN
    (test oracle: the route before the rows were tabulated)."""
    n = np.asarray(orders)[:, None]
    tab = ive(n, t)
    far = np.isnan(tab)
    if far.any():
        mu, z = 4.0 * n * n, 8.0 * t
        ratio = float(np.max(np.where(far, mu / z, 0.0)))
        if ratio > gr.HANKEL_TOL:
            raise NonConvergenceError(f"Hankel ratio {ratio:.2e}", achieved=ratio**3)
        hankel = (1.0 - (mu - 1.0) / z + (mu - 1.0) * (mu - 9.0) / (2.0 * z * z)) \
            / np.sqrt(2.0 * np.pi * t)
        tab = np.where(far, hankel, tab)
    return tab


def fresh_ive_rows(orders, step, count):
    """ive(n, t_k) rows and nodes t_k evaluated afresh for one call."""
    t = np.exp(gr._U_MIN + step * np.arange(count))
    return per_call_ive_rows(orders, t), t


def per_call_trapezoid(orders, estar, rmax, reltol, power, contract, what,
                       rows=fresh_ive_rows):
    """`green._trapezoid` written out plainly, every weight times t**power and every
    check indexed, on `rows(orders, step, count)`: by default ive evaluated on fresh
    nodes at every call (test oracle)."""
    if not (math.isfinite(estar) and estar >= 0):
        raise ValueError("estar must be >= 0 and finite")
    tmax = gr.T_FAR if estar == 0 else \
        min(gr.T_FAR, 60.0 / estar + 1e3 + 10.0 * rmax / math.sqrt(2.0 * estar))
    nodes = math.ceil((math.log(tmax) - gr._U_MIN) / gr._STEP) + 1
    slack = 0.5 - power + estar * tmax
    tail = 2.0 * (2.0 * math.pi) ** -1.5 * tmax ** (power - 0.5) \
        * math.exp(-estar * tmax) / slack if slack > 0 else math.inf

    def weighted(step, count):
        tab, t = rows(orders, step, count)
        return tab, step * t * np.exp(-estar * t) * t**power

    tab, w = weighted(gr._STEP, nodes)
    val, dropped = contract(tab, w)
    floor = nodes * np.finfo(float).eps * val
    err = np.maximum(np.abs(val - contract(tab[:, ::2], 2.0 * w[::2])[0]), floor) \
        + tail + dropped
    if np.any(err > reltol * val):
        err = np.maximum(np.abs(val - contract(*weighted(gr._STEP / 2, 2 * nodes - 1))[0]),
                         floor) + tail + dropped
    bad = np.flatnonzero(~((val > 0.0) & (err <= reltol * val)))
    if bad.size:
        raise NonConvergenceError(what(bad[0]), achieved=float(err.flat[bad[0]]))
    return val


def per_call(fn, *args):
    """fn(*args) with every heat-kernel integral on the per-call ive route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_trapezoid", per_call_trapezoid)
        mp.setattr(se, "_trapezoid", per_call_trapezoid)
        return fn(*args)


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty Bessel-row table for one test; the process-wide one comes back after."""
    monkeypatch.setattr(gr, "_NODES", {})
    monkeypatch.setattr(gr, "_ROWS", {})


TABLE_ESTARS = (0.0, 1e-9, 1e-4, 0.01, 0.45, 6.0)
TABLE_SITES = ((0, 0, 0), (1, 0, 0), (3, -1, 2), (7, 2, 1), (20, 0, 0), (12, 12, 12))


def table_route_values():
    """Every integral the table feeds, in one order of calls."""
    out = {}
    for estar in TABLE_ESTARS:
        out["I1", estar] = se.torus_integral_I1(estar)
        if estar > 0:
            out["I2", estar] = se.torus_integral_I2(estar)
        for x in TABLE_SITES:
            out[x, estar] = gr.green_free(x, estar)
    out["solve"] = se.solve_self_energy(0.3, 0.1)
    out["asymptotics"] = gr.check_asymptotics(range(20, 61, 5), 0.01)
    return out


def test_table_route_equals_per_call_route_exactly(fresh_rows):
    got = table_route_values()
    assert got == per_call(table_route_values)
    # warm rows (all now longer than most calls need) give the same values again
    assert table_route_values() == got


@pytest.mark.parametrize("estar", [0.0, 1e-9, 1e-4, 0.05, 3.0])
def test_trapezoid_bookkeeping_equals_the_plain_copy_bit_for_bit(estar):
    # same rows, so only the trimmed bookkeeping (no t**0, one check pass) differs
    def values():
        out = [se.torus_integral_I1(estar), gr.green_free((3, -1, 2), estar)]
        return [repr(v) for v in out + ([se.torus_integral_I2(estar)] if estar else [])]

    plain = functools.partial(per_call_trapezoid, rows=gr._ive_rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "_trapezoid", plain)
        mp.setattr(se, "_trapezoid", plain)
        want = values()
    assert values() == want


def test_results_do_not_depend_on_call_order(monkeypatch):
    calls = [(se.torus_integral_I1, 0.0), (se.torus_integral_I1, 0.3),
             (se.torus_integral_I2, 1e-9), (gr.green_free, (7, 2, 1), 1e-4),
             (gr.green_free, (0, 0, 5), 6.0), (gr._green_octant, 0.05, 12)]
    oracle = [per_call(fn, *args) for fn, *args in calls]
    for order in (range(len(calls)), range(len(calls) - 1, -1, -1)):
        monkeypatch.setattr(gr, "_NODES", {})
        monkeypatch.setattr(gr, "_ROWS", {})
        got = {i: calls[i][0](*calls[i][1:]) for i in order}
        for i, want in enumerate(oracle):
            assert np.array_equal(got[i], want, equal_nan=True)


@pytest.mark.parametrize("estar", [0.05, 0.5, 1e-9])
@pytest.mark.parametrize("radius", [12, 40])
def test_octants_equal_per_call_route_exactly(estar, radius):
    for build in (lambda: gr._green_octant(estar, radius),          # the kernel cube
                  lambda: gr.green_table_bessel(estar, radius)._data):  # NaN off the ball
        assert np.array_equal(build(), per_call(build), equal_nan=True)


@pytest.mark.parametrize("estar, radius", [
    *((e, r) for e in (0.0, 1e-9, 1e-4, 0.05, 0.45, 3.0) for r in (4, 12, 16, 40)),
    (5.0, 64),  # smallest cube entry 1.8e-140
])
def test_flushed_octants_equal_the_unflushed_product(estar, radius, monkeypatch):
    cube = gr._green_octant(estar, radius)
    ball = gr.green_table_bessel(estar, radius)._data
    monkeypatch.setattr(gr, "_FLUSH", 0.0)  # flushes nothing: the plain ab @ (tab * w).T
    assert np.array_equal(cube, gr._green_octant(estar, radius))
    assert np.array_equal(ball, gr.green_table_bessel(estar, radius)._data, equal_nan=True)


def test_flushed_terms_are_counted_by_the_check(monkeypatch):
    # without the dropped-term bound, this flush moves the table by up to 3e-11
    # relative and no other part of the check notices
    monkeypatch.setattr(gr, "_FLUSH", 1e-17)
    with pytest.raises(NonConvergenceError, match="octant entry"):
        gr.green_table_bessel(0.45, radius=12)


@pytest.mark.parametrize("estar, x", [(2.0, (11, 42, 47)), (5.0, (0, 22, 60))])
def test_half_step_fallback_equals_per_call_route(estar, x, fresh_rows):
    # the every-other-node estimate fails at these points, so the h/2 rows are read
    value = gr.green_free(x, estar)
    assert any(step == gr._STEP / 2 for step, _ in gr._ROWS)
    assert value == per_call(gr.green_free, x, estar)
    assert gr.green_free(x, estar) == value  # warm rows read back the same sums


def test_far_hankel_check_judges_each_calls_own_prefix(monkeypatch):
    # the order-1000 row at E* = 0.01 stops near t = 8e4; at E* = 1e-9 it runs past
    # t = 2^30, where mu/(8t) is too large for three Hankel terms (at E* = 1 the
    # value underflows to 0 on either route)
    with pytest.raises(NonConvergenceError) as oracle:
        per_call(gr.green_free, (1000, 0, 0), 1e-9)
    near = per_call(gr.green_free, (1000, 0, 0), 0.01)
    for near_first in (False, True):
        monkeypatch.setattr(gr, "_NODES", {})
        monkeypatch.setattr(gr, "_ROWS", {})
        if near_first:
            assert gr.green_free((1000, 0, 0), 0.01) == near
        with pytest.raises(NonConvergenceError) as err:
            gr.green_free((1000, 0, 0), 1e-9)
        assert err.value.achieved == oracle.value.achieved
        # a short prefix does not raise because a longer one of the same row did
        assert gr.green_free((1000, 0, 0), 0.01) == near


def test_asymptotics_equal_per_call_route_exactly():
    for distances, estar in ((range(1, 41, 4), 0.01), (range(12, 33, 4), 0.01),
                             ((2, 3, 5, 8), 0.4)):
        assert gr.check_asymptotics(distances, estar) == \
            per_call(gr.check_asymptotics, distances, estar)


def test_stored_rows_are_read_only(fresh_rows):
    gr.green_free((3, 2, 1), 0.3)
    gr.green_free((3, 2, 1), 0.01)  # longer prefixes: the rows were grown
    stored = [row for row, _ in gr._ROWS.values()] + list(gr._NODES.values())
    assert len(stored) == 4
    for arr in stored:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_rows_grow_only_to_the_longest_prefix_asked_for(fresh_rows):
    se.torus_integral_I1(0.3)
    short = len(gr._ROWS[gr._STEP, 0][0])
    assert short == len(gr._NODES[gr._STEP]) < 1000
    se.torus_integral_I1(0.01)
    longer = len(gr._ROWS[gr._STEP, 0][0])
    assert short < longer == len(gr._NODES[gr._STEP]) < 1500
    se.torus_integral_I1(0.3)
    assert len(gr._ROWS[gr._STEP, 0][0]) == longer


def test_table_memory_after_a_spectral_pass(fresh_rows):
    for lam in (0.05, 0.1, 0.2):
        edge = se.threshold_E_eps(lam)
        for energy in np.linspace(edge * 1.05, 2.0, 6):
            se.solve_self_energy(float(energy), lam)
    se.torus_integral_I1(0.0)
    for estar in (0.05, 0.5):
        gr.green_table_bessel(estar, radius=12)
    gr.check_asymptotics(range(20, 61, 5), 0.01)
    gr._green_octant(0.05, 16)
    gr.green_free((0, 0, 0), 0.05)
    full = math.ceil((math.log(gr.T_FAR) - gr._U_MIN) / gr._STEP) + 1  # 2195 nodes
    for (step, _), (row, _) in gr._ROWS.items():
        assert len(row) <= (full if step == gr._STEP else 2 * full - 1)
    stored = sum(row.nbytes for row, _ in gr._ROWS.values()) \
        + sum(t.nbytes for t in gr._NODES.values())
    assert stored < 2**19  # half a MiB


def test_nothing_is_tabulated_at_import():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import lifshitzlab, lifshitzlab.cli; from lifshitzlab import green; "
            "print(len(green._ROWS), len(green._NODES))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


# --- non-finite inputs and the asymptotics input contract ----------------------------


def no_quadrature(*args):
    raise AssertionError("a quadrature ran")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda e: gr.green_free((1, 0, 0), e),
    lambda e: gr.green_table_bessel(e, radius=3),
    lambda e: gr._green_octant(e, 3),
    lambda e: gr.check_asymptotics(range(4, 9), e),
    lambda e: gr.green_free_fft(64, e, radius=4),
    lambda e: gr.periodization_bound(64, 3, e),
], ids=["green_free", "table", "octant", "asymptotics", "fft", "periodization_bound"])
def test_non_finite_estar_is_rejected_before_quadrature(call, bad, monkeypatch):
    monkeypatch.setattr(gr, "_ive_rows", no_quadrature)
    with pytest.raises(ValueError, match="estar must be"):
        call(bad)


@pytest.mark.parametrize("distances, match", [
    ([5], "two distinct"), ([5, 5], "two distinct"), ([0, 5], ">= 1"),
    ([-3, 5], ">= 1"), ([2.7, 5], "integers"), (np.array([2.0, 5.0]), "integers"),
])
def test_asymptotics_rejects_bad_distances_before_quadrature(distances, match,
                                                             monkeypatch):
    # one point fitted a line (RankWarning), 0 reached LAPACK, -3 gave a NaN rate
    # and 2.7 was truncated to 2
    monkeypatch.setattr(gr, "_ive_rows", no_quadrature)
    with pytest.raises(ValueError, match=match):
        gr.check_asymptotics(distances, 0.01)


def test_asymptotics_reads_numpy_integer_distances():
    assert gr.check_asymptotics(np.arange(12, 33, 4), 0.01) == \
        gr.check_asymptotics(range(12, 33, 4), 0.01)


# --- the CSV writer against the per-row writer ---------------------------------------


def per_row_write_table_csv(table, path):
    """The table CSV written one row at a time from a triple loop (test oracle)."""
    header = {"estar": table.estar, "method": table.method,
              "tolerance": table.tolerance, "radius": table.radius,
              "grid_size": table.grid_size}
    r = table.radius
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write("x1,x2,x3,value\n")
        for i in range(-r, r + 1):
            for j in range(-r, r + 1):
                for k in range(-r, r + 1):
                    if i * i + j * j + k * k <= r * r:
                        v = float(table._data[abs(i), abs(j), abs(k)])
                        fh.write(f"{i},{j},{k},{v!r}\n")


@pytest.mark.parametrize("radius", [0, 5, 12])
@pytest.mark.parametrize("method", ["bessel", "fft"])
def test_table_csv_bytes_equal_the_per_row_writer(radius, method, tmp_path):
    table = gr.green_table_bessel(0.05, radius=radius) if method == "bessel" \
        else gr.green_free_fft(128, 0.05, radius=radius)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    gr.write_table_csv(table, fast)
    per_row_write_table_csv(table, slow)
    assert fast.read_bytes() == slow.read_bytes()
    ball = list(table.items())
    assert all(type(c) is int for x, _ in ball for c in x)
    assert all(type(v) is float for _, v in ball)


@pytest.mark.parametrize("estar, value_is_zero", [(1.0, True), (0.5, True), (0.2, False)])
def test_green_free_too_deep_is_a_tail_depth_error(estar, value_is_zero):
    # at E* = 1 and 0.5 every node underflows; at 0.2 the value (8.2e-275) is
    # resolved by too few nodes of the ln-t grid
    with pytest.raises(TailDepthError, match="deeper than the ln-t trapezoid") as err:
        gr.green_free((1000, 0, 0), estar)
    assert isinstance(err.value, NonConvergenceError)
    assert err.value.depth == pytest.approx(1000 * math.sqrt(2 * estar))
    assert (err.value.achieved == 0.0) == value_is_zero
    assert ("on value 0.000e+00" in str(err.value)) == value_is_zero


def test_green_free_depth_threshold_sits_below_the_first_failures():
    # the probe's shallowest failures (E* = 0.05, depth about 346) lie past the
    # threshold; deeper points that converge still return a value
    assert 330 < gr.TRAPEZOID_DEPTH < 346
    assert 0 < gr.green_free((1000, 0, 0), 0.05) < 1e-140      # depth 316
    assert 0 < gr.green_free((300, 0, 0), 2.0) < 1e-230        # depth 600
    with pytest.raises(TailDepthError):
        gr.green_free((1200, 0, 0), 0.05)                       # depth 379


def test_green_free_shallow_failure_stays_a_non_convergence_error(monkeypatch):
    monkeypatch.setattr(gr, "BESSEL_RELTOL", 1e-17)
    with pytest.raises(NonConvergenceError) as err:
        gr.green_free((3, 1, 0), 0.5)
    assert not isinstance(err.value, TailDepthError)
