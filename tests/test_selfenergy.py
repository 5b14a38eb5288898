import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifshitzlab import green as gr
from lifshitzlab import selfenergy as se
from lifshitzlab.errors import BelowLifshitzWindowError, NonConvergenceError

WATSON = 0.5054620  # I1(0), cross-checked against the closed form
MIDPOINT_GRID = 4096  # nodes per axis of the converged midpoint oracle


def midpoint_pair(n: int, estar: float):
    """Exact tensor-midpoint values of (I1, I2) on an n^3 grid, n even (test oracle).

    The innermost axis is summed in closed form,
    (1/N) sum_k 1/(A - cos theta_k) = tanh((N/2) ln w) / sqrt(A^2 - 1) with
    w = A + sqrt(A^2 - 1), which makes the N^3-node rule an O(N^2) computation;
    for estar > 0 it converges like exp(-2N sqrt(2 estar)).  Works with
    d = A - 1 = estar + e1(x) + e1(y) > 0 to avoid cancellation near the
    dispersion minimum.
    """
    k = np.arange(n // 2)
    x = (k + 0.5) / n - 0.5
    s = 2.0 * np.sin(np.pi * x) ** 2
    d = estar + s[:, None] + s[None, :]
    root = np.sqrt(d * (2.0 + d))  # sqrt(A^2 - 1)
    t = 0.5 * n * np.log1p(d + root)
    T = np.tanh(t)
    g = T / root
    i1 = 4.0 * float(np.sum(g)) / n**2
    # d/dA of the closed-form inner sum; I2 = -dI1/dE*
    A = 1.0 + d
    gprime = -A * T / root**3 + 0.5 * n * (1.0 - T * T) / (d * (2.0 + d))
    i2 = -4.0 * float(np.sum(gprime)) / n**2
    return i1, i2


def test_dispersion_trivial_points():
    assert se.dispersion((0.0, 0.0, 0.0)) == 0.0
    assert se.dispersion((0.5, 0.5, 0.5)) == pytest.approx(6.0, abs=1e-14)
    assert se.dispersion((0.5, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-14)


coords = st.floats(-3.0, 3.0, allow_nan=False)


@given(st.tuples(coords, coords, coords))
@settings(max_examples=200, deadline=None)
def test_dispersion_range_evenness_periodicity(p):
    p = np.array(p)
    val = se.dispersion(p)
    assert 0.0 <= val <= 6.0 + 1e-12
    assert se.dispersion(-p) == pytest.approx(val, abs=1e-12)
    assert se.dispersion(p + 1.0) == pytest.approx(val, abs=1e-9)


def test_pointwise_propagator_bound_dense_grid():
    # e(p) >= p^2 on the torus, so (e+E*)^{-1} <= (p^2+E*)^{-1}
    x = np.linspace(-0.5, 0.5, 41)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    e = 2.0 * (np.sin(np.pi * X) ** 2 + np.sin(np.pi * Y) ** 2 + np.sin(np.pi * Z) ** 2)
    p2 = X**2 + Y**2 + Z**2
    assert np.all(e >= p2 - 1e-12)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("estar", [0.0, 0.3, 2.0])
def test_midpoint_closed_form_matches_brute_force(n, estar):
    k = np.arange(n)
    x = (k + 0.5) / n - 0.5
    e1 = 2.0 * np.sin(np.pi * x) ** 2
    grid = e1[:, None, None] + e1[None, :, None] + e1[None, None, :]
    if estar == 0.0:
        brute1 = float(np.mean(1.0 / grid))  # even n: p=0 is never a node
        assert midpoint_pair(n, estar)[0] == pytest.approx(brute1, abs=1e-13)
    else:
        brute1 = float(np.mean(1.0 / (grid + estar)))
        brute2 = float(np.mean(1.0 / (grid + estar) ** 2))
        i1, i2 = midpoint_pair(n, estar)
        assert i1 == pytest.approx(brute1, abs=1e-13)
        assert i2 == pytest.approx(brute2, abs=1e-11)


def test_i1_zero_matches_watson_closed_form():
    val = se.torus_integral_I1(0.0)
    assert val == pytest.approx(se.watson_constant(), abs=1e-8)
    assert val == pytest.approx(WATSON, abs=1e-5)
    assert se.i1_zero() == pytest.approx(se.watson_constant(), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("which, estar", [(0, 1e-4), (1, 0.1)])
def test_torus_integrals_match_converged_midpoint_oracle(which, estar):
    value = (se.torus_integral_I1, se.torus_integral_I2)[which](estar)
    assert value == pytest.approx(midpoint_pair(MIDPOINT_GRID, estar)[which],
                                   rel=1e-12, abs=0.0)


@pytest.mark.parametrize("estar", [0.0, 1e-9, 1e-7, 1e-4, 0.3])
def test_lattice_equation_links_i1_to_the_nearest_neighbour(estar):
    # (-Delta/2 + E*) G = delta at the origin: (3 + E*) G(0) - 3 G(e1) = 1
    expected = ((3.0 + estar) * se.torus_integral_I1(estar) - 1.0) / 3.0
    assert gr.green_free((1, 0, 0), estar) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_small_estar_asymptotics():
    # I1(0) - I1(E*) ~ (sqrt(2)/2pi) sqrt(E*) and sqrt(E*) I2(E*) -> sqrt(2)/(4pi)
    estar = 1e-10
    slope = (se.i1_zero() - se.torus_integral_I1(estar)) / math.sqrt(estar)
    assert slope == pytest.approx(math.sqrt(2.0) / (2.0 * math.pi), rel=1e-4)
    scaled = math.sqrt(estar) * se.torus_integral_I2(estar)
    assert scaled == pytest.approx(math.sqrt(2.0) / (4.0 * math.pi), rel=1e-4)


@pytest.mark.parametrize("estar", [1e-14, 1e-12, 1e-9, 1e-7, 5e-7])
def test_torus_integrals_finite_below_1e_minus_6(estar):
    i1, i2 = se.torus_integral_I1(estar), se.torus_integral_I2(estar)
    assert math.isfinite(i1) and math.isfinite(i2)
    assert se.torus_integral_I1(1e-6) < i1 < se.i1_zero()
    assert i2 > se.torus_integral_I2(1e-6)


def test_i2_at_zero_is_rejected():
    with pytest.raises(ValueError):
        se.torus_integral_I2(0.0)
    with pytest.raises(ValueError):
        se.torus_integral_I1(-1e-9)


def test_i1_large_estar_flat_limit():
    # integrand ~ 1/(<e> + E*) with <e> = 3
    val = se.torus_integral_I1(100.0)
    assert 1.0 / 106.0 < val < 1.0 / 100.0
    assert val == pytest.approx(1.0 / 103.0, rel=0.03)


def test_i1_strictly_decreasing():
    assert se.torus_integral_I1(0.1) > se.torus_integral_I1(0.2)
    assert se.torus_integral_I1(0.0) > se.torus_integral_I1(1e-4)


def test_i2_equals_minus_derivative_of_i1():
    h = 1e-5
    estar = 0.01
    fd = (se.torus_integral_I1(estar - h) - se.torus_integral_I1(estar + h)) / (2 * h)
    assert abs(se.torus_integral_I2(estar) - fd) < 1e-4


def test_i2_large_estar():
    assert se.torus_integral_I2(100.0) == pytest.approx(1.0 / 103.0**2, rel=0.10)


def test_i2_sqrt_estar_scaling_window():
    estar = 1e-4
    scaled = []
    while estar <= 0.1 + 1e-12:
        scaled.append(se.torus_integral_I2(estar) * math.sqrt(estar))
        estar *= 2.0
    c_low, c_high = min(scaled), max(scaled)
    assert c_low > 0.0
    assert c_high / c_low < 2.0  # tight sandwich around sqrt(2)/(4 pi)


def test_energy_of_estar_lam_zero():
    assert se.energy_of_estar(0.37, 0.0) == 0.37


def test_energy_of_estar_rejects_negative_lam(monkeypatch):
    # energy_of_estar(0.3, -0.5) returned 0.394, the E of lam = +0.5
    monkeypatch.setattr(se, "_trapezoid", no_quadrature)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        se.energy_of_estar(0.3, -0.5)


def test_energy_of_estar_zero_limit():
    # E(E*) -> lam^2 I1(0) as E* -> 0+, with the sqrt(E*) approach envelope
    lam = 0.2
    target = lam**2 * se.i1_zero()
    gaps = []
    for estar in (1e-2, 1e-3, 1e-4):
        gap = abs(se.energy_of_estar(estar, lam) - target)
        assert gap < estar + 0.3 * lam**2 * math.sqrt(estar)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_energy_extremum_unique_on_log_grid():
    lam = 0.5
    grid = np.logspace(-5, 0.5, 60)
    deriv = np.array([1.0 - lam**2 * se.torus_integral_I2(t) for t in grid])
    flips = np.sum(np.sign(deriv[:-1]) != np.sign(deriv[1:]))
    assert flips == 1


def test_solve_trivial_lam_zero():
    ctx = se.solve_self_energy(0.3, 0.0)
    assert ctx.sigma == 0.0 and ctx.estar == 0.3
    with pytest.raises(ValueError):
        se.solve_self_energy(0.3, 0.0, epsilon=5.0)


def test_solve_roundtrip_and_sigma_bound():
    lam = 0.1
    cap = lam**2 * se.i1_zero()
    for energy in np.linspace(se.threshold_E_eps(lam), cap + lam, 8):
        ctx = se.solve_self_energy(float(energy), lam)
        assert ctx.residual() < 1e-10
        assert abs(se.energy_of_estar(ctx.estar, lam) - energy) < 1e-10
        assert 0.0 < ctx.sigma <= cap * (1 + 1e-9)


def test_solve_inverts_energy_of_estar():
    # the map estar -> E -> solve(E).estar is the identity on the branch
    lam = 0.2
    for estar in (0.01, 0.05, 0.2, 0.6):
        energy = se.energy_of_estar(estar, lam)
        ctx = se.solve_self_energy(energy, lam)
        assert abs(ctx.estar - estar) < 1e-10


def _window_grid():
    """(lam, eps, E): 40 couplings to 0.9, four eps, E_eps and 25 energies to 60."""
    for lam in np.geomspace(1e-3, 0.9, 40):
        for eps in (0.5, 1.0, 2.0, 3.5):
            edge = se.threshold_E_eps(float(lam), eps)
            for energy in (edge, *np.geomspace(edge, 60.0, 25)):
                yield float(lam), eps, float(energy)


def test_newton_takes_at_most_three_steps_and_then_descends(monkeypatch):
    # convexity of E(E*) right of the branch point: the first step lands at or
    # right of the root and later iterates fall monotonically onto it
    iterates, slopes = [], []
    energy_of_estar, i2 = se.energy_of_estar, se.torus_integral_I2
    monkeypatch.setattr(se, "energy_of_estar",
                        lambda x, lam: iterates.append(x) or energy_of_estar(x, lam))
    monkeypatch.setattr(se, "torus_integral_I2",
                        lambda x: slopes.append(x) or i2(x))
    solves = 0
    for lam, eps, energy in _window_grid():
        iterates.clear()
        slopes.clear()
        se.solve_self_energy(energy, lam, epsilon=eps)
        solves += 1
        assert len(slopes) <= 3, (lam, eps, energy)
        assert all(a >= b for a, b in zip(iterates[1:], iterates[2:])), (lam, eps, energy)
    assert solves == 4160


@pytest.mark.parametrize("lam, eps", [(1.1, 3.5), (1.5, 1.0), (2.0, 1.0)])
def test_solve_at_the_window_edge_for_strong_coupling(lam, eps):
    # lo = 4 (lam^2 I1(0))^2 lies above the root here; a bracket from lo failed
    energy = se.threshold_E_eps(lam, eps)
    ctx = se.solve_self_energy(energy, lam, epsilon=eps)
    assert ctx.residual() <= se.NEWTON_TOL * max(1.0, energy)
    assert 1.0 - lam**2 * se.torus_integral_I2(ctx.estar) > 0.0  # increasing branch


def test_from_estar_is_a_fixed_point_the_solver_returns():
    points = 0
    for lam in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8):
        for estar in (0.01, 0.05, 0.1, 0.3, 0.45, 1.0, 3.0):
            ctx = se.EnergyContext.from_estar(lam, estar)
            if ctx.energy < se.threshold_E_eps(lam):
                continue
            points += 1
            assert ctx.residual() <= se.NEWTON_TOL * max(1.0, ctx.energy)
            assert se.solve_self_energy(ctx.energy, lam).estar == \
                pytest.approx(estar, rel=1e-12, abs=0.0)
    assert points == 33


def test_solve_below_window_raises():
    lam = 0.1
    with pytest.raises(BelowLifshitzWindowError):
        se.solve_self_energy(0.5 * se.threshold_E_eps(lam), lam)


def test_threshold_values():
    assert se.threshold_E_eps(0.0) == 0.0
    expected = 0.01 * se.i1_zero() + 0.001
    assert se.threshold_E_eps(0.1, 1.0) == pytest.approx(expected, rel=1e-12)


def test_threshold_estar_scale_fitted_constant():
    # at E = E_eps the solved E* stays above c * lam^{4-eps} for a single c > 0
    ratios = []
    for lam in (0.05, 0.1, 0.2):
        ctx = se.solve_self_energy(se.threshold_E_eps(lam, 1.0), lam, epsilon=1.0)
        ratios.append(ctx.estar / lam**3)
    c_fit = min(ratios)
    assert c_fit > 0.0


def test_nonconvergence_reports_achieved_estimate(monkeypatch):
    monkeypatch.setattr(se, "QUAD_TOL", 1e-16)  # below the summation-rounding floor
    with pytest.raises(NonConvergenceError) as err:
        se.torus_integral_I1(1e-6)
    assert err.value.achieved is not None and err.value.achieved > 0


def test_energy_context_invariants():
    with pytest.raises(ValueError):
        se.EnergyContext(lam=0.1, energy=0.3, estar=0.2, sigma=0.2)  # sigma != E - E*
    with pytest.raises(ValueError):
        se.EnergyContext(lam=0.1, energy=0.3, estar=-0.1, sigma=0.4)


def no_quadrature(*args):
    raise AssertionError("a quadrature ran")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: se.torus_integral_I1(v),
    lambda v: se.torus_integral_I2(v),
    lambda v: se.energy_of_estar(v, 0.5),
    lambda v: se.energy_of_estar(v, 0.0),
    lambda v: se.energy_of_estar(0.3, v),
    lambda v: se.EnergyContext.from_estar(0.5, v),
    lambda v: se.EnergyContext.from_estar(v, 0.3),
    lambda v: se.EnergyContext(lam=0.5, energy=v, estar=v, sigma=v),
    lambda v: se.EnergyContext(lam=0.5, energy=0.3, estar=0.2, sigma=v),
    lambda v: se.solve_self_energy(v, 0.5),
    lambda v: se.solve_self_energy(0.5, v),
    lambda v: se.threshold_E_eps(v),
], ids=["I1", "I2", "energy_of_estar", "energy_of_estar_lam0", "energy_of_estar_lam",
        "from_estar", "from_estar_lam", "context", "context_sigma", "solve_energy",
        "solve_lam", "threshold"])
def test_non_finite_inputs_are_rejected_before_quadrature(call, bad, monkeypatch):
    # NaN passed every `<= 0` check: I1(nan) was nan, solve_self_energy ran 200
    # Newton steps, and E* = inf ended in NonConvergenceError on a zero value
    se.i1_zero()  # cached before the quadrature is switched off
    monkeypatch.setattr(se, "_trapezoid", no_quadrature)
    with pytest.raises(ValueError):
        call(bad)
