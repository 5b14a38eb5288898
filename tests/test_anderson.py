import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from lifshitzlab import anderson as am
from lifshitzlab import green as gr
from lifshitzlab import selfenergy as se
from lifshitzlab.density import DensitySpec

SQRT3 = math.sqrt(3.0)


def test_potential_statistics():
    box = am.Box(side=100)  # 1e6 sites in one draw
    pot = am.sample_potential(box, DensitySpec(), seed=11, index=0)
    assert abs(pot.mean()) < 4e-3          # 4 sigma CLT gate
    assert abs(pot.var() - 1.0) < 1e-2
    assert pot.min() >= -SQRT3 and pot.max() <= SQRT3


def test_potential_determinism_and_streams():
    box = am.Box(side=8)
    a = am.sample_potential(box, DensitySpec(), seed=5, index=3)
    b = am.sample_potential(box, DensitySpec(), seed=5, index=3)
    c = am.sample_potential(box, DensitySpec(), seed=5, index=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_box_indexing_roundtrip_and_boundary():
    box = am.Box(side=6)
    for site in ((0, 0, 0), (-3, 2, 1), (2, 2, 2)):
        assert box.site(box.index(site)) == site
    s = box.side
    assert len(box.boundary_indices()) == 6 * s**2 - 12 * s + 8
    with pytest.raises(ValueError):
        box.index((3, 0, 0))  # outside [-3, 2]


def test_box_memory_budget():
    with pytest.raises(ValueError):
        am.Box(side=200)


def test_hamiltonian_row_sums_interior():
    box = am.Box(side=6)
    pot = am.sample_potential(box, DensitySpec(), seed=1, index=0)
    lam = 0.7
    h = am.build_hamiltonian(box, pot, lam)
    rows = np.asarray(h.sum(axis=1)).ravel()
    interior = box.index((0, 0, 0))
    assert rows[interior] == pytest.approx(lam * pot[interior], abs=1e-12)


def test_free_spectrum_in_band_and_tightens():
    e_small = spla.eigsh(am.build_hamiltonian(am.Box(side=8), np.zeros(8**3), 0.0),
                         k=1, which="SA", return_eigenvectors=False)[0]
    e_large = spla.eigsh(am.build_hamiltonian(am.Box(side=16), np.zeros(16**3), 0.0),
                         k=1, which="SA", return_eigenvectors=False)[0]
    assert 0.0 < e_large < e_small < 6.0


def test_ground_state_above_lambda_a():
    box = am.Box(side=10)
    pot = am.sample_potential(box, DensitySpec(), seed=9, index=0)
    lam = 0.5
    h = am.build_hamiltonian(box, pot, lam)
    e0 = spla.eigsh(h, k=1, which="SA", return_eigenvectors=False)[0]
    assert e0 >= lam * (-SQRT3)


def test_resolvent_residual_and_symmetry():
    box = am.Box(side=10)
    pot = am.sample_potential(box, DensitySpec(), seed=2, index=0)
    h = am.build_hamiltonian(box, pot, 0.5)
    col_a = am.resolvent_column(h, 0.45, 1e-3, box, (1, 0, 0))
    col_b = am.resolvent_column(h, 0.45, 1e-3, box, (0, 2, -1))
    assert col_a.residual < 1e-10
    assert abs(col_a.value(box, (0, 2, -1)) - col_b.value(box, (1, 0, 0))) < 1e-10


def test_free_resolvent_matches_lattice_green_within_envelope():
    box = am.Box(side=16)
    estar = 0.3
    h = am.build_hamiltonian(box, np.zeros(box.n_sites), 0.0)
    col = am.resolvent_column(h, estar, 0.0, box, (0, 0, 0))
    kappa = math.sqrt(2.0 * estar)
    envelope = 10.0 * math.exp(-kappa * box.distance_to_boundary((0, 0, 0)))
    for x in ((0, 0, 0), (1, 0, 0), (2, 2, 1), (3, 0, 0)):
        diff = abs(col.value(box, x).real - gr.green_free(x, estar))
        assert diff < envelope


def test_finite_size_control_under_box_doubling():
    estar = 0.3
    kappa = math.sqrt(2.0 * estar)
    vals = {}
    for side in (8, 16):
        box = am.Box(side=side)
        h = am.build_hamiltonian(box, np.zeros(box.n_sites), 0.0)
        col = am.resolvent_column(h, estar, 0.0, box, (0, 0, 0))
        vals[side] = col.value(box, (1, 1, 0)).real
    envelope = 10.0 * math.exp(-kappa * am.Box(side=8).distance_to_boundary((1, 1, 0)))
    assert abs(vals[8] - vals[16]) < envelope


def test_fractional_moment_lam_zero_zero_variance():
    box = am.Box(side=12)
    ctx = se.solve_self_energy(0.3, 0.0)
    pairs = [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (1, 1, 0))]
    est = am.fractional_moment(box, ctx, 0.3, pairs, samples=5, eta_schedule=(0.0,),
                               seed=3)
    assert np.all(est.stderrs == 0.0)
    h = am.build_hamiltonian(box, np.zeros(box.n_sites), 0.0)
    col = am.resolvent_column(h, 0.3, 0.0, box, (0, 0, 0))
    for i, (x, y) in enumerate(est.pairs):
        # x is the origin here, so R(x, y) = col_origin(y) by symmetry
        assert est.estimates[0, i] == pytest.approx(abs(col.value(box, y)) ** 0.3,
                                                    rel=1e-12)
        # equals the infinite-lattice moment up to the finite-size envelope
        kappa = math.sqrt(2.0 * ctx.estar)
        envelope = 10.0 * math.exp(-kappa * box.distance_to_boundary((0, 0, 0)))
        diff = np.subtract(y, x)
        assert abs(est.estimates[0, i] - gr.green_free(diff, 0.3) ** 0.3) < envelope


def test_fractional_moment_eta_stability_small():
    box = am.Box(side=10)
    ctx = se.solve_self_energy(0.45, 0.5)
    est = am.fractional_moment(box, ctx, 0.3, [((0, 0, 0), (2, 0, 0))], samples=40,
                               seed=4)
    assert est.eta_variation(0) < 0.2


def test_fractional_moment_s_dependence_tracks_resolvent_size():
    # in the admissible window the resolvent kernel stays below 1 on desk
    # boxes (no near-resonance tail), so s -> |R|^s is pointwise decreasing
    # and the s = 0.9 estimate sits below the s = 0.3 one
    box = am.Box(side=10)
    ctx = se.solve_self_energy(0.45, 0.5)
    pair = [((0, 0, 0), (1, 0, 0))]
    lo = am.fractional_moment(box, ctx, 0.3, pair, samples=30, eta_schedule=(1e-3,),
                              seed=5)
    hi = am.fractional_moment(box, ctx, 0.9, pair, samples=30, eta_schedule=(1e-3,),
                              seed=5)
    assert 0.0 < hi.estimates[0, 0] < lo.estimates[0, 0]


def test_fractional_moment_validates_s():
    box = am.Box(side=6)
    ctx = se.solve_self_energy(0.3, 0.0)
    with pytest.raises(ValueError):
        am.fractional_moment(box, ctx, 1.2, [((0, 0, 0), (1, 0, 0))], samples=2)


def test_moment_difference_lam_zero_identically_zero():
    box = am.Box(side=10)
    ctx = se.solve_self_energy(0.3, 0.0)
    res = am.moment_difference(box, ctx, 0.3, [((0, 0, 0), (1, 0, 0))], samples=3,
                               seed=1)
    assert np.all(res.estimates == 0.0)
    assert res.fitted_c1 == 0.0


def test_moment_difference_window_exclusion():
    box = am.Box(side=10)
    ctx = se.solve_self_energy(0.45, 0.5)  # E* ~ 0.36: window ~ 1.67
    res = am.moment_difference(box, ctx, 0.3,
                               [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (3, 0, 0))],
                               samples=5, seed=1)
    assert len(res.pairs) == 1
    assert res.excluded_pairs == (((0, 0, 0), (3, 0, 0)),)


def test_moment_difference_c1_stable_and_decreasing():
    box = am.Box(side=12)
    c1s = []
    pairs = [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (1, 1, 0))]
    for lam in (0.3, 0.5):
        energy = se.energy_of_estar(0.3, lam)
        ctx = se.solve_self_energy(energy, lam)
        res = am.moment_difference(box, ctx, 0.3, pairs, samples=60, seed=6)
        c1s.append(res.fitted_c1)
        assert res.estimates[0] > res.estimates[1]  # decays with |x-y|
    assert abs(c1s[0] - c1s[1]) / max(c1s) < 0.5


def test_criterion_lam_zero_deterministic_and_consistent():
    ctx = se.solve_self_energy(0.3, 0.0)
    res = am.finite_volume_criterion(7, ctx, s=0.2, b=0.5, B_s=1.0, samples=3)
    assert res.stderr == 0.0
    assert not res.lambda_factor_applied
    assert res.value == pytest.approx(7**4 * res.raw_boundary_sum, rel=1e-12)
    assert res.implied_decay_rate == pytest.approx(math.log(0.5) / 7)
    # independent direct evaluation of the boundary sum
    box = am.Box(side=14)
    h = am.build_hamiltonian(box, np.zeros(box.n_sites), 0.0)
    col = am.resolvent_column(h, 0.3, 0.0, box, (0, 0, 0))
    direct = float(np.sum(np.abs(col.values[box.boundary_indices()]) ** 0.2))
    assert res.raw_boundary_sum == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("cg_result", ["breakdown", "bad residual"])
def test_criterion_falls_back_to_factorization_at_same_eta(monkeypatch, cg_result):
    ctx = se.solve_self_energy(0.85, 0.5)
    L, s = 5, 0.24
    box = am.Box(side=2 * L)
    pot = am.sample_potential(box, DensitySpec(), 3, 0)
    h = am.build_hamiltonian(box, pot, ctx.lam)
    col = am.resolvent_column(h, ctx.energy, 0.0, box, (0, 0, 0))
    assert not np.iscomplexobj(col.values)  # eta = 0 is a real solve
    direct = float(np.sum(np.abs(col.values[box.boundary_indices()]) ** s))

    res = am.finite_volume_criterion(L, ctx, s, samples=1, seed=3)
    assert res.fallbacks == 0
    assert res.raw_boundary_sum == pytest.approx(direct, rel=1e-8)

    wrong = col.values + 1e-6
    monkeypatch.setattr(am, "_cg_column",
                        lambda *args, **kw: None if cg_result == "breakdown" else wrong)
    res = am.finite_volume_criterion(L, ctx, s, samples=1, seed=3)
    assert res.fallbacks == 1
    assert res.raw_boundary_sum == direct


def test_criterion_validates_inputs():
    ctx = se.solve_self_energy(0.3, 0.0)
    with pytest.raises(ValueError):
        am.finite_volume_criterion(5, ctx, s=0.3)  # s >= 1/4
    with pytest.raises(ValueError):
        am.finite_volume_criterion(5, ctx, s=0.2, b=1.5)


def test_correlation_fit_synthetic_exponential():
    data = [(r, math.exp(-r / 10.0)) for r in (4, 6, 9, 14, 20)]
    fit = am.correlation_length_fit(data, s=1.0)
    assert fit.xi == pytest.approx(10.0, rel=0.01)
    assert fit.ci_low <= 10.0 + 1e-6 and fit.ci_high >= 10.0 - 1e-6


def test_correlation_fit_lam_zero_green_moments():
    s, estar = 0.3, 0.2
    data = [(r, gr.green_free((r, 0, 0), estar) ** s) for r in (20, 28, 40, 60)]
    fit = am.correlation_length_fit(data, s=s)
    assert fit.xi == pytest.approx(1.0 / math.sqrt(2 * estar), rel=0.10)


def test_correlation_fit_no_decay_flag():
    data = [(r, 0.1 + 0.01 * r) for r in (2, 4, 6, 8)]
    fit = am.correlation_length_fit(data, s=0.5)
    assert fit.no_decay and fit.xi == math.inf


def test_correlation_fit_input_validation():
    with pytest.raises(ValueError):
        am.correlation_length_fit([(1, 0.5), (2, 0.4), (3, 0.3)], s=0.5)
    with pytest.raises(ValueError):
        am.correlation_length_fit([(2, 0.5), (3, 0.4), (4, 0.3), (5, 0.2)], s=0.5)


def test_full_determinism_of_estimates():
    box = am.Box(side=8)
    ctx = se.solve_self_energy(0.45, 0.5)
    kwargs = dict(eta_schedule=(1e-3,), seed=12)
    a = am.fractional_moment(box, ctx, 0.3, [((0, 0, 0), (1, 0, 0))], 10, **kwargs)
    b = am.fractional_moment(box, ctx, 0.3, [((0, 0, 0), (1, 0, 0))], 10, **kwargs)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.stderrs, b.stderrs)
