import math
from types import SimpleNamespace

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
    residual = h @ col_a + (0.45 + 1e-3j) * col_a
    residual[box.index((1, 0, 0))] -= 1.0
    assert np.linalg.norm(residual) < 1e-10
    assert abs(col_a[box.index((0, 2, -1))] - col_b[box.index((1, 0, 0))]) < 1e-10


def test_free_resolvent_matches_lattice_green_within_envelope():
    box = am.Box(side=16)
    estar = 0.3
    h = am.build_hamiltonian(box, np.zeros(box.n_sites), 0.0)
    col = am.resolvent_column(h, estar, 0.0, box, (0, 0, 0))
    kappa = math.sqrt(2.0 * estar)
    envelope = 10.0 * math.exp(-kappa * box.distance_to_boundary((0, 0, 0)))
    for x in ((0, 0, 0), (1, 0, 0), (2, 2, 1), (3, 0, 0)):
        diff = abs(col[box.index(x)] - gr.green_free(x, estar))
        assert diff < envelope


def test_finite_size_control_under_box_doubling():
    estar = 0.3
    kappa = math.sqrt(2.0 * estar)
    vals = {}
    for side in (8, 16):
        box = am.Box(side=side)
        h = am.build_hamiltonian(box, np.zeros(box.n_sites), 0.0)
        col = am.resolvent_column(h, estar, 0.0, box, (0, 0, 0))
        vals[side] = col[box.index((1, 1, 0))]
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
        assert est.estimates[0, i] == pytest.approx(abs(col[box.index(y)]) ** 0.3,
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


def test_lam_zero_solves_each_column_once(monkeypatch):
    # at lam = 0 every disorder sample sees the same operator
    solve, calls = am._resolvent_columns, []

    def counted(box, potential, lam, energy, ys, etas, tol):
        calls.extend(ys)
        return solve(box, potential, lam, energy, ys, etas, tol)

    monkeypatch.setattr(am, "_resolvent_columns", counted)
    box = am.Box(side=8)
    ctx = se.solve_self_energy(0.3, 0.0)
    pairs = [((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (1, 0, 0))]
    est = am.fractional_moment(box, ctx, 0.3, pairs, samples=6, seed=2)
    assert sorted(calls) == [(0, 0, 0), (1, 0, 0)]
    assert np.all(est.stderrs == 0.0)
    calls.clear()
    am.moment_difference(box, ctx, 0.3, pairs, samples=6, seed=2)
    # one free column and one lam = 0 column per y
    assert sorted(calls) == [(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 0, 0)]


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
    direct = float(np.sum(np.abs(col[box.boundary_indices()]) ** 0.2))
    assert res.raw_boundary_sum == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("cg_result", ["breakdown", "bad residual"])
def test_criterion_falls_back_to_factorization_at_same_eta(monkeypatch, cg_result):
    ctx = se.solve_self_energy(0.85, 0.5)
    L, s = 5, 0.24
    box = am.Box(side=2 * L)
    pot = am.sample_potential(box, DensitySpec(), 3, 0)
    h = am.build_hamiltonian(box, pot, ctx.lam)
    col = am.resolvent_column(h, ctx.energy, 0.0, box, (0, 0, 0))
    assert not np.iscomplexobj(col)  # eta = 0 is a real solve
    direct = float(np.sum(np.abs(col[box.boundary_indices()]) ** s))

    res = am.finite_volume_criterion(L, ctx, s, samples=1, seed=3)
    assert res.fallbacks == 0
    assert res.raw_boundary_sum == pytest.approx(direct, rel=1e-8)

    wrong = col + 1e-6
    monkeypatch.setattr(am, "_krylov_columns",
                        lambda *args, **kw: None if cg_result == "breakdown"
                        else ([wrong], 1))
    res = am.finite_volume_criterion(L, ctx, s, samples=1, seed=3)
    assert res.fallbacks == 1
    assert res.raw_boundary_sum == direct


def plain_cg(side, shift, pot, rhs_index, tol):
    """Unshifted CG on the stencil: the reference for the engine's seed."""
    b = np.zeros((side, side, side))
    b.ravel()[rhs_index] = 1.0
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = 1.0
    for _ in range(am.KRYLOV_MAXIT):
        ap = am._apply_stencil(p, shift, pot)
        alpha = rs / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        if math.sqrt(rs_new) < tol:
            return x.ravel()
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise AssertionError("plain CG did not converge")


def test_unshifted_engine_is_plain_cg():
    box = am.Box(side=14)
    pot = 0.5 * am.sample_potential(box, DensitySpec(), 5, 0).reshape((14,) * 3)
    origin = box.index((0, 0, 0))
    (u,), _ = am._krylov_columns(14, 0.85, pot, origin, (0.0,), am.CG_TOL)
    assert np.array_equal(u, plain_cg(14, 0.85, pot, origin, am.CG_TOL))


def _within(box, y, radius):
    off = box.origin_offset
    return [box.index((a - off, b - off, c - off))
            for a, b, c in np.ndindex((box.side,) * 3)
            if abs(a - off - y[0]) + abs(b - off - y[1]) + abs(c - off - y[2]) <= radius]


@pytest.mark.parametrize("side, lam, energy, etas", [
    (12, 0.5, 0.45, (1e-2, 1e-3, 1e-4)),
    (18, 0.3, se.energy_of_estar(0.1, 0.3), (1e-3,)),  # E* = 0.1
])
def test_krylov_columns_match_factorization(side, lam, energy, etas):
    box = am.Box(side=side)
    y = (0, 0, 0)
    near = _within(box, y, 5)
    for index in range(2):
        pot = am.sample_potential(box, DensitySpec(), 3, index)
        pot_grid = (lam * pot).reshape((side,) * 3)
        cols, its = am._krylov_columns(side, energy, pot_grid, box.index(y), etas,
                                       am.KRYLOV_TOL)
        assert 0 < its < am.KRYLOV_MAXIT
        h = am.build_hamiltonian(box, pot, lam)
        for eta, u in zip(etas, cols):
            res = am._apply_stencil(u.reshape((side,) * 3), energy + 1j * eta,
                                    pot_grid).ravel()
            res[box.index(y)] -= 1.0
            assert np.linalg.norm(res) <= am.RESIDUAL_TOL
            ref = np.abs(am.resolvent_column(h, energy, eta, box, y)[near])
            assert np.max(np.abs(np.abs(u[near]) - ref) / ref) <= 1e-12


def test_moments_need_no_sparse_hamiltonian(monkeypatch):
    def no_matrix(*args, **kw):
        raise AssertionError("the Krylov path built a sparse Hamiltonian")

    monkeypatch.setattr(am, "build_hamiltonian", no_matrix)
    box = am.Box(side=8)
    ctx = se.solve_self_energy(0.45, 0.5)
    pairs = [((1, 0, 0), (0, 0, 0)), ((0, 1, 1), (1, 0, 0))]
    est = am.fractional_moment(box, ctx, 0.3, pairs, samples=3, seed=2)
    assert est.fallbacks == 0
    assert 0 < est.krylov_iterations < am.KRYLOV_MAXIT
    diff = am.moment_difference(box, ctx, 0.3, pairs[:1], samples=2, seed=2, eta=1e-3)
    assert diff.fallbacks == 0
    assert 0 < diff.krylov_iterations < am.KRYLOV_MAXIT


def _splu_column(box, context, eta, y, seed):
    pot = am.sample_potential(box, DensitySpec(), seed, 0)
    h = am.build_hamiltonian(box, pot, context.lam)
    return am.resolvent_column(h, context.energy, eta, box, y)


@pytest.mark.parametrize("engine_result", ["breakdown", "bad residual"])
def test_fractional_moment_falls_back_to_factorization(monkeypatch, engine_result):
    box = am.Box(side=8)
    ctx = se.solve_self_energy(0.45, 0.5)
    x, y, eta = (1, 0, 0), (0, 0, 0), 1e-3
    col = _splu_column(box, ctx, eta, y, seed=4)
    wrong = col + 1e-6
    monkeypatch.setattr(am, "_krylov_columns",
                        lambda *args, **kw: None if engine_result == "breakdown"
                        else ([wrong], 1))
    est = am.fractional_moment(box, ctx, 0.3, [(x, y)], samples=1, eta_schedule=(eta,),
                               seed=4)
    assert est.fallbacks == 1
    assert est.estimates[0, 0] == abs(col[box.index(x)]) ** 0.3


def test_indefinite_seed_falls_back_to_factorization():
    # at lam = 0 and E = -7, H + E is negative definite (H sits in [0, 6])
    box = am.Box(side=6)
    ctx = SimpleNamespace(lam=0.0, energy=-7.0)
    x, y, eta = (1, 0, 0), (0, 0, 0), 1e-3
    est = am.fractional_moment(box, ctx, 0.3, [(x, y)], samples=1, eta_schedule=(eta,),
                               seed=1)
    assert est.fallbacks == 1
    assert est.krylov_iterations == 0
    col = _splu_column(box, ctx, eta, y, seed=1)
    assert est.estimates[0, 0] == abs(col[box.index(x)]) ** 0.3


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
