import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
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
        offset = tuple(c + box.origin_offset for c in site)
        assert box.index(site) == np.ravel_multi_index(offset, (box.side,) * 3)
    s = box.side
    assert len(box.boundary_indices()) == 6 * s**2 - 12 * s + 8
    with pytest.raises(ValueError, match=r"site \(3, 0, 0\) outside the cube \[-3, 2\]\^3"):
        box.index((3, 0, 0))
    with pytest.raises(ValueError, match=r"site \(0, -6, 0\) outside the cube \[-5, 5\]\^3"):
        am.Box(side=11).index((0, -6, 0))


@pytest.mark.parametrize("site", [(), (1, 2), (1, 2, 3, 4)])
def test_sites_have_three_coordinates(site):
    # green_free read (1, 2) as a 2D and (1, 2, 3, 4) as a 4D lattice point
    table = gr.green_table_bessel(0.3, radius=3)
    for read in (lambda: gr.green_free(site, 0.3), lambda: table.value(site),
                 lambda: am.Box(side=6).index(site)):
        with pytest.raises(ValueError, match=rf"has {len(site)} coordinates, not 3"):
            read()


@pytest.mark.parametrize("coord", [0.7, -0.9, 1.5])
def test_box_rejects_non_integer_coordinates(coord):
    # int() would truncate 0.7 and -0.9 to the origin and 1.5 to site 1
    box = am.Box(side=6)
    with pytest.raises(ValueError, match=rf"site \({coord}, 0, 0\) has a non-integer"):
        box.index((coord, 0, 0))
    with pytest.raises(ValueError, match=rf"site \(0, {coord}, 0\) has a non-integer"):
        box.distance_to_boundary((0, coord, 0))


def test_box_reads_numpy_integer_coordinates():
    box = am.Box(side=6)
    site = tuple(np.array([-3, 2, 1], dtype=np.int64))
    assert box.index(site) == box.index((-3, 2, 1))
    assert box.distance_to_boundary(site) == box.distance_to_boundary((-3, 2, 1)) == 0
    assert box.distance_to_boundary((np.int32(1), 0, np.int64(-1))) == 1


@pytest.mark.parametrize("side", [7.5, 8.0, "8"])
def test_box_rejects_a_non_integer_side(side):
    # read as it stands, side 7.5 gives 421.875 sites and the origin index 194.25
    with pytest.raises(ValueError, match="side must be an integer"):
        am.Box(side=side)


def test_box_reads_a_numpy_integer_side():
    box = am.Box(side=np.int64(7))
    assert type(box.side) is int and box == am.Box(side=7)
    assert box.n_sites == 343 and box.index((0, 0, 0)) == 171


@pytest.mark.parametrize("side", [2, 3, 6, 11])
def test_boundary_indices_are_the_six_faces(side):
    grid = np.zeros((side,) * 3, dtype=bool)
    grid[0, :, :] = grid[-1, :, :] = True
    grid[:, 0, :] = grid[:, -1, :] = True
    grid[:, :, 0] = grid[:, :, -1] = True
    assert np.array_equal(am.Box(side=side).boundary_indices(), np.flatnonzero(grid))


def test_box_memory_budget():
    # a Box is geometry of any size; what allocates per-site state checks the budget
    box = am.Box(side=200)
    assert box.n_sites > am.MAX_BOX_SITES
    with pytest.raises(ValueError, match="memory budget"):
        am.build_hamiltonian(box, np.broadcast_to(0.0, (box.n_sites,)), 0.0)
    with pytest.raises(ValueError, match="memory budget"):
        am.sample_potential(box, DensitySpec(), seed=0, index=0)
    pairs = [((1, 0, 0), (0, 0, 0))]
    for ctx in (se.solve_self_energy(0.45, 0.5), SimpleNamespace(lam=0.0, energy=0.45)):
        with pytest.raises(ValueError, match="memory budget"):
            am.fractional_moment(box, ctx, 0.3, pairs, samples=1)
    with pytest.raises(ValueError, match="memory budget"):
        am.finite_volume_criterion(100, se.solve_self_energy(0.85, 0.5), 0.24)


def kronecker_hamiltonian(box, potential, lam):
    """3 I - adj / 2 + lam V from Kronecker products of the 1D chain (test oracle)."""
    side = box.side
    ones = np.ones(side - 1)
    d1 = sp.diags([ones, ones], [-1, 1], shape=(side, side))
    eye = sp.identity(side)
    adj = (sp.kron(sp.kron(d1, eye), eye)
           + sp.kron(sp.kron(eye, d1), eye)
           + sp.kron(sp.kron(eye, eye), d1))
    h = (3.0 * sp.identity(box.n_sites) - 0.5 * adj).tocsc()
    if lam != 0.0:
        h = h + sp.diags(lam * potential)
    return h.tocsc()


@pytest.mark.parametrize("side", [2, 5, 8, 25])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_hamiltonian_equals_kronecker_build(side, lam):
    box = am.Box(side=side)
    pot = am.sample_potential(box, DensitySpec(), seed=4, index=side)
    h = am.build_hamiltonian(box, pot, lam)
    oracle = kronecker_hamiltonian(box, pot, lam)
    assert h.format == "csc" and h.dtype == oracle.dtype
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(h, name), getattr(oracle, name))


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


def test_lam_zero_solves_each_column_once(monkeypatch):
    # at lam = 0 every disorder sample sees the same operator
    solve, calls = am._resolvent_columns, []

    def counted(box, potential, context, ys, etas, tol):
        calls.extend(ys)
        return solve(box, potential, context, ys, etas, tol)

    monkeypatch.setattr(am, "_resolvent_columns", counted)
    box = am.Box(side=8)
    ctx = se.solve_self_energy(0.3, 0.0)
    pairs = [((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (1, 0, 0))]
    est = am.fractional_moment(box, ctx, 0.3, pairs, samples=6, seed=2)
    assert sorted(calls) == [(0, 0, 0), (1, 0, 0)]
    assert np.all(est.stderrs == 0.0)


@pytest.mark.parametrize("call", [
    lambda ctx, n: am.fractional_moment(am.Box(side=6), ctx, 0.3,
                                        [((0, 0, 0), (1, 0, 0))], samples=n),
    lambda ctx, n: am.finite_volume_criterion(3, ctx, 0.2, samples=n),
], ids=["fractional_moment", "criterion"])
def test_zero_samples_are_rejected_before_solving(monkeypatch, call):
    calls = []
    monkeypatch.setattr(am, "_resolvent_columns", lambda *args: calls.append(args))
    ctx = se.solve_self_energy(0.45, 0.5)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        call(ctx, 0)
    with pytest.raises(ValueError, match="samples must be an integer, got 2.5"):
        call(ctx, 2.5)
    assert calls == []


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
    assert 0 < res.krylov_iterations < am.KRYLOV_MAXIT
    assert res.raw_boundary_sum == pytest.approx(direct, rel=1e-8)

    wrong = col + 1e-6
    monkeypatch.setattr(am, "_krylov_columns",
                        lambda *args, **kw: None if cg_result == "breakdown"
                        else ([wrong], 1))
    res = am.finite_volume_criterion(L, ctx, s, samples=1, seed=3)
    assert res.fallbacks == 1
    assert res.krylov_iterations == (0 if cg_result == "breakdown" else 1)
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


def full_box_krylov_columns(side, energy, pot_grid, rhs_index, etas, tol):
    """The shifted-CG engine over the whole box, a fresh array per step (test oracle).

    The recurrence of `anderson._krylov_columns` with every update on the
    full grid and the six hops written out; the light-cone columns must
    equal it bit for bit.
    """
    b = np.zeros((side, side, side))
    b.ravel()[rhs_index] = 1.0
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = 1.0
    sigma = np.array([1j * eta for eta in etas if eta > 0])
    xs = np.zeros((sigma.size, b.size), dtype=complex)
    ps = np.repeat(b.reshape(1, -1), sigma.size, axis=0).astype(complex)
    zeta = zeta_old = np.ones(sigma.size, dtype=complex)
    alpha_old, beta_old = 1.0, 0.0
    seed_weight = 1.0 if 0.0 in etas else 0.0
    for it in range(1, am.KRYLOV_MAXIT + 1):
        ap = six_slice_stencil(p, energy, pot_grid)
        pap = float(np.sum(p * ap))
        if pap <= 0.0:
            return None
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        zeta_new = zeta * zeta_old * alpha_old / (
            alpha_old * zeta_old * (1.0 + sigma * alpha)
            + alpha * beta_old * (zeta_old - zeta))
        xs += (alpha * zeta_new / zeta)[:, None] * ps
        if np.abs(zeta_new).max(initial=seed_weight) * math.sqrt(rs_new) < tol:
            cols = iter(xs)
            return [x.ravel() if eta == 0.0 else next(cols) for eta in etas], it
        beta = rs_new / rs
        p = r + beta * p
        ps = (zeta_new[:, None] * r.reshape(1, -1)
              + (beta * (zeta_new / zeta) ** 2)[:, None] * ps)
        zeta_old, zeta = zeta, zeta_new
        alpha_old, beta_old, rs = alpha, beta, rs_new
    return None


# right-hand sides by grid index: the light-cone window meets no wall until
# it reaches the box (centre), meets two at once (off centre) or three
# (corner) from the first step
RHS_GRID = {
    "centre": lambda side: (side // 2,) * 3,
    "off_centre": lambda side: (side // 2, 1, side - 2),
    "corner": lambda side: (0, side - 1, 0),
}


@pytest.mark.parametrize("etas", [(0.0,), (1e-2, 1e-3, 1e-4), (0.0, 1e-3)],
                         ids=["seed", "three_shifts", "seed_and_shift"])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("rhs", sorted(RHS_GRID))
@pytest.mark.parametrize("side", [2, 5, 14, 38])
def test_light_cone_columns_equal_full_box_columns(side, rhs, lam, etas):
    shape = (side,) * 3
    pot = am.sample_potential(am.Box(side=side), DensitySpec(), 8, side)
    pot_grid = None if lam == 0.0 else (lam * pot).reshape(shape)
    rhs_index = int(np.ravel_multi_index(RHS_GRID[rhs](side), shape))
    tol = am.CG_TOL if etas == (0.0,) else am.KRYLOV_TOL  # the criterion's stop
    want_cols, want_its = full_box_krylov_columns(side, 0.45, pot_grid, rhs_index,
                                                  etas, tol)
    cols, its = am._krylov_columns(side, 0.45, pot_grid, rhs_index, etas, tol)
    assert its == want_its
    assert len(cols) == len(etas)
    for u, want in zip(cols, want_cols):
        assert u.dtype == want.dtype and np.array_equal(u, want)


@pytest.mark.parametrize("etas, tol, grid_arrays", [
    ((0.0,), am.CG_TOL, 5.5),                    # x, r, p, Ap, scratch
    ((1e-2, 1e-3, 1e-4), am.KRYLOV_TOL, 23.5),   # and xs, ps, scratch per shift
])
@pytest.mark.parametrize("rhs", ["centre", "corner"])
def test_krylov_column_allocates_one_workspace(etas, tol, grid_arrays, rhs):
    # the workspace is the whole allocation; full_box_krylov_columns, which
    # allocates per step, peaks at 7.1 grid arrays (eta = 0) and 29 (three
    # shifts) on the centre column
    side = 50
    shape = (side,) * 3
    pot = 0.5 * am.sample_potential(am.Box(side=side), DensitySpec(), 5, 0)
    rhs_index = int(np.ravel_multi_index(RHS_GRID[rhs](side), shape))
    pot_grid = pot.reshape(shape)
    tracemalloc.start()
    try:
        run = am._krylov_columns(side, 0.45, pot_grid, rhs_index, etas, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run is not None and run[1] >= side  # the window grew to the whole box
    assert peak <= grid_arrays * pot.nbytes


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


@pytest.mark.parametrize("shift", [0.85, 0.85 + 1e-3j])
@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("side", [2, 5, 8])
def test_sparse_hamiltonian_matches_stencil(side, lam, shift):
    # build_hamiltonian (splu, evaluate_decomposition) and _apply_stencil
    # (Krylov steps, residual checks) are the same operator, entry by entry
    box = am.Box(side=side)
    pot = am.sample_potential(box, DensitySpec(), 4, side)
    pot_grid = None if lam == 0.0 else (lam * pot).reshape((side,) * 3)
    v = np.random.default_rng(side).standard_normal(box.n_sites)
    h = am.build_hamiltonian(box, pot, lam)
    want = (h + shift * sp.identity(box.n_sites)) @ v
    got = am._apply_stencil(v.reshape((side,) * 3), shift, pot_grid).ravel()
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def six_slice_stencil(v, shift, pot):
    """(H + shift) v with the six Dirichlet hops written out (test oracle)."""
    out = (3.0 + shift) * v
    if pot is not None:
        out = out + pot * v
    out[1:, :, :] -= 0.5 * v[:-1, :, :]
    out[:-1, :, :] -= 0.5 * v[1:, :, :]
    out[:, 1:, :] -= 0.5 * v[:, :-1, :]
    out[:, :-1, :] -= 0.5 * v[:, 1:, :]
    out[:, :, 1:] -= 0.5 * v[:, :, :-1]
    out[:, :, :-1] -= 0.5 * v[:, :, 1:]
    return out


@pytest.mark.parametrize("shift", [0.85, 0.85 + 1e-3j])
@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("side", [2, 5, 12])
def test_hop_table_stencil_is_the_six_slice_stencil(side, lam, shift):
    box = am.Box(side=side)
    pot = am.sample_potential(box, DensitySpec(), 4, side)
    pot_grid = None if lam == 0.0 else (lam * pot).reshape((side,) * 3)
    v = np.random.default_rng(side).standard_normal((side,) * 3)
    assert np.array_equal(am._apply_stencil(v, shift, pot_grid),
                          six_slice_stencil(v, shift, pot_grid))


@pytest.mark.parametrize("call", [
    lambda box, ctx: am.fractional_moment(
        box, ctx, 0.3, [((1, 0, 0), (0, 0, 0)), ((4, 0, 0), (0, 0, 0))], samples=2),
    lambda box, ctx: am.fractional_moment(
        box, ctx, 0.3, [((1, 0, 0), (0, 0, 0)), ((0, 0, 3), (0, 0, 4))], samples=2),
], ids=["fracmom_x", "fracmom_second_y"])
def test_sites_are_indexed_before_the_first_solve(monkeypatch, call):
    def no_solve(*args):
        raise AssertionError("a Krylov run before the sites were checked")

    monkeypatch.setattr(am, "_krylov_columns", no_solve)
    with pytest.raises(ValueError, match=r"site \(.*\) outside the cube \[-4, 3\]\^3"):
        call(am.Box(side=8), se.solve_self_energy(0.45, 0.5))


def _no_solve(*args):
    raise AssertionError("a Krylov run for a request with nothing to estimate")


def test_empty_eta_schedule_is_rejected_before_solving(monkeypatch):
    monkeypatch.setattr(am, "_krylov_columns", _no_solve)
    ctx = se.solve_self_energy(0.45, 0.5)
    with pytest.raises(ValueError, match="eta schedule is empty"):
        am.fractional_moment(am.Box(side=6), ctx, 0.3, [((1, 0, 0), (0, 0, 0))],
                             samples=2, eta_schedule=())


@pytest.mark.parametrize("etas", [(-1e-3,), (math.nan,), (math.nan, 1e-3), (1e-3, math.inf)])
def test_bad_eta_is_rejected_before_solving(monkeypatch, etas):
    # a NaN leaked StopIteration from the Krylov run, an infinite eta divided by zero
    monkeypatch.setattr(am, "_krylov_columns", _no_solve)
    ctx = se.solve_self_energy(0.45, 0.5)
    with pytest.raises(ValueError, match="every eta must be >= 0 and finite"):
        am.fractional_moment(am.Box(side=6), ctx, 0.3, [((1, 0, 0), (0, 0, 0))],
                             samples=2, eta_schedule=etas)


@pytest.mark.parametrize("eta", [-1e-3, math.nan, math.inf])
def test_direct_column_rejects_a_bad_eta(eta, monkeypatch):
    # a NaN eta fell through both branches and solved the real eta = 0 column
    monkeypatch.setattr(am, "_direct_solver", _no_solve)
    box = am.Box(side=4)
    h = am.build_hamiltonian(box, am.sample_potential(box, DensitySpec(), 0, 0), 0.5)
    with pytest.raises(ValueError, match="eta must be >= 0 and finite"):
        am.resolvent_column(h, 0.45, eta, box, (0, 0, 0))


def test_empty_pair_list_is_rejected_before_solving(monkeypatch):
    monkeypatch.setattr(am, "_krylov_columns", _no_solve)
    ctx = se.solve_self_energy(0.45, 0.5)
    with pytest.raises(ValueError, match=r"no \(x, y\) pairs"):
        am.fractional_moment(am.Box(side=6), ctx, 0.3, [], samples=2)


def test_moments_need_no_sparse_hamiltonian(monkeypatch):
    def no_matrix(*args, **kw):
        raise AssertionError("the Krylov path built a sparse Hamiltonian")

    monkeypatch.setattr(am, "build_hamiltonian", no_matrix)
    box = am.Box(side=8)
    ctx = se.solve_self_energy(0.45, 0.5)
    pairs = [((1, 0, 0), (0, 0, 0)), ((0, 1, 1), (1, 0, 0))]
    for etas in (am.DEFAULT_ETA_SCHEDULE, (1e-3,)):
        est = am.fractional_moment(box, ctx, 0.3, pairs, samples=3, eta_schedule=etas,
                                   seed=2)
        assert est.fallbacks == 0
        assert 0 < est.krylov_iterations < am.KRYLOV_MAXIT


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


@pytest.mark.parametrize("B_s", [0.0, -1.0, math.nan, math.inf])
def test_criterion_rejects_a_vacuous_prefactor_before_solving(monkeypatch, B_s):
    # B_s <= 0 makes every value pass; a non-finite one makes it meaningless
    monkeypatch.setattr(am, "_krylov_columns", _no_solve)
    ctx = se.EnergyContext.from_estar(0.0, 0.3)
    with pytest.raises(ValueError, match="B_s must be > 0 and finite"):
        am.finite_volume_criterion(3, ctx, s=0.2, B_s=B_s)


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


def test_correlation_fit_weights_all_or_no_rows_by_stderr():
    rows = [(1, .5), (2, .25), (3, .12), (4, .06)]
    uniform = am.correlation_length_fit(rows, s=0.5)
    assert am.correlation_length_fit([(*r, 0.0) for r in rows], s=0.5) == uniform
    weighted = am.correlation_length_fit([(*r, .01) for r in rows], s=0.5)
    assert weighted.xi == pytest.approx(0.70959, abs=1e-5) != uniform.xi


def test_correlation_fit_no_decay_flag():
    data = [(r, 0.1 + 0.01 * r) for r in (2, 4, 6, 8)]
    fit = am.correlation_length_fit(data, s=0.5)
    assert fit.no_decay and fit.xi == math.inf


def test_correlation_fit_input_validation():
    with pytest.raises(ValueError):
        am.correlation_length_fit([(1, 0.5), (2, 0.4), (3, 0.3)], s=0.5)
    with pytest.raises(ValueError):
        am.correlation_length_fit([(2, 0.5), (3, 0.4), (4, 0.3), (5, 0.2)], s=0.5)


@pytest.mark.parametrize("data, s, message", [
    ([(1, .5), (2, .25), (3, math.inf), (4, .06)], 0.5, "moments and stderrs must be finite"),
    ([(1, .5), (2, .25), (3, math.nan), (4, .06)], 0.5, "moments and stderrs must be finite"),
    ([(1, .5, .01), (2, .25, math.nan), (3, .12, .01), (4, .06, .01)], 0.5,
     "moments and stderrs must be finite"),
    ([(1, .5), (math.nan, .25), (3, .12), (4, .06)], 0.5, "distances must be finite"),
    ([(1, .5), (2, .25), (3, .12), (math.inf, .06)], 0.5, "distances must be finite"),
    ([(0, .5), (2, .25), (3, .12), (4, .06)], 0.5, "distances must be finite and > 0"),
    ([(-4, .5), (2, .25), (3, .12), (4, .06)], 0.5, "distances must be finite and > 0"),
    ([(1, .5), (2, .25), (3, .12), (4, .06)], 0.0, r"s must be in \(0, 1\]"),
    ([(1, .5), (2, .25), (3, .12), (4, .06)], 1.5, r"s must be in \(0, 1\]"),
    ([(1, .5), (2, .25), (3, .12), (4, .06)], math.nan, r"s must be in \(0, 1\]"),
    ([(1, .5, .01), (2, .25, -.01), (3, .12, .01), (4, .06, .01)], 0.5, "stderrs must be"),
    ([(1, .5, .01), (2, .25, 0.0), (3, .12, .01), (4, .06, .01)], 0.5, "stderrs must be"),
    ([(1, .5, .01), (2, .25), (3, .12, .01), (4, .06, .01)], 0.5, "stderrs must be"),
], ids=["inf_moment", "nan_moment", "nan_stderr", "nan_distance", "inf_distance",
        "zero_distance", "negative_distance", "s_zero", "s_above_one", "s_nan",
        "negative_stderr", "mixed_zero_stderr", "mixed_missing_stderr"])
def test_correlation_fit_rejects_non_finite_and_out_of_range_inputs(data, s, message):
    # the inf moment gave XiEstimate(xi=nan, ci_low=nan, no_decay=False) with a
    # RuntimeWarning, a NaN distance xi = nan, and the stderr rows xi = 0.70319
    # (a row without a positive stderr weighed 1)
    with pytest.raises(ValueError, match=message):
        am.correlation_length_fit(data, s)


def test_full_determinism_of_estimates():
    box = am.Box(side=8)
    ctx = se.solve_self_energy(0.45, 0.5)
    kwargs = dict(eta_schedule=(1e-3,), seed=12)
    a = am.fractional_moment(box, ctx, 0.3, [((0, 0, 0), (1, 0, 0))], 10, **kwargs)
    b = am.fractional_moment(box, ctx, 0.3, [((0, 0, 0), (1, 0, 0))], 10, **kwargs)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.stderrs, b.stderrs)


# Exact disorder averages on the 8-site box Box(side=2).  In the admissible
# window H + E is a positive definite M-matrix, so R(., 0) is positive and
# analytic in the potential, and a tensor Gauss-Legendre rule over the eight
# site potentials converges exponentially: 5 nodes per site match 6 to 4e-9
# relative on E|R(x, 0)|^s and E R(0, 0).
EXACT_CTX = se.solve_self_energy(0.45, 0.5)
ORIGIN = (0, 0, 0)
CORNERS = [(-1, 0, 0), (-1, -1, -1)]  # one hop and three hops from the origin


@functools.lru_cache(maxsize=None)
def gauss_legendre_columns(lam, energy, nodes):
    """Weights and columns R(., 0) at the nodes^8 grid of the uniform law (test oracle).

    The disorder average of f(R(., 0)) over i.i.d. V uniform on
    [-sqrt 3, sqrt 3] is weights @ f(columns), columns indexed like
    Box(side=2).  On that box the three bits of a flat index are the grid
    coordinates, so two sites are neighbours when their indices differ in one
    bit; the 8 x 8 systems are solved in batches of nodes^6.
    """
    box = am.Box(side=2)
    hop = np.array([[float(bin(i ^ j).count("1") == 1) for j in range(8)]
                    for i in range(8)])
    u, w = np.polynomial.legendre.leggauss(nodes)
    values, probs = SQRT3 * u, w / 2.0
    inner = np.indices((nodes,) * 6).reshape(6, -1).T
    weights, columns = [], []
    for head in np.ndindex(nodes, nodes):
        grid = np.hstack([np.broadcast_to(head, (len(inner), 2)), inner])
        a = np.broadcast_to((3.0 + energy) * np.eye(8) - 0.5 * hop,
                            (len(grid), 8, 8)).copy()
        a[:, range(8), range(8)] += lam * values[grid]
        rhs = np.zeros((len(grid), 8, 1))
        rhs[:, box.index(ORIGIN), 0] = 1.0
        columns.append(np.linalg.solve(a, rhs)[..., 0])
        weights.append(np.prod(probs[grid], axis=1))
    return np.concatenate(weights), np.concatenate(columns)


def exact_average(f, nodes=5):
    weights, columns = gauss_legendre_columns(EXACT_CTX.lam, EXACT_CTX.energy, nodes)
    return weights @ f(columns)


def _abs_moment(s, sites):
    box = am.Box(side=2)
    return lambda cols: np.abs(cols[:, [box.index(x) for x in sites]]) ** s


def test_gauss_legendre_rule_has_converged():
    for f in (_abs_moment(0.3, CORNERS), _abs_moment(0.2, [ORIGIN]),
              lambda cols: cols[:, am.Box(side=2).index(ORIGIN)]):
        five, four = exact_average(f), exact_average(f, nodes=4)
        assert np.all(np.abs(four / five - 1.0) <= 1e-6)
    weights, _ = gauss_legendre_columns(EXACT_CTX.lam, EXACT_CTX.energy, 5)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("etas", [(0.0,), am.DEFAULT_ETA_SCHEDULE],
                         ids=["eta0", "default"])
def test_fractional_moment_matches_exact_average(etas):
    # the shifts move the exact value by under 1e-5 relative at eta = 1e-2,
    # far below the stderr, so every eta row is held to the eta = 0 average
    est = am.fractional_moment(am.Box(side=2), EXACT_CTX, 0.3,
                               [(x, ORIGIN) for x in CORNERS], samples=2000,
                               eta_schedule=etas, seed=1)
    exact = exact_average(_abs_moment(0.3, CORNERS))
    z = (est.estimates - exact) / est.stderrs
    assert est.fallbacks == 0
    assert np.all(np.abs(z) <= 4.0), z


def test_criterion_at_L1_matches_exact_boundary_sum():
    # on the box of side 2 every site is a boundary site
    res = am.finite_volume_criterion(1, EXACT_CTX, s=0.2, samples=2000, seed=4)
    exact = float(np.sum(exact_average(lambda cols: np.abs(cols) ** 0.2)))
    raw_err = res.stderr * res.raw_boundary_sum / res.value
    assert res.fallbacks == 0
    assert abs(res.raw_boundary_sum - exact) <= 4.0 * raw_err


def test_sample_average_mean_matches_exact_resolvent():
    box = am.Box(side=2)
    mean, err, fallbacks, _ = am._sample_average(
        box, EXACT_CTX, [ORIGIN], (0.0,), 2000, 6, am.KRYLOV_TOL,
        lambda cols: cols[ORIGIN][0])
    z = (mean - exact_average(lambda cols: cols)) / err
    assert fallbacks == 0
    assert np.all(np.abs(z) <= 4.0), z


def test_stderr_matches_the_spread_of_estimates():
    # z over 40 independent 200-sample estimates has unit spread when the
    # stderr divides the right standard deviation by the right sqrt(samples)
    pair = [(CORNERS[0], ORIGIN)]
    exact = exact_average(_abs_moment(0.3, CORNERS[:1]))[0]
    z = []
    for seed in range(40):
        est = am.fractional_moment(am.Box(side=2), EXACT_CTX, 0.3, pair, samples=200,
                                   eta_schedule=(0.0,), seed=seed)
        z.append((est.estimates[0, 0] - exact) / est.stderrs[0, 0])
    assert 0.7 <= np.std(z, ddof=1) <= 1.3
