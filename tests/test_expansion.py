import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

from lifshitzlab import anderson as am
from lifshitzlab import diagrams as dg
from lifshitzlab import expansion as ex
from lifshitzlab import green as gr
from lifshitzlab import selfenergy as se
from lifshitzlab.density import DensitySpec
from lifshitzlab.errors import (CombinatorialBudgetError, SingularSolveError,
                                TruncationError)
from lifshitzlab.rng import substream

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "terms_N2_golden.txt")


def weight(term: ex.ExpansionTerm, lam: float, sigma: float) -> float:
    """Scalar coefficient: each V carries -lam, each bullet -sigma."""
    out = 1.0
    for t in term.insertions:
        out *= -lam if t == ex.POTENTIAL else -sigma
    return out


def display(term: ex.ExpansionTerm) -> str:
    """Human-readable operator string, e.g. 'Rr.V.Rr.B.R'."""
    parts = ["Rr"]
    for t in term.insertions:
        parts.append(t)
        parts.append("Rr")
    if term.insertions:
        parts[-1] = "Rr" if term.terminal == "free" else "R"
    elif term.terminal == "full":
        parts = ["R"]
    return ".".join(parts)


def test_n2_expansion_matches_five_term_display():
    dec = ex.generate_terms(2)
    displays = [display(t) for t in dec.all_terms]
    assert displays == ["Rr", "Rr.V.Rr", "Rr.B.R", "Rr.V.Rr.V.R", "Rr.V.Rr.B.R"]
    signs = [weight(t, 1.0, 1.0) for t in dec.all_terms]
    assert signs == [1.0, -1.0, -1.0, 1.0, 1.0]


def test_n2_term_table_matches_golden_file():
    with open(GOLDEN) as fh:
        golden = fh.read()
    assert ex.generate_terms(2).term_table() == golden


def test_n1_base_identity_terms():
    dec = ex.generate_terms(1)
    assert [display(t) for t in dec.all_terms] == ["Rr", "Rr.V.R", "Rr.B.R"]


def test_order_counting_rule():
    assert ex.term_order(("B", "V", "B")) == 5
    term = ex.ExpansionTerm(("B", "V", "B"), "full")
    assert term.order == 5
    assert weight(term, 2.0, 3.0) == pytest.approx(-18.0)  # (-3)(-2)(-3)


def direct_filter_terms(stopping_order: int) -> ex.Decomposition:
    """Independent generator: enumerate all strings and filter by the rule (test oracle).

    A string is explicit iff its order is < N; it is a remainder iff its
    order is >= N while the order without the last insertion is < N.
    """
    n = stopping_order
    explicit, remainder = [], []
    strings = [()]
    for _ in range(n + 1):
        new = []
        for s in strings:
            if ex.term_order(s) < n:
                new.extend(s + (step,) for step in (ex.POTENTIAL, ex.BULLET))
        strings.extend(new)
        if not new:
            break
    for s in set(strings):
        order = ex.term_order(s)
        if order < n:
            explicit.append(ex.ExpansionTerm(s, "free"))
        elif s and ex.term_order(s[:-1]) < n:
            remainder.append(ex.ExpansionTerm(s, "full"))
    explicit.sort(key=ex.ExpansionTerm.sort_key)
    remainder.sort(key=ex.ExpansionTerm.sort_key)
    return ex.Decomposition(
        stopping_order=n, explicit_terms=tuple(explicit),
        aprime_terms=tuple(t for t in remainder if t.order == n),
        bullet_terms=tuple(t for t in remainder if t.order == n + 1))


@pytest.mark.parametrize("n", range(1, 10))
def test_recursive_and_direct_filter_agree(n):
    rec = ex.generate_terms(n)
    filt = direct_filter_terms(n)
    assert set(rec.all_terms) == set(filt.all_terms)
    assert rec.all_terms == filt.all_terms  # canonical ordering too


def _fib_order_counts(n_max):
    counts = {0: 1, 1: 1}
    for k in range(2, n_max + 1):
        counts[k] = counts[k - 1] + counts[k - 2]
    return counts


@pytest.mark.parametrize("n", range(1, 10))
def test_term_structure_invariants(n):
    dec = ex.generate_terms(n)
    counts = _fib_order_counts(n + 1)
    assert len(dec.explicit_terms) == sum(counts[k] for k in range(n))
    assert all(t.order < n and t.terminal == "free" for t in dec.explicit_terms)
    assert all(t.order == n for t in dec.aprime_terms)
    assert all(t.order == n + 1 for t in dec.bullet_terms)
    # order-(N+1) remainders all end on a bullet appended at order N-1
    assert all(t.insertions[-1] == ex.BULLET for t in dec.bullet_terms)
    assert all(ex.term_order(t.insertions[:-1]) == n - 1 for t in dec.bullet_terms)
    # every remainder was produced by exactly one stopping event
    assert all(ex.term_order(t.insertions[:-1]) < n for t in dec.remainder_terms)


def test_bn_recursion_links_orders():
    # B_N strings are exactly the A'_{N-1} strings with a trailing bullet
    for n in (2, 3, 4, 5):
        bullets = {t.insertions for t in ex.generate_terms(n).bullet_terms}
        prev_aprime = {t.insertions for t in ex.generate_terms(n - 1).aprime_terms} \
            if n > 1 else {()}
        expected = {ins + (ex.BULLET,) for ins in prev_aprime} if n > 1 else set()
        if n > 1:
            assert bullets == expected


def test_stopping_order_guard():
    with pytest.raises(CombinatorialBudgetError):
        ex.generate_terms(13)
    with pytest.raises(ValueError):
        ex.generate_terms(0)


@given(st.integers(1, 9))
@settings(max_examples=9, deadline=None)
def test_decomposition_partition_of_strings(n):
    dec = ex.generate_terms(n)
    seen = set()
    for t in dec.all_terms:
        assert t.insertions not in seen
        seen.add(t.insertions)


@pytest.fixture(scope="module")
def box_and_context(context_factory):
    ctx = context_factory(0.5, 0.5)
    box = am.Box(side=8)
    pot = am.sample_potential(box, DensitySpec(), seed=7, index=0)
    return box, pot, ctx


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_residual_solver_precision(box_and_context, n):
    box, pot, ctx = box_and_context
    chk = ex.evaluate_decomposition(box, pot, ctx, (0, 0, 0), (1, 1, 1), n)
    assert chk.residual < 1e-9 * chk.column_norm
    assert chk.residual < 1e-12  # in practice machine precision


def test_identity_solves_the_free_column_once(box_and_context, monkeypatch):
    box, pot, ctx = box_and_context
    calls = []

    def counting_solver(*args):
        solve = am._direct_solver(*args)
        return lambda rhs: calls.append(1) or solve(rhs)

    monkeypatch.setattr(ex, "_direct_solver", counting_solver)
    ex.evaluate_decomposition(box, pot, ctx, (0, 0, 0), (1, 1, 1), 3)
    # R delta_y and R_r delta_y once each, then one R_r solve per insertion
    insertions = sum(len(t.insertions) for t in ex.generate_terms(3).all_terms)
    assert len(calls) == 2 + insertions


def test_identity_residual_independent_of_order(box_and_context):
    box, pot, ctx = box_and_context
    residuals = [ex.evaluate_decomposition(box, pot, ctx, (0, 0, 0), (1, 0, 1), n).residual
                 for n in (1, 3)]
    assert max(residuals) < 1e-12


def test_identity_lam_zero_geometric_series(box_and_context, context_factory):
    box = am.Box(side=8)
    ctx0 = context_factory(0.0, 0.4)
    chk = ex.evaluate_decomposition(box, np.zeros(box.n_sites), ctx0,
                                    (0, 0, 0), (1, 0, 0), 2)
    assert chk.residual == 0.0  # sigma = 0 collapses the identity to R = R_r


def test_identity_with_positive_eta(box_and_context):
    box, pot, ctx = box_and_context
    chk = ex.evaluate_decomposition(box, pot, ctx, (0, 0, 0), (1, 1, 1), 2, eta=1e-3)
    assert chk.eta == 1e-3
    assert chk.residual < 1e-11


def test_boundary_margin_enforced(box_and_context):
    box, pot, ctx = box_and_context
    with pytest.raises(ValueError):
        ex.evaluate_decomposition(box, pot, ctx, (-4, 0, 0), (1, 1, 1), 2)


def test_singular_solve_retry_contract(context_factory):
    # place E exactly on an eigenvalue of -H: eta = 0 must fail with advice,
    # and the advised eta must succeed
    box = am.Box(side=6)
    rng_pot = am.sample_potential(box, DensitySpec(), seed=3, index=0)
    lam = 2.0
    h = am.build_hamiltonian(box, rng_pot, lam)
    eig = float(np.linalg.eigvalsh(h.toarray())[0])
    assert eig < 0  # strong coupling pushes the ground state below zero
    energy = -eig
    sigma = 0.0
    ctx = se.EnergyContext(lam=lam, energy=energy, estar=energy, sigma=sigma)
    with pytest.raises(SingularSolveError) as err:
        ex.evaluate_decomposition(box, rng_pot, ctx, (0, 0, 0), (1, 1, 1), 1)
    assert err.value.suggested_eta > 0
    chk = ex.evaluate_decomposition(box, rng_pot, ctx, (0, 0, 0), (1, 1, 1), 1,
                                    eta=err.value.suggested_eta)
    assert chk.residual < 1e-10 * chk.column_norm


def test_moment_l1_matches_closed_form(context_factory):
    ctx = context_factory(0.5, 0.45)
    cmp1 = ex.mc_moment_Al_squared(1, ctx, (0, 0, 0), (1, 0, 0), samples=4000,
                                   box_radius=5, seed=2)
    assert abs(cmp1.z_score) < 3.0
    assert cmp1.prediction > 0


def test_moment_l2_matches_diagram_sum(context_factory):
    ctx = context_factory(0.5, 0.45)
    cmp2 = ex.mc_moment_Al_squared(2, ctx, (0, 0, 0), (1, 0, 0), samples=4000,
                                   box_radius=5, seed=2)
    assert abs(cmp2.z_score) < 3.0


def no_kernel(*args):
    raise AssertionError("kernel built before the arguments were checked")


def test_moment_rejects_order_three(context_factory, monkeypatch):
    monkeypatch.setattr(ex, "_green_kernel", no_kernel)
    with pytest.raises(ValueError, match="l must be 1 or 2"):
        ex.mc_moment_Al_squared(3, context_factory(0.5, 0.45), (0, 0, 0), (1, 0, 0),
                                samples=10)


@pytest.mark.parametrize("call", [
    lambda ctx: ex.diagram_moment(3, ctx, (0, 0, 0), (1, 0, 0), 5),
    lambda ctx: ex.check_decay_envelope(3, ctx, [2, 4]),
], ids=["diagram_moment", "decay_envelope"])
def test_order_three_is_a_value_error_before_the_kernel(context_factory, monkeypatch,
                                                         call):
    monkeypatch.setattr(ex, "_green_kernel", no_kernel)
    with pytest.raises(ValueError, match="l must be 1 or 2"):
        call(context_factory(0.5, 0.45))


@pytest.mark.parametrize("samples, message", [
    (1, "samples must be >= 2"), (2.5, "samples must be an integer"),
    ("10", "samples must be an integer"),
])
def test_moment_mc_samples_are_integers_checked_before_the_kernel(context_factory,
                                                                  monkeypatch, samples,
                                                                  message):
    monkeypatch.setattr(ex, "_green_kernel", no_kernel)
    with pytest.raises(ValueError, match=message):
        ex.mc_moment_Al_squared(1, context_factory(0.5, 0.45), (0, 0, 0), (1, 0, 0),
                                samples=samples)


def test_moment_mc_takes_a_numpy_integer_sample_count(context_factory):
    ctx = context_factory(0.5, 0.45)
    cmp = ex.mc_moment_Al_squared(1, ctx, (0, 0, 0), (1, 0, 0), samples=np.int64(20),
                                  box_radius=3)
    assert cmp.samples == 20 and type(cmp.samples) is int
    assert cmp == ex.mc_moment_Al_squared(1, ctx, (0, 0, 0), (1, 0, 0), samples=20,
                                          box_radius=3)


@pytest.mark.parametrize("site", [(6, 0, 0), (-6, 0, 0), (0, 5, -6), (0, 0, 6)])
@pytest.mark.parametrize("which", ["x", "y"])
@pytest.mark.parametrize("call", [
    lambda ctx, x, y: ex.diagram_moment(2, ctx, x, y, 5),
    lambda ctx, x, y: ex.mc_moment_Al_squared(2, ctx, x, y, samples=10, box_radius=5),
], ids=["diagram_moment", "mc_moment"])
def test_site_outside_the_cube_is_a_value_error(context_factory, monkeypatch, call,
                                                which, site):
    monkeypatch.setattr(ex, "_green_kernel", no_kernel)
    x, y = (site, (0, 0, 0)) if which == "x" else ((0, 0, 0), site)
    with pytest.raises(ValueError, match=r"site \(.*\) outside the cube \[-5, 5\]\^3"):
        call(context_factory(0.5, 0.45), x, y)


@pytest.mark.parametrize("distances, box_margin, cube", [
    ([2, 5], 0, 2), ([4, 6], -1, 2),
])
def test_decay_envelope_site_outside_the_cube_is_a_value_error(context_factory,
                                                               monkeypatch, distances,
                                                               box_margin, cube):
    # r = 5 puts y at (3, 0, 0), one past the b = 5 // 2 + 0 cube
    monkeypatch.setattr(ex, "_green_kernel", no_kernel)
    with pytest.raises(ValueError, match=rf"outside the cube \[-{cube}, {cube}\]\^3"):
        ex.check_decay_envelope(1, context_factory(0.5, 0.45), distances,
                                box_margin=box_margin)


@pytest.mark.parametrize("call", [
    lambda ctx: ex.mc_moment_Al_squared(1, ctx, (3, 0, 0), (4, 0, 0), samples=10,
                                        box_radius=4, seed=0),
    lambda ctx: ex.diagram_moment(1, ctx, (3, 0, 0), (4, 0, 0), 4),
    lambda ctx: ex.check_decay_envelope(1, ctx, [8, 10, 12, 14], box_margin=0),
], ids=["mc_moment", "diagram_moment", "decay_envelope"])
def test_truncation_guard_near_boundary(context_factory, call):
    ctx = context_factory(0.5, 0.05)  # slow decay: truncation visibly bad
    with pytest.raises(TruncationError):
        call(ctx)


def test_decay_envelope_beyond_the_sparse_box_budget(context_factory):
    # the guard's advice at b = 49 is a larger box; the b = 54 cube has more
    # sites than anderson.MAX_BOX_SITES, a budget for Anderson boxes that the
    # moment sums do not build
    ctx = context_factory(0.3, 0.005)
    with pytest.raises(TruncationError, match="beyond 49"):
        ex.check_decay_envelope(1, ctx, [30, 50, 70, 88])
    assert (2 * 54 + 1) ** 3 > am.MAX_BOX_SITES
    assert ex.check_decay_envelope(1, ctx, [30, 50, 70, 88], box_margin=10).holds


def test_mc_moment_decay_rate(context_factory):
    # MC E A_1^2 along an axis fits an exponential at rate >= 2 sqrt(2E*) (1 - 0.1)
    ctx = context_factory(0.5, 0.45)
    dists = (1, 2, 3, 4)
    vals = []
    for d in dists:
        half = d // 2
        cmp_ = ex.mc_moment_Al_squared(1, ctx, (-half, 0, 0), (d - half, 0, 0),
                                       samples=3000, box_radius=5, seed=8)
        vals.append(cmp_.mc_estimate)
    rate = -float(np.polyfit(dists, np.log(vals), 1)[0])
    assert rate >= 2.0 * math.sqrt(2.0 * ctx.estar) * 0.9


@pytest.mark.parametrize("distances", [[4], [4, 4]])
def test_decay_envelope_needs_two_distinct_distances(context_factory, monkeypatch,
                                                     distances):
    monkeypatch.setattr(ex, "_green_kernel", no_kernel)
    with pytest.raises(ValueError, match="two distinct distances"):
        ex.check_decay_envelope(1, context_factory(0.5, 0.45), distances)


@pytest.mark.parametrize("distances", [[2.7, 4.2], [2, 4.0], [np.float64(2), 4], ["2", 4]])
def test_decay_envelope_rejects_non_integer_distances(context_factory, monkeypatch,
                                                      distances):
    monkeypatch.setattr(ex, "_green_kernel", no_kernel)
    with pytest.raises(ValueError, match="must be integers"):
        ex.check_decay_envelope(1, context_factory(0.05, 0.5), distances, box_margin=3)


def test_decay_envelope_takes_numpy_integer_distances(context_factory):
    ctx = context_factory(0.05, 0.5)
    rep = ex.check_decay_envelope(1, ctx, np.array([2, 4]), box_margin=3)
    assert rep.distances == (2, 4)
    assert rep.fitted_rate == ex.check_decay_envelope(1, ctx, [2, 4], box_margin=3).fitted_rate


@pytest.mark.parametrize("order", [1, 2])
def test_decay_envelope_moments_are_diagram_moments(context_factory, order):
    # one kernel for every distance gives the values of one kernel per pair
    ctx, distances, b = context_factory(0.5, 0.05), (4, 5, 8), 8
    rep = ex.check_decay_envelope(order, ctx, distances, box_margin=4)
    assert rep.moments == tuple(ex.diagram_moment(order, ctx, (-(r // 2), 0, 0),
                                                  (r - r // 2, 0, 0), b) for r in distances)


def test_decay_envelope_l1(context_factory):
    ctx = context_factory(0.5, 0.05)
    rep = ex.check_decay_envelope(1, ctx, [10, 13, 16, 20], box_margin=4)
    two_kappa = 2.0 * math.sqrt(2.0 * ctx.estar)
    assert rep.holds and rep.envelope_rate == pytest.approx(math.sqrt(ctx.estar / 3))
    # closed-form rate tracks 2 sqrt(2 E*) up to the 1/(r+1) prefactor drift
    assert two_kappa * 0.95 < rep.fitted_rate < two_kappa * 1.35


def test_decay_rate_increases_with_estar(context_factory):
    slow = ex.check_decay_envelope(1, context_factory(0.5, 0.05), [8, 10, 12, 14],
                                   box_margin=4)
    fast = ex.check_decay_envelope(1, context_factory(0.5, 0.10), [8, 10, 12, 14],
                                   box_margin=4)
    assert fast.fitted_rate > slow.fitted_rate


def test_decay_envelope_l2_with_factorial_prefactor(context_factory):
    ctx = context_factory(0.5, 0.05)
    rep = ex.check_decay_envelope(2, ctx, [4, 6, 8], box_margin=4)
    assert rep.holds
    assert math.isfinite(rep.fitted_K) and rep.fitted_K > 0
    # envelope with the fitted constant dominates every computed moment
    base = math.factorial(8) * ctx.estar * (ctx.lam**2 / math.sqrt(ctx.estar)) ** 2
    c_val = rep.fitted_K * math.log(math.e + 1.0 / ctx.estar) ** 9
    for r, m in zip(rep.distances, rep.moments):
        assert m <= base * c_val**2 * math.exp(-rep.envelope_rate * r) * (1 + 1e-9)


def test_green_kernel_symmetric_and_matches_green_free():
    radius, estar = 6, 0.45
    kernel = ex._green_kernel(estar, radius)
    assert kernel.shape == (2 * radius + 1,) * 3
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.array_equal(kernel, kernel.transpose(axes))
    for axis in range(3):
        assert np.array_equal(kernel, np.flip(kernel, axis=axis))
    for x in ((0, 0, 0), (1, 0, 0), (-3, 2, 5), (6, -6, 6), (4, 1, -2)):
        value = kernel[tuple(c + radius for c in x)]
        assert value == pytest.approx(gr.green_free(x, estar), rel=1e-13)


def dense_green_matrix(kernel, b):
    """G(z_a - z_c) over the cube by |difference| sorting (test oracle)."""
    coords = np.stack(np.meshgrid(*([np.arange(-b, b + 1)] * 3), indexing="ij"),
                      axis=-1).reshape(-1, 3)
    diffs = np.abs(coords[:, None, :] - coords[None, :, :])
    diffs.sort(axis=2)
    return kernel[2 * b:, 2 * b:, 2 * b:][diffs[..., 0], diffs[..., 1], diffs[..., 2]]


def window_green_panels(kernel, box_radius, rx, ry):
    """Lower column panels of the whole-cube form, read from the kernel's
    sliding windows: the l=2 panel build before reflection sectors (test oracle).

    Entry (c, a) of panel T[i0:, i0:i1] is (rx_c ry_a + ry_c rx_a) G(z_c - z_a),
    halved on the diagonal and zero above it.
    """
    side = 2 * box_radius + 1
    slab = side * side
    windows = sliding_window_view(kernel, (side,) * 3)[::-1, ::-1, ::-1]
    panels = []
    for x0 in range(0, side, 2):
        x1 = min(x0 + 2, side)
        i0, i1 = x0 * slab, x1 * slab
        t = rx[i0:, None] * ry[i0:i1]
        t += ry[i0:, None] * rx[i0:i1]
        t *= windows[x0:, :, :, x0:x1].reshape(-1, i1 - i0)
        top = t[:i1 - i0]
        top[np.triu_indices_from(top, 1)] = 0.0
        top[np.diag_indices_from(top)] *= 0.5
        panels.append((i0, i1, t))
    return panels


def window_panel_quadratic_form(panels, v):
    """Row-wise v^T T v over the panels of `window_green_panels` (test oracle)."""
    return sum(np.einsum("ij,ij->i", v[:, i0:i1], v[:, i0:] @ t)
               for i0, i1, t in panels)


# site pairs with 0, 1, 2 and 3 axes folded about 0 (both coordinates 0 on the axis)
FOLD_PAIRS = [((1, 2, -1), (0, 1, 3)), ((0, 0, 0), (1, 1, 1)), ((0, 1, 0), (0, -2, 1)),
              ((0, 0, 0), (1, 1, 0)), ((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 2, 0)),
              ((0, 0, 0), (0, 0, 0))]
# pairs that differ on one axis only, mirror-folded about c / 2 with c = x + y
# there: c odd, even, zero and negative, on each axis, with and without other folds
MIRROR_PAIRS = [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (0, -1, 0)), ((1, 0, 2), (1, 3, 2)),
                ((0, 0, -2), (0, 0, 0)), ((0, 1, 3), (0, 1, 2)), ((2, 0, 1), (-2, 0, 1)),
                ((-3, 0, 0), (-1, 0, 0)), ((0, 0, 0), (0, 0, 1))]


@pytest.mark.parametrize("b", [3, 4, 5])
@pytest.mark.parametrize("estar", [0.45, 0.1])
def test_panel_quadratic_form_equals_dense_oracle(b, estar):
    kernel = ex._green_kernel(estar, 2 * b)
    gmat = dense_green_matrix(kernel, b)
    v = np.random.default_rng(b).uniform(-1.0, 1.0, size=(7, (2 * b + 1) ** 3))
    for x, y in FOLD_PAIRS + MIRROR_PAIRS:
        rx = ex._shifted_field(kernel, b, x)
        ry = ex._shifted_field(kernel, b, y)
        sectors = ex._sector_panels(kernel, b, x, y)
        dense = np.einsum("ma,ac,mc->m", v * rx, gmat, v * ry)
        np.testing.assert_allclose(ex._sector_quadratic_form(sectors, v, b), dense,
                                   rtol=1e-13, atol=0.0, err_msg=f"{x}, {y}")


@pytest.mark.parametrize("b", [3, 4, 5])
@pytest.mark.parametrize("estar", [0.45, 0.1])
@pytest.mark.parametrize("x, y", [((1, 2, -1), (0, 1, 3)), ((0, 0, 0), (1, 1, 1))])
def test_unfolded_sector_form_is_the_window_panel_form(b, estar, x, y):
    # no folded axis: one sector, one image of weight 1, the same panels
    kernel = ex._green_kernel(estar, 2 * b)
    rx = ex._shifted_field(kernel, b, x)
    ry = ex._shifted_field(kernel, b, y)
    sectors = ex._sector_panels(kernel, b, x, y)
    assert [c for c, _ in sectors[1]] == [None] * 3 and len(sectors[2]) == 1
    oracle = window_green_panels(kernel, b, rx, ry)
    assert len(sectors[2][0]) == len(oracle)
    for (i0, i1, t), (j0, j1, w) in zip(sectors[2][0], oracle):
        assert (i0, i1) == (j0, j1) and np.array_equal(t, w)
    # the form contracts samples-minor, so it matches the oracles to rounding
    v = np.random.default_rng(b).uniform(-1.0, 1.0, size=(7, rx.size))
    form = ex._sector_quadratic_form(sectors, v, b)
    dense = np.einsum("ma,ac,mc->m", v * rx, dense_green_matrix(kernel, b), v * ry)
    np.testing.assert_allclose(form, dense, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(form, window_panel_quadratic_form(oracle, v),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("x, y", [((0, 0, 0), (1, 0, 0)), ((1, 2, -1), (0, 1, 3))])
def test_sector_form_keeps_no_state_between_batches(x, y):
    # a mirror pair (three folded axes) and a pair with none: batches of 7, 500
    # and 7 rows, the larger one after a smaller one and before, give bit for
    # bit the rows of single calls on sectors built for that call alone
    b = 3
    kernel = ex._green_kernel(0.45, 2 * b)
    rng = np.random.default_rng(11)
    batches = [rng.uniform(-1.0, 1.0, size=(m, (2 * b + 1) ** 3)) for m in (7, 500, 7)]
    fresh = [ex._sector_quadratic_form(ex._sector_panels(kernel, b, x, y), v, b)
             for v in batches]
    sectors = ex._sector_panels(kernel, b, x, y)
    for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
        for i in order:
            assert np.array_equal(ex._sector_quadratic_form(sectors, batches[i], b),
                                  fresh[i]), (order, i)


@pytest.mark.parametrize("pair, axis, centre", [
    (((0, 0, 0), (1, 0, 0)), 0, 1), (((0, 0, 0), (0, -1, 0)), 1, 1),
    (((1, 0, 2), (1, 3, 2)), 1, 3), (((0, 0, -2), (0, 0, 0)), 2, 2),
    (((2, 0, 1), (-2, 0, 1)), 0, 0)])
def test_mirror_fold_moves_the_differing_axis_to_axis_0(pair, axis, centre):
    (perm, flip), centres, xf, yf = ex._fold_frame(*pair)
    assert perm[0] == axis and sorted(perm) == [0, 1, 2]
    assert centres[0] == centre and flip == (pair[0][axis] + pair[1][axis] < 0)
    # the frame's sites are the pair's, reordered and flipped on axis 0
    assert xf[0] + yf[0] == centre and xf[1:] == yf[1:]
    for site, frame in zip(pair, (xf, yf)):
        assert frame[1:] == tuple(site[a] for a in perm[1:])
        assert frame[0] == (-1 if flip else 1) * site[axis]
    # axes 1 and 2 fold about 0 where both sites are 0 there
    assert centres[1:] == [0 if xf[a] == yf[a] == 0 else None for a in (1, 2)]


@pytest.mark.parametrize("b", [3, 5])
def test_mirror_sectors_cover_the_axis(b):
    # even + odd own coordinates span the mirror range, the tail the rest
    for centre in range(0, 2 * b):
        secs = ex._axis_sectors(b, centre)
        (even, tail, s_even), (odd, tail_o, s_odd) = secs[:2]
        assert (s_even, s_odd) == (1, -1) and np.array_equal(tail, tail_o)
        assert even.size + odd.size + tail.size == 2 * b + 1
        assert np.array_equal(tail, np.arange(-b, centre - b))
        assert even[0] == (centre + 1) // 2 and odd[0] == centre // 2 + 1
        assert len(secs) == (3 if centre else 2)


def dense_mc_moment_l2(ctx, x_site, y_site, samples, b, seed):
    """The l=2 moment MC with the dense (n, n) Green matrix (test oracle): (mean, stderr)."""
    kernel = ex._green_kernel(ctx.estar, 2 * b)
    rx = ex._shifted_field(kernel, b, x_site)
    ry = ex._shifted_field(kernel, b, y_site)
    gmat = dense_green_matrix(kernel, b)
    rng = substream(seed, "moment-mc", 2)
    pxy = float(np.sum(rx * ry))
    vals, done = np.empty(samples), 0
    while done < samples:
        m = min(ex.MC_BATCH, samples - done)
        v = DensitySpec().sample(rng, (m, rx.size))
        quad = np.sum((rx * v) * ((v * ry) @ gmat), axis=1)
        vals[done:done + m] = (ctx.lam**2 * quad - ctx.sigma * pxy) ** 2
        done += m
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(samples))


def test_l2_moment_mc_matches_dense_oracle(context_factory):
    ctx = context_factory(0.5, 0.45)
    x, y = (0, 0, 0), (1, 0, 0)
    cmp2 = ex.mc_moment_Al_squared(2, ctx, x, y, samples=1200, box_radius=5, seed=4)
    mean, stderr = dense_mc_moment_l2(ctx, x, y, 1200, 5, 4)
    assert cmp2.mc_estimate == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert cmp2.mc_stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x, y", [((0, 0, 0), (0, 0, 0)), ((0, 0, 0), (1, 1, 1))])
def test_l2_moment_mc_matches_dense_oracle_with_three_and_no_folded_axes(context_factory,
                                                                           x, y):
    ctx = context_factory(0.5, 0.45)
    cmp2 = ex.mc_moment_Al_squared(2, ctx, x, y, samples=1200, box_radius=5, seed=4)
    mean, stderr = dense_mc_moment_l2(ctx, x, y, 1200, 5, 4)
    assert cmp2.mc_estimate == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert cmp2.mc_stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x, y", [((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (0, -1, 0)),
                                  ((1, 0, 2), (1, 3, 2)), ((0, 0, -2), (0, 0, 0))])
def test_l2_moment_mc_matches_dense_oracle_on_mirror_pairs(context_factory, x, y):
    ctx = context_factory(0.5, 0.45)
    cmp2 = ex.mc_moment_Al_squared(2, ctx, x, y, samples=1200, box_radius=5, seed=4)
    mean, stderr = dense_mc_moment_l2(ctx, x, y, 1200, 5, 4)
    assert cmp2.mc_estimate == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert cmp2.mc_stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


def test_l1_moment_mc_reads_the_stream_batch_by_batch(context_factory):
    # each batch is DensitySpec().sample(rng, (m, n)) on the substream, m <= MC_BATCH
    ctx = context_factory(0.5, 0.45)
    b, x, y, samples, seed = 4, (0, 0, 0), (1, 0, 0), 1200, 6
    cmp1 = ex.mc_moment_Al_squared(1, ctx, x, y, samples=samples, box_radius=b, seed=seed)
    kernel = ex._green_kernel(ctx.estar, 2 * b)
    w = ex._shifted_field(kernel, b, x) * ex._shifted_field(kernel, b, y)
    rng = substream(seed, "moment-mc", 1)
    vals = []
    for m in (ex.MC_BATCH, ex.MC_BATCH, samples - 2 * ex.MC_BATCH):
        vals.extend((ctx.lam * (DensitySpec().sample(rng, (m, w.size)) @ w)) ** 2)
    assert cmp1.mc_estimate == pytest.approx(np.mean(vals), rel=1e-12, abs=0.0)
    assert cmp1.mc_stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(samples),
                                           rel=1e-12, abs=0.0)


def test_l2_moment_mc_forms_no_dense_green_matrix(context_factory):
    # the panels hold about 0.56 of the 8 n^2 bytes of a dense (n, n) matrix at b = 8
    b = 8
    n = (2 * b + 1) ** 3
    ctx = context_factory(0.3, 0.1)
    tracemalloc.start()
    try:
        ex.mc_moment_Al_squared(2, ctx, (0, 0, 0), (1, 0, 0), samples=2, box_radius=b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.7 * 8 * n * n


def test_l2_moment_mc_folds_the_two_axes_its_sites_share(context_factory):
    # x = 0, y = (1, 0, 0) fold axes 1 and 2: four sectors whose panels take
    # ((b+1)^2 + b^2)^2 / (2b+1)^4 = 0.25 of the whole cube's panel bytes,
    # about 0.14 of the 8 n^2 bytes of a dense (n, n) matrix at b = 8
    b = 8
    n = (2 * b + 1) ** 3
    ctx = context_factory(0.3, 0.1)
    tracemalloc.start()
    try:
        ex.mc_moment_Al_squared(2, ctx, (0, 0, 0), (1, 0, 0), samples=2, box_radius=b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n * n


def test_l2_moment_mc_mirror_folds_the_axis_its_sites_differ_on(context_factory):
    # x = 0, y = (1, 0, 0): the mirror t -> 1 - t splits axis 0 into an even and
    # an odd half of b slabs each plus one leftover slab, on top of the folds of
    # axes 1 and 2; the panels take about 0.084 of the 8 n^2 bytes of a dense
    # (n, n) matrix at b = 8, against 0.14 for the four sectors of axes 1 and 2
    b = 8
    n = (2 * b + 1) ** 3
    ctx = context_factory(0.3, 0.1)
    tracemalloc.start()
    try:
        ex.mc_moment_Al_squared(2, ctx, (0, 0, 0), (1, 0, 0), samples=2, box_radius=b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.12 * 8 * n * n
    sectors = ex._sector_panels(ex._green_kernel(ctx.estar, 2 * b), b, (0, 0, 0), (1, 0, 0))
    panel_bytes = sum(t.nbytes for p in sectors[2] for _, _, t in p)
    assert len(sectors[2]) == 12 and panel_bytes < 0.09 * 8 * n * n


@pytest.mark.parametrize("b", [3, 4])
@pytest.mark.parametrize("estar", [0.45, 0.1])
def test_l2_diagram_moment_equals_dense_double_sum(context_factory, b, estar):
    # lam^4 [rx^2.(G o G) ry^2 + (rx ry).(G o G)(rx ry) + c_4 G(0)^2 sum rx^2 ry^2]
    ctx = context_factory(0.5, estar)
    x, y = (0, 0, 0), (1, 0, 0)
    gmat = dense_green_matrix(ex._green_kernel(estar, 2 * b), b)
    side = 2 * b + 1

    def column(site):
        return gmat[:, int(np.ravel_multi_index([c + b for c in site], (side,) * 3))]

    rx, ry = column(x), column(y)
    g2 = gmat**2
    mixed = rx * ry
    c4 = dg.cumulant_coefficient(4)
    exact = ctx.lam**4 * ((rx**2) @ g2 @ (ry**2) + mixed @ g2 @ mixed
                          + c4 * gmat[0, 0]**2 * np.sum(rx**2 * ry**2))
    value = ex.diagram_moment(2, ctx, x, y, b)
    assert type(value) is float
    assert value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("b", range(1, 13))
@pytest.mark.parametrize("estar", [0.45, 0.1, 0.01])
def test_convolve_same_equals_fftconvolve(b, estar):
    # the l=2 pair-sum convolutions of diagram_moment, against scipy.signal
    kernel = ex._green_kernel(estar, 2 * b)
    side = 2 * b + 1
    rx = ex._shifted_field(kernel, b, (0, 0, 0)).reshape((side,) * 3)
    ry = ex._shifted_field(kernel, b, (1, 0, 0)).reshape((side,) * 3)
    k2 = kernel**2
    for field in (ry**2, rx * ry):
        assert np.array_equal(ex._convolve_same(field, k2),
                              fftconvolve(field, k2, mode="same"))
