import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from lifshitzlab import diagrams as dg
from lifshitzlab import graphvalues as gv
from lifshitzlab import selfenergy as se
from lifshitzlab.errors import NonIntegrableError, OutsideLifshitzWindowError
from lifshitzlab.rng import substream

A, B = frozenset({1}), frozenset({2})
TWO_LINE = dg.FeynmanGraph(n=0, partition=None, edges={1: (A, B), 2: (A, B)},
                           special_edges=())
GRAPH_F = dg.FeynmanGraph(n=0, partition=None,
                          edges={1: (A, B), 2: (A, B), 3: (A, B)},
                          special_edges=())


def radial_quadrature_two_line_value() -> gv.GraphValueEstimate:
    """Oracle for the two-vertex, two-line loop: int_R3 F(q)^2 d^3q by 1D quadrature."""
    val = 4.0 * math.pi * quad(
        lambda r: r * r * gv.propagator_log_damped(r * r) ** 2, 0.0, np.inf, limit=300
    )[0]
    return gv.GraphValueEstimate(graph_id="two-line-loop", value=val, stderr=0.0,
                                 samples=0, method="radial-quadrature")


def torus_continuum_constant(estar: float, grid: int = 64) -> float:
    """Fitted C = max over T^3 of (p^2+E*)/(e(p)+E*) (pointwise domination constant)."""
    k = np.arange(grid)
    x = (k + 0.5) / grid - 0.5
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    p2 = X**2 + Y**2 + Z**2
    e = 2.0 * (np.sin(np.pi * X) ** 2 + np.sin(np.pi * Y) ** 2 + np.sin(np.pi * Z) ** 2)
    return float(np.max((p2 + estar) / (e + estar)))


def bound_minimum(lam: float, estar: float, n_max: int = None):
    """(argmin_n, min log bound) of the order-n bound; minimum sits near chosen_N."""
    first = gv.assemble_An_bound(1, lam, estar)
    if n_max is None:
        n_max = 4 * first.chosen_N
    best_n, best = 1, first.log_bound_value
    for n in range(2, n_max + 1):
        lb = gv.assemble_An_bound(n, lam, estar).log_bound_value
        if lb < best:
            best_n, best = n, lb
    return best_n, best


def _gate_free_graphs(n):
    parts = dg.enumerate_partitions(dg.IndexSet(n, n), pairings_only=True,
                                    gate_free=True)
    return [dg.build_feynman_graph(p) for p in parts]


def rejection_heavy_radius(rng, count, scale=1.0):
    """Radii with density ~ r^2/(scale^2 + r^2)^2: tan(theta), theta ~ sin^2 by rejection.

    Independent of the Student t draw in `graphvalues` (test oracle for its radius law).
    """
    out = np.empty(count)
    have = 0
    while have < count:
        m = 2 * (count - have) + 16
        theta = rng.uniform(0.0, math.pi / 2.0, size=m)
        u = rng.uniform(0.0, 1.0, size=m)
        acc = theta[u < np.sin(theta) ** 2]
        take = min(count - have, acc.size)
        out[have:have + take] = np.tan(acc[:take])
        have += take
    return scale * out


def heavy_radius_cdf(r):
    """F(r) = (2/pi) (arctan r - r/(1 + r^2)), the law of |q|/scale under g."""
    return (2.0 / math.pi) * (np.arctan(r) - r / (1.0 + r * r))


def row_major_loop_momentum_mc(graph, mc, stream, sample, loop_weight, line_weight):
    """The loop-momentum MC with momenta stored (samples, loops, 3) (test oracle)."""
    tree, loops, a = dg.spanning_tree_decomposition(graph)
    w = sample(substream(mc.seed, stream, 0), (mc.samples, len(loops)))
    est = np.prod(loop_weight(w), axis=1)
    if tree:
        u = np.einsum("ij,mjc->mic", np.array(a, dtype=float), w)
        est = est * np.prod(line_weight(u), axis=1)
    return float(np.mean(est)), float(np.std(est, ddof=1) / math.sqrt(est.size))


def row_major_values(graph, estar, mc):
    """(value, stderr) of graph_value, torus and continuum integrals, row-major oracle."""
    def isotropic(rng, shape, scale):
        g = rng.normal(size=(4, *reversed(shape))).T
        return g[..., :3] * (scale / np.abs(g[..., 3:]))

    q2 = lambda q: np.sum(q * q, axis=-1)
    density = lambda q, scale: (scale / math.pi**2) / (scale * scale + q2(q)) ** 2
    damped = lambda q: gv.propagator_log_damped(q2(q))
    torus = lambda p: 1.0 / (se.dispersion(p) + estar)
    scale = math.sqrt(estar)
    continuum = lambda q: 1.0 / (q2(q) + estar)
    return {
        "graph_value": row_major_loop_momentum_mc(
            graph, mc, mc.stream, lambda rng, shape: isotropic(rng, shape, 1.0),
            lambda w: damped(w) / density(w, 1.0), damped),
        "torus": row_major_loop_momentum_mc(
            graph, mc, mc.stream + ".torus",
            lambda rng, shape: rng.uniform(-0.5, 0.5, size=(*shape, 3)), torus, torus),
        # the loop weight continuum / density in closed form, as the library computes
        # it: for the two-line graph the estimator is constant, so its stderr is
        # rounding noise that only the same arithmetic reproduces
        "continuum": row_major_loop_momentum_mc(
            graph, mc, mc.stream + ".continuum",
            lambda rng, shape: isotropic(rng, shape, scale),
            lambda w: (q2(w) + estar) * (math.pi**2 / scale), continuum),
    }


@pytest.mark.parametrize("estar", [0.2, 0.4, 1e-3])
def test_continuum_loop_weight_is_propagator_over_proposal(estar):
    # pi^2 (|q|^2 + E*) / sqrt(E*) = [1 / (|q|^2 + E*)] / g_scale(q), scale^2 = E*
    scale = math.sqrt(estar)
    q = gv._sample_isotropic(substream(25, "loop-weight"), (20_000, 3), scale)
    q2 = gv._norm2(q)
    ratio = (1.0 / (q2 + estar)) / ((scale / math.pi**2) / (scale * scale + q2) ** 2)
    np.testing.assert_allclose((q2 + estar) * (math.pi**2 / scale), ratio,
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("graph", [
    TWO_LINE, GRAPH_F, *_gate_free_graphs(2), _gate_free_graphs(3)[1],
    _gate_free_graphs(4)[0],
], ids=["two-line", "graph-F", "n2-a", "n2-b", "n3", "n4"])
def test_component_major_mc_matches_row_major_oracle(graph):
    estar, mc = 0.2, gv.MCParams(samples=3_000, seed=9, stream="layout")
    oracle = row_major_values(graph, estar, mc)
    for name, est in [("graph_value", gv.graph_value(graph, mc)),
                      ("torus", gv.torus_pairing_integral(graph, estar, mc)),
                      ("continuum", gv.continuum_pairing_integral(graph, estar, mc))]:
        expected = pytest.approx(oracle[name], rel=1e-13, abs=0.0)
        assert (est.value, est.stderr) == expected, name


@pytest.mark.parametrize("scale", [1.0, math.sqrt(0.2)])
def test_proposal_radius_follows_closed_form_law(scale):
    q = gv._sample_isotropic(substream(21, "radius-law"), (200_000, 1), scale)
    r = np.sqrt(gv._norm2(q)).ravel() / scale
    assert kstest(r, heavy_radius_cdf).pvalue > 1e-3
    oracle = rejection_heavy_radius(substream(22, "radius-law"), r.size)
    assert kstest(r, oracle).pvalue > 1e-3


def test_proposal_is_isotropic():
    q = gv._sample_isotropic(substream(23, "isotropy"), (200_000, 1)).reshape(3, -1)
    unit = q / np.sqrt(gv._norm2(q))
    assert np.abs(unit.mean(axis=1)).max() < 0.005  # stderr 1/sqrt(3 * 2e5) ~ 1.3e-3
    np.testing.assert_allclose(unit @ unit.T / unit.shape[1], np.eye(3) / 3.0,
                               atol=0.005)


def test_proposal_scale_is_an_exact_covariance():
    # the common-random-number scaling checks compare draws at two scales
    scale = math.sqrt(0.2)
    one = gv._sample_isotropic(substream(24, "covariance"), (10_000, 4))
    scaled = gv._sample_isotropic(substream(24, "covariance"), (10_000, 4), scale)
    assert one.shape == scaled.shape == (3, 4, 10_000)
    np.testing.assert_allclose(scaled, scale * one, rtol=1e-15, atol=0.0)


def test_two_line_loop_matches_radial_quadrature():
    est = gv.graph_value(TWO_LINE, gv.MCParams(samples=200_000, seed=7))
    oracle = radial_quadrature_two_line_value()
    assert oracle.method == "radial-quadrature"
    assert abs(est.value - oracle.value) < 3.0 * est.stderr


def test_graph_f_value_finite_and_stderr_shrinks():
    sizes = (25_000, 100_000, 400_000)
    errs = [gv.graph_value(GRAPH_F, gv.MCParams(samples=m, seed=11)).stderr
            for m in sizes]
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.75 < slope < -0.25  # ~ samples^{-1/2}
    assert all(e > 0 for e in errs)


@pytest.mark.parametrize("n,samples", [(2, 20_000), (3, 20_000), (4, 4_000)])
def test_k_to_the_n_fit_exists(n, samples):
    # every gate-free pairing value is finite and the envelope constant
    # K = max |G|^(1/n) is reported
    values = [gv.graph_value(g, gv.MCParams(samples=samples, seed=5)).value
              for g in _gate_free_graphs(n)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    k_fit = max(v ** (1.0 / n) for v in values)
    assert math.isfinite(k_fit)
    print(f"\nfitted K at n={n}: {k_fit:.3f} over {len(values)} gate-free pairings")


def test_gate_graph_rejected_as_non_integrable():
    part = dg.Partition(dg.IndexSet(2, 2),
                        frozenset({frozenset({1, 2}), frozenset({4, 5})}))
    with pytest.raises(NonIntegrableError):
        gv.graph_value(dg.build_feynman_graph(part), gv.MCParams(samples=100))


def test_n1_full_graph_rejected():
    # div(G) = 2 - n = 1 at n = 1: polynomially divergent
    p1 = dg.enumerate_partitions(dg.IndexSet(1, 1), pairings_only=True)[0]
    with pytest.raises(NonIntegrableError):
        gv.graph_value(dg.build_feynman_graph(p1), gv.MCParams(samples=100))


def test_torus_pairing_integral_positive():
    for g in _gate_free_graphs(2):
        est = gv.torus_pairing_integral(g, 0.3, gv.MCParams(samples=20_000, seed=2))
        assert est.value > 0


def test_continuum_scaling_identity_n2():
    graph = _gate_free_graphs(2)[0]
    v1 = gv.continuum_pairing_integral(graph, 0.2, gv.MCParams(samples=150_000, seed=3))
    v2 = gv.continuum_pairing_integral(graph, 0.4, gv.MCParams(samples=150_000, seed=4))
    ratio = v1.value / v2.value
    err = ratio * math.hypot(v1.stderr / v1.value, v2.stderr / v2.value)
    assert abs(ratio - 1.0) < 3.0 * err  # 2^{n/2 - 1} = 1 at n = 2


def test_torus_dominated_by_continuum_times_constant():
    graph = _gate_free_graphs(2)[0]
    estar = 0.2
    t = gv.torus_pairing_integral(graph, estar, gv.MCParams(samples=50_000, seed=5))
    c = gv.continuum_pairing_integral(graph, estar, gv.MCParams(samples=50_000, seed=6))
    const = torus_continuum_constant(estar)
    assert 0 < const <= 1.0 + 1e-12  # e(p) >= p^2 makes the constant <= 1
    assert t.value <= const ** 6 * (c.value + 3 * c.stderr)


def test_assemble_bound_fields_and_stopping_rule():
    ba = gv.assemble_An_bound(2, 1e-4, 0.5)
    assert ba.ratio < 1.0
    assert ba.c_of_estar == pytest.approx(math.log(math.e + 2.0) ** 9)
    assert ba.positive_log_normalization
    assert gv.stopping_rule_holds_exact(ba.ratio, ba.chosen_N)
    # lam -> 0 at fixed estar: the bound vanishes like lam^{2n}
    small = gv.assemble_An_bound(1, 1e-8, 0.5).bound_value
    assert small < gv.assemble_An_bound(1, 1e-4, 0.5).bound_value
    assert small < 1e-12


def test_assemble_outside_window_error():
    with pytest.raises(OutsideLifshitzWindowError):
        gv.assemble_An_bound(2, 0.5, 0.01)


@pytest.mark.parametrize("n, lam, message", [
    (1.5, 1e-4, "n must be an integer, got 1.5"), ("2", 1e-4, "n must be an integer"),
    (2, math.nan, "need a finite lam > 0"), (2, math.inf, "need a finite lam > 0"),
    (2, -1e-4, "need a finite lam > 0"), (0, 1e-4, "n >= 1"),
])
def test_assemble_bound_rejects_non_integer_order_and_non_finite_lam(n, lam, message):
    # n = 1.5 assembled a bound with chosen_N = 2; lam = nan failed inside math.ceil
    with pytest.raises(ValueError, match=message):
        gv.assemble_An_bound(n, lam, 0.5)


def test_assemble_bound_takes_a_numpy_integer_order():
    assert gv.assemble_An_bound(np.int64(2), 1e-4, 0.5) == gv.assemble_An_bound(2, 1e-4, 0.5)


def test_bound_minimum_near_chosen_order():
    ba = gv.assemble_An_bound(1, 1e-4, 0.5)
    n_min, _ = bound_minimum(1e-4, 0.5)
    assert ba.chosen_N / 2 <= n_min <= 2 * ba.chosen_N


def test_lambda_exponent_reported_in_unit_interval_deep_regime():
    # at float-representable but physically absurd couplings the asymptotic
    # window opens and the reported exponent lands in (0, 1)
    ba = gv.assemble_An_bound(1, 1e-60, 1e-180)
    assert 0.0 < ba.lambda_exponent < 1.0


def test_non_finite_estar_rejected_before_sampling(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sampled before checking estar")
    monkeypatch.setattr(gv, "substream", no_draws)
    graph = _gate_free_graphs(2)[0]
    for estar in (math.nan, math.inf, 0.0, -0.1):
        for integral in (gv.continuum_pairing_integral, gv.torus_pairing_integral):
            with pytest.raises(ValueError, match="estar must be finite and > 0"):
                integral(graph, estar)


@pytest.mark.parametrize("estar", [math.nan, math.inf, 0.0])
def test_log_damping_constant_rejects_non_finite_estar(estar):
    with pytest.raises(ValueError, match="estar must be finite and > 0"):
        gv.log_damping_constant(estar)


@pytest.mark.parametrize("samples", [2.5, 2000.0, "2000"])
def test_mc_params_reject_non_integer_samples(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        gv.MCParams(samples=samples)
    assert gv.MCParams(samples=np.int64(2000)).samples == 2000


def test_mc_reproducible_bit_for_bit():
    a = gv.graph_value(TWO_LINE, gv.MCParams(samples=5_000, seed=42))
    b = gv.graph_value(TWO_LINE, gv.MCParams(samples=5_000, seed=42))
    assert a == b
    c = gv.graph_value(TWO_LINE, gv.MCParams(samples=5_000, seed=43))
    assert c.value != a.value

