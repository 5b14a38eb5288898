"""Numerical graph values, scaling checks, and the order-n bound assembly.

The value of a (pairing) graph is the momentum integral

    |G| = int prod_t F(q_t) prod_blocks delta(...),
    F(q) = 1 / ((q^2 + 1) ln^4(q^2 + 2)),

reduced by the spanning tree to an integral over the l = n + 2 loop momenta.
Loop momenta are importance-sampled from the isotropic heavy-tailed density
g(q) = (1/pi^2) (1 + q^2)^{-2}, normalizable in 3D and heavier-tailed than F^2.
It is the 3D Student t with one degree of freedom: q = z/|c| for four standard
normals (z, c), with no rejection step.

Momenta are stored component-major: the loop momenta of a run form one
(3, loops, samples) array and the tree momenta one (3, tree lines, samples)
array, so |q|^2 is q[0]^2 + q[1]^2 + q[2]^2 over contiguous rows and the
products over loops and lines run along axis 0. The isotropic normals are drawn
in that order, as one (4, loops, samples) array; the torus uniforms are drawn
(samples, loops, 3) and transposed, so no sample's value depends on the layout.

The torus variant integrates prod 1/(e(p)+E*) with loop momenta uniform on
T^3; its continuum surrogate replaces propagators by 1/(q^2+E*) over R^3 and
obeys the exact scaling value ~ (E*)^{1 - n/2}.

That scaling is a covariance of the estimator, not a finite value. At n = 2
the surrogate has Lambda = 4 loops and I = 6 propagators, so 3 Lambda - 2 I
= 0 (`divergence_degree` gives (0, -20)). Without the ln^4 damping of
`graph_value` the integral diverges logarithmically in the UV, and its Monte
Carlo estimate has no finite limit: at E* = 0.2, stream "scaling", seed 0
gives 9.73e5 +- 2.1e5, 7.67e5 +- 5.8e4 and 2.14e6 +- 8.7e5 at 1e5, 1e6 and
2e6 samples, so the reported stderr understates the spread. Each sample of
the estimator scales exactly as (E*)^{1 - n/2}, because the proposal is
rescaled with sqrt(E*); the scaling checks rest on that alone.

The bound assembly computes (4n)! E* (C(E*) lam^2 / sqrt(E*))^n with
C(E*) = K ln^9(e + 1/E*).  ln^9 E* changes sign for E* < 1 as literally
written, so the positive normalization ln^9(e + 1/E*) is used everywhere and
flagged in the assembly record.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagrams import (FeynmanGraph, classify_superficial_convergence,
                       spanning_tree_decomposition)
from .errors import NonIntegrableError, OutsideLifshitzWindowError
from .green import _integer
from .rng import substream
from .selfenergy import dispersion

__all__ = [
    "MCParams",
    "GraphValueEstimate",
    "propagator_log_damped",
    "log_damping_constant",
    "graph_value",
    "torus_pairing_integral",
    "continuum_pairing_integral",
    "BoundAssembly",
    "assemble_An_bound",
    "stopping_rule_holds_exact",
]

# rational upper bound on e, for exact one-sided inequality checks
_E_UPPER = Fraction(27182818284590453, 10**16)


@dataclass(frozen=True)
class MCParams:
    samples: int = 100_000
    seed: int = 0
    stream: str = "graphvalue"

    def __post_init__(self):
        _integer(self.samples, "samples")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class GraphValueEstimate:
    graph_id: str
    value: float
    stderr: float
    samples: int
    method: str  # "importance-MC" or "radial-quadrature"

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("estimate must be finite")
        if self.method == "importance-MC" and not self.stderr > 0:
            raise ValueError("MC stderr must be positive")


def _check_estar(estar):
    if not (math.isfinite(estar) and estar > 0):
        raise ValueError("estar must be finite and > 0")


def propagator_log_damped(q2):
    """F(q) = 1 / ((q^2+1) ln^4(q^2+2)) as a function of |q|^2."""
    q2 = np.asarray(q2, dtype=float)
    return 1.0 / ((q2 + 1.0) * np.log(q2 + 2.0) ** 4)


def _norm2(q):
    """|q|^2 of component-major momenta q, shape (3, ...)."""
    return q[0] * q[0] + q[1] * q[1] + q[2] * q[2]


def _sample_isotropic(rng, shape, scale=1.0):
    """Vectors from g(q) = (scale/pi^2) (scale^2 + q^2)^{-2}, shape (3, *reversed(shape)).

    q = scale z/|c| for four standard normals (z, c), drawn as one (4, ...) array. An
    exact-zero c (chance below 1e-9 per 400k-sample call) gives a non-finite
    weight, which `GraphValueEstimate` rejects.
    """
    g = rng.standard_normal(size=(4, *reversed(shape)))
    d = g[:3]
    d *= scale / np.abs(g[3])
    return d


def _proposal_density(q):
    """g(q) = (1/pi^2) (1 + q^2)^{-2}, the density of `_sample_isotropic` at scale 1."""
    return (1.0 / math.pi**2) / (1.0 + _norm2(q)) ** 2


def _loop_momentum_mc(graph: FeynmanGraph, mc: MCParams, stream: str, sample,
                      loop_weight, line_weight):
    """MC mean and stderr of prod_loops loop_weight(w) prod_tree line_weight(u).

    `sample(rng, (samples, loops))` draws the loop momenta w component-major,
    shape (3, loops, samples); the tree momenta are u_i = sum_j a_ij w_j from
    the spanning-tree split, one matrix product per component.
    """
    tree, loops, a = spanning_tree_decomposition(graph)
    w = sample(substream(mc.seed, stream, 0), (mc.samples, len(loops)))
    est = np.prod(loop_weight(w), axis=0)
    if tree:
        u = np.array(a, dtype=float) @ w
        del w  # free the draw before the tree-line weights
        est = est * np.prod(line_weight(u), axis=0)
    return float(np.mean(est)), float(np.std(est, ddof=1) / math.sqrt(est.size))


def graph_value(graph: FeynmanGraph, mc: MCParams = MCParams()) -> GraphValueEstimate:
    """Importance-MC estimate of |G| for a superficially convergent graph."""
    report = classify_superficial_convergence(graph)
    if not report.superficially_convergent:
        raise NonIntegrableError(
            f"graph {graph.label()} is not superficially convergent; "
            "its momentum integral diverges"
        )
    propagator = lambda q: propagator_log_damped(_norm2(q))
    value, stderr = _loop_momentum_mc(
        graph, mc, mc.stream, _sample_isotropic,
        lambda w: propagator(w) / _proposal_density(w), propagator)
    return GraphValueEstimate(graph_id=graph.label(), value=value, stderr=stderr,
                              samples=mc.samples, method="importance-MC")


def torus_pairing_integral(graph: FeynmanGraph, estar: float,
                           mc: MCParams = MCParams()) -> GraphValueEstimate:
    """Torus integral of prod 1/(e(p)+E*) over the graph's delta-constrained momenta."""
    _check_estar(estar)
    propagator = lambda p: 1.0 / (dispersion(np.moveaxis(p, 0, -1)) + estar)
    uniform = lambda rng, shape: np.ascontiguousarray(
        rng.uniform(-0.5, 0.5, size=(*shape, 3)).T)
    value, stderr = _loop_momentum_mc(graph, mc, mc.stream + ".torus", uniform,
                                      propagator, propagator)
    return GraphValueEstimate(graph_id=graph.label() + f"@torus(E*={estar:g})",
                              value=value, stderr=stderr, samples=mc.samples,
                              method="importance-MC")


def continuum_pairing_integral(graph: FeynmanGraph, estar: float,
                               mc: MCParams = MCParams()) -> GraphValueEstimate:
    """Continuum surrogate: propagators 1/(q^2+E*) over R^3 (exact scaling E*^{1-n/2})."""
    _check_estar(estar)
    scale = math.sqrt(estar)
    propagator = lambda q: 1.0 / (_norm2(q) + estar)
    # propagator / proposal = pi^2 (|q|^2 + E*)^2 / (scale (|q|^2 + E*)), scale^2 = E*
    loop_factor = math.pi**2 / scale
    value, stderr = _loop_momentum_mc(
        graph, mc, mc.stream + ".continuum",
        lambda rng, shape: _sample_isotropic(rng, shape, scale=scale),
        lambda w: (_norm2(w) + estar) * loop_factor, propagator)
    return GraphValueEstimate(graph_id=graph.label() + f"@continuum(E*={estar:g})",
                              value=value, stderr=stderr, samples=mc.samples,
                              method="importance-MC")


def log_damping_constant(estar: float) -> float:
    """C(E*) = ln^9(e + 1/E*), the positive normalization of ln^9 E* (constant K = 1)."""
    _check_estar(estar)
    return math.log(math.e + 1.0 / estar) ** 9


@dataclass(frozen=True)
class BoundAssembly:
    """Order-n moment bound (4n)! E* ratio^n and the optimal stopping order."""

    n: int
    lam: float
    estar: float
    c_of_estar: float
    ratio: float           # C(E*) lam^2 / sqrt(E*)
    bound_value: float
    log_bound_value: float
    chosen_N: int
    lambda_exponent: float  # B with ratio = lam^B, the tail exponent epsilon fixed at 1
    positive_log_normalization: bool = True

    def __post_init__(self):
        if self.bound_value < 0 or self.chosen_N < 1:
            raise ValueError("bound must be >= 0 and chosen_N >= 1")


def assemble_An_bound(n: int, lam: float, estar: float) -> BoundAssembly:
    """Assemble the order-n bound and the stopping order (4N)^4 = 1/ratio."""
    n = _integer(n, "n")
    if not (0 < estar < 1):
        raise ValueError("estar must be in (0, 1)")
    if not (math.isfinite(lam) and lam > 0) or n < 1:
        raise ValueError("need a finite lam > 0 and n >= 1")
    c_val = log_damping_constant(estar)
    ratio = c_val * lam**2 / math.sqrt(estar)
    if ratio >= 1.0:
        raise OutsideLifshitzWindowError(
            f"C(E*) lam^2 / sqrt(E*) = {ratio:.3g} >= 1: expansion gains nothing "
            f"(lam={lam:g}, estar={estar:g})"
        )
    log_bound = math.lgamma(4 * n + 1) + math.log(estar) + n * math.log(ratio)
    bound = math.exp(log_bound) if log_bound < 700 else math.inf
    chosen = max(1, math.ceil((1.0 / ratio) ** 0.25 / 4.0))
    b_exp = math.log(ratio) / math.log(lam) if lam != 1.0 else math.nan
    return BoundAssembly(n=n, lam=lam, estar=estar, c_of_estar=c_val, ratio=ratio,
                         bound_value=bound, log_bound_value=log_bound, chosen_N=chosen,
                         lambda_exponent=b_exp)


def stopping_rule_holds_exact(ratio: float, chosen_N: int) -> bool:
    """Exact check of (4N)! ratio^N < e^{-N} via rational arithmetic.

    Replacing e by a rational upper bound only strengthens the inequality
    being verified, so a True verdict is rigorous for the given float ratio.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must be in (0, 1)")
    lhs = Fraction(math.factorial(4 * chosen_N)) * (Fraction(ratio) * _E_UPPER) ** chosen_N
    return lhs < 1
