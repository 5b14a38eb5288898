"""Renormalized resolvent expansion with the stopping rule.

Writing H = (-Delta/2 - sigma) + (lam V + sigma) and R_r for the shifted
free resolvent, repeated application of R = R_r - R_r (lam V) R - R_r sigma R
expands the full resolvent into strings of insertions

    theta in {potential V (order 1), bullet -sigma (order 2)},

where each string's order is the sum of its insertion orders.  The stopping
rule freezes a string once its order reaches or exceeds the threshold N: the
frozen strings keep the trailing full resolvent (terminal "full"), all
others terminate in R_r (terminal "free").  The resulting decomposition

    R = sum_{l<N} A_l + sum_z (A'_N + B_N)(x, z) R(z, y)

is an exact operator identity for any box, any potential, and any constant
sigma, which makes its numerical residual a pure solver-precision check.

Explicit terms are exactly the strings of order < N; remainder strings of
order N are A'_N, and remainder strings of order N + 1 all end on a bullet
appended to an order-(N-1) string, which is the recursion
B_N = -sigma A'_{N-1} R_r.

Disorder moments E A_l^2 are estimated two ways: termwise Monte Carlo over
the potential, and the gate-free partition sum evaluated with truncated
lattice sums of the free Green function.  Their agreement is the numerical
witness of the tadpole cancellation that the renormalization buys.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

from .anderson import Box, _direct_solver, build_hamiltonian
from .density import DensitySpec
from .diagrams import cumulant_coefficient
from .errors import CombinatorialBudgetError, TruncationError
from .green import _green_octant
from .graphvalues import log_damping_constant
from .rng import substream
from .selfenergy import EnergyContext

__all__ = [
    "POTENTIAL",
    "BULLET",
    "ExpansionTerm",
    "Decomposition",
    "generate_terms",
    "direct_filter_terms",
    "term_order",
    "evaluate_decomposition",
    "DecompositionCheck",
    "mc_moment_Al_squared",
    "MomentComparison",
    "check_decay_envelope",
    "DecayEnvelopeReport",
]

POTENTIAL = "V"
BULLET = "B"
_ORDER = {POTENTIAL: 1, BULLET: 2}
MAX_STOPPING_ORDER = 12
TRUNCATION_TOL = 1e-3  # largest boundary-shell share of a truncated lattice sum
MC_BATCH = 500         # potential samples drawn per batch in the moment MC


def term_order(insertions) -> int:
    return sum(_ORDER[t] for t in insertions)


@dataclass(frozen=True)
class ExpansionTerm:
    """One string of insertions with its terminal resolvent."""

    insertions: tuple
    terminal: str  # "free" (R_r) or "full" (R)

    def __post_init__(self):
        if self.terminal not in ("free", "full"):
            raise ValueError("terminal must be 'free' or 'full'")
        if any(t not in _ORDER for t in self.insertions):
            raise ValueError("insertions must be 'V' or 'B'")

    @property
    def order(self) -> int:
        return term_order(self.insertions)

    def weight(self, lam: float, sigma: float) -> float:
        """Scalar coefficient: each V carries -lam, each bullet -sigma."""
        out = 1.0
        for t in self.insertions:
            out *= -lam if t == POTENTIAL else -sigma
        return out

    def display(self) -> str:
        """Human-readable operator string, e.g. 'Rr.V.Rr.B.R'."""
        parts = ["Rr"]
        for t in self.insertions:
            parts.append(t)
            parts.append("Rr")
        if self.insertions:
            parts[-1] = "Rr" if self.terminal == "free" else "R"
        elif self.terminal == "full":
            parts = ["R"]
        return ".".join(parts)

    def sort_key(self):
        # potential sorts before bullet; shorter strings first within an order
        return (self.order, len(self.insertions),
                tuple(0 if t == POTENTIAL else 1 for t in self.insertions))


@dataclass(frozen=True)
class Decomposition:
    """Stopping-order-N split of the resolvent into explicit and remainder terms."""

    stopping_order: int
    explicit_terms: tuple   # terminal "free", orders 0 .. N-1
    aprime_terms: tuple     # terminal "full", order exactly N
    bullet_terms: tuple     # terminal "full", order N+1, trailing bullet

    @property
    def remainder_terms(self) -> tuple:
        return self.aprime_terms + self.bullet_terms

    @property
    def all_terms(self) -> tuple:
        return self.explicit_terms + self.remainder_terms

    def term_table(self) -> str:
        """Text table (insertion string, order, terminal) for golden files."""
        lines = ["insertions,order,terminal"]
        for t in self.all_terms:
            lines.append(f"{''.join(t.insertions) or '-'},{t.order},{t.terminal}")
        return "\n".join(lines) + "\n"


def _check_stopping_order(n: int):
    if n < 1:
        raise ValueError("stopping order must be >= 1")
    if n > MAX_STOPPING_ORDER:
        raise CombinatorialBudgetError(
            f"stopping order {n} exceeds the term-count guard {MAX_STOPPING_ORDER}"
        )


def generate_terms(stopping_order: int) -> Decomposition:
    """Expand R term by term, freezing each string once its order reaches N."""
    n = stopping_order
    _check_stopping_order(n)
    explicit, remainder = [], []
    stack = [()]
    while stack:
        ins = stack.pop()
        explicit.append(ExpansionTerm(ins, "free"))
        for step in (POTENTIAL, BULLET):
            new = ins + (step,)
            if term_order(new) >= n:
                remainder.append(ExpansionTerm(new, "full"))
            else:
                stack.append(new)
    explicit.sort(key=ExpansionTerm.sort_key)
    remainder.sort(key=ExpansionTerm.sort_key)
    aprime = tuple(t for t in remainder if t.order == n)
    bullets = tuple(t for t in remainder if t.order == n + 1)
    assert len(aprime) + len(bullets) == len(remainder)
    return Decomposition(stopping_order=n, explicit_terms=tuple(explicit),
                         aprime_terms=aprime, bullet_terms=bullets)


def direct_filter_terms(stopping_order: int) -> Decomposition:
    """Independent generator: enumerate all strings and filter by the rule.

    A string is explicit iff its order is < N; it is a remainder iff its
    order is >= N while the order without the last insertion is < N.
    """
    n = stopping_order
    _check_stopping_order(n)
    explicit, remainder = [], []
    strings = [()]
    for _ in range(n + 1):
        new = []
        for s in strings:
            if term_order(s) < n:
                new.extend(s + (step,) for step in (POTENTIAL, BULLET))
        strings.extend(new)
        if not new:
            break
    for s in set(strings):
        order = term_order(s)
        if order < n:
            explicit.append(ExpansionTerm(s, "free"))
        elif s and term_order(s[:-1]) < n:
            remainder.append(ExpansionTerm(s, "full"))
    explicit.sort(key=ExpansionTerm.sort_key)
    remainder.sort(key=ExpansionTerm.sort_key)
    return Decomposition(stopping_order=n, explicit_terms=tuple(explicit),
                         aprime_terms=tuple(t for t in remainder if t.order == n),
                         bullet_terms=tuple(t for t in remainder if t.order == n + 1))


@dataclass(frozen=True)
class DecompositionCheck:
    """Residual of the decomposition identity evaluated on a finite box."""

    stopping_order: int
    lhs: complex
    rhs: complex
    column_norm: float
    eta: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_residual(self) -> float:
        return self.residual / self.column_norm


def evaluate_decomposition(box: Box, potential: np.ndarray, context: EnergyContext,
                           x_site, y_site, stopping_order: int,
                           eta: float = 0.0) -> DecompositionCheck:
    """Evaluate both sides of the identity with box-consistent operators.

    R_r is the resolvent of the *box* operator -Delta/2 + E* (the identity is
    exact resolvent algebra for the box Hamiltonian, so the residual measures
    solver precision only).  x and y must sit at least a quarter diameter
    away from the boundary.
    """
    quarter = box.side // 4
    for site in (x_site, y_site):
        if box.distance_to_boundary(site) < quarter:
            raise ValueError(f"site {tuple(site)} closer than {quarter} to the boundary")
    n = box.n_sites
    solve_free = _direct_solver(build_hamiltonian(box, np.zeros(n), 0.0), context.estar, eta)
    solve_full = _direct_solver(build_hamiltonian(box, potential, context.lam),
                                context.energy, eta)
    ey = np.zeros(n, dtype=complex if eta > 0 else float)
    ey[box.index(y_site)] = 1.0
    column = solve_full(ey)[0]
    free_column = solve_free(ey)[0]
    ix = box.index(x_site)
    lhs = column[ix]

    lam, sigma = context.lam, context.sigma
    rhs = 0.0
    for term in generate_terms(stopping_order).all_terms:
        v = column if term.terminal == "full" else free_column
        for step in reversed(term.insertions):
            v = (-lam * potential) * v if step == POTENTIAL else (-sigma) * v
            v = solve_free(v)[0]
        rhs += v[ix]
    return DecompositionCheck(stopping_order=stopping_order, lhs=complex(lhs),
                              rhs=complex(rhs),
                              column_norm=float(np.linalg.norm(column)), eta=eta)


def _green_kernel(estar: float, radius: int) -> np.ndarray:
    """(2*radius+1)^3 array of free Green values over lattice differences."""
    a = np.abs(np.arange(-radius, radius + 1))
    return _green_octant(estar, radius)[np.ix_(a, a, a)]


def _green_matrix(kernel: np.ndarray, box_radius: int) -> np.ndarray:
    """Dense (n, n) matrix G(z_a - z_c) over the cube [-box_radius, box_radius]^3.

    Entry (a, c) is kernel[z_c - z_a + 2 box_radius], read from one window view;
    the kernel is exactly reflection-symmetric, so that is G(z_a - z_c).
    """
    side = 2 * box_radius + 1
    windows = sliding_window_view(kernel, (side,) * 3)[::-1, ::-1, ::-1]
    return windows.reshape(side**3, side**3)


def _shifted_field(kernel: np.ndarray, radius: int, box_radius: int, site) -> np.ndarray:
    """Field z -> G(z - site) over the cube [-box_radius, box_radius]^3, flattened."""
    b = box_radius
    sl = tuple(slice(radius - b - int(c), radius + b + 1 - int(c)) for c in site)
    return kernel[sl].ravel()


@dataclass(frozen=True)
class MomentComparison:
    """Termwise MC of E A_l^2 against the gate-free partition lattice sum."""

    order: int
    mc_estimate: float
    mc_stderr: float
    prediction: float
    samples: int
    box_radius: int

    @property
    def z_score(self) -> float:
        return (self.mc_estimate - self.prediction) / self.mc_stderr


def _moment_prediction_l1(lam, rx, ry):
    return lam**2 * float(np.sum(rx**2 * ry**2))


def _moment_prediction_l2(lam, rx, ry, kernel, box_radius):
    """lam^4 [ S_{{1,4},{2,5}} + S_{{1,5},{2,4}} + c_4 S_{4-block} ] via convolutions."""
    b = box_radius
    side = 2 * b + 1
    g0 = kernel[2 * b, 2 * b, 2 * b]
    k2 = kernel**2
    rx3, ry3 = rx.reshape(side, side, side), ry.reshape(side, side, side)
    conv1 = fftconvolve(ry3**2, k2, mode="same")
    s1 = float(np.sum(rx3**2 * conv1))
    mixed = rx3 * ry3
    conv2 = fftconvolve(mixed, k2, mode="same")
    s2 = float(np.sum(mixed * conv2))
    c4 = cumulant_coefficient(4)
    s3 = g0**2 * float(np.sum(rx3**2 * ry3**2))
    return lam**4 * (s1 + s2 + c4 * s3)


def _truncation_ratio(rx, ry, box_radius):
    """Boundary-shell share of the l=1 lattice sum (truncation health check)."""
    w = rx**2 * ry**2
    shell = Box(side=2 * box_radius + 1).boundary_indices()
    total = float(np.sum(w))
    return float(np.sum(w[shell])) / total if total > 0 else 0.0


def mc_moment_Al_squared(order: int, context: EnergyContext, x_site, y_site,
                         samples: int, box_radius: int = 5,
                         seed: int = 0) -> MomentComparison:
    """Disorder-MC of A_l(x,y)^2 vs the gate-free diagram sum, l in {1, 2}.

    Lattice sums run over the cube [-box_radius, box_radius]^3; both the MC
    terms and the prediction use the same truncation, so only statistical
    error separates them.
    """
    if order not in (1, 2):
        raise ValueError("closed-form comparison targets are l = 1 and l = 2")
    if samples < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    b = box_radius
    estar, lam, sigma = context.estar, context.lam, context.sigma
    kernel = _green_kernel(estar, 2 * b)
    rx = _shifted_field(kernel, 2 * b, b, x_site)
    ry = _shifted_field(kernel, 2 * b, b, y_site)
    trunc = _truncation_ratio(rx, ry, b)
    if trunc > TRUNCATION_TOL:
        raise TruncationError(
            f"boundary shell carries {trunc:.2e} of the lattice sum "
            f"(tolerance {TRUNCATION_TOL:g}); enlarge box_radius beyond {b}"
        )

    side = 2 * b + 1
    n_sites = side**3
    if order == 1:
        prediction = _moment_prediction_l1(lam, rx, ry)
    else:
        prediction = _moment_prediction_l2(lam, rx, ry, kernel, b)
        gmat = _green_matrix(kernel, b)

    density = DensitySpec()
    rng = substream(seed, "moment-mc", order)
    vals = np.empty(samples)
    done = 0
    pxy = float(np.sum(rx * ry))
    while done < samples:
        m = min(MC_BATCH, samples - done)
        v = density.sample(rng, (m, n_sites))
        if order == 1:
            a = lam * (v @ (rx * ry))
        else:
            w = (v * ry) @ gmat
            quad = np.sum((rx * v) * w, axis=1)
            a = lam**2 * quad - sigma * pxy
        vals[done:done + m] = a**2
        done += m
    mc = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return MomentComparison(order=order, mc_estimate=mc, mc_stderr=err,
                            prediction=prediction, samples=samples, box_radius=b)


def diagram_moment(order: int, context: EnergyContext, x_site, y_site,
                   box_radius: int, kernel: np.ndarray = None) -> float:
    """Gate-free partition lattice sum for E A_l^2 (no Monte Carlo)."""
    if order not in (1, 2):
        raise ValueError("l must be 1 or 2")
    b = box_radius
    if kernel is None:
        kernel = _green_kernel(context.estar, 2 * b)
    rx = _shifted_field(kernel, 2 * b, b, x_site)
    ry = _shifted_field(kernel, 2 * b, b, y_site)
    if order == 1:
        return _moment_prediction_l1(context.lam, rx, ry)
    return _moment_prediction_l2(context.lam, rx, ry, kernel, b)


@dataclass(frozen=True)
class DecayEnvelopeReport:
    order: int
    estar: float
    distances: tuple
    moments: tuple
    fitted_rate: float
    envelope_rate: float        # sqrt(E*/3)
    fitted_K: float             # constant in C(E*) = K ln^9(e + 1/E*) making the envelope hold

    @property
    def holds(self) -> bool:
        return self.fitted_rate >= self.envelope_rate


def check_decay_envelope(order: int, context: EnergyContext, distances,
                         box_margin: int = 5) -> DecayEnvelopeReport:
    """Fit the decay rate of the diagram-sum E A_l^2 along an axis.

    The envelope rate sqrt(E*/3) is an upper bound on the kernel, hence a
    lower bound for the fitted rate; the constant K is fitted as the smallest
    value for which (4l)! E* (K ln^9(e+1/E*) lam^2 / sqrt(E*))^l e^{-rate r}
    dominates the computed moments.
    """
    if order > 2:
        raise ValueError("desk-scale closed forms stop at l = 2")
    distances = sorted(int(r) for r in distances)
    b = max(distances) // 2 + box_margin
    kernel = _green_kernel(context.estar, 2 * b)
    vals = []
    for r in distances:
        half = r // 2
        x = (-half, 0, 0)
        y = (r - half, 0, 0)
        vals.append(diagram_moment(order, context, x, y, b, kernel=kernel))
    rates = np.polyfit(np.array(distances, dtype=float), np.log(vals), 1)
    fitted_rate = -float(rates[0])
    env_rate = math.sqrt(context.estar / 3.0)
    lam, estar = context.lam, context.estar
    base = math.factorial(4 * order) * estar * (lam**2 / math.sqrt(estar)) ** order
    log9 = log_damping_constant(estar, 1.0)
    k_fit = max(
        (v * math.exp(env_rate * r) / base) ** (1.0 / order) / log9
        for r, v in zip(distances, vals)
    )
    return DecayEnvelopeReport(order=order, estar=estar, distances=tuple(distances),
                               moments=tuple(float(v) for v in vals),
                               fitted_rate=fitted_rate, envelope_rate=env_rate,
                               fitted_K=float(k_fit))
