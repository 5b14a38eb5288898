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
B_N = -sigma A'_{N-1} R_r.  A test checks the recursive generator against a
second one that enumerates every string and filters it by this rule.

Disorder moments E A_l^2 are estimated two ways: termwise Monte Carlo over
the potential, and the gate-free partition sum evaluated with truncated
lattice sums of the free Green function.  Their agreement is the numerical
witness of the tadpole cancellation that the renormalization buys.  The l=2
Monte Carlo never forms the (n, n) Green matrix of the cube: it evaluates
its quadratic form from the lower triangle of the symmetrised form, stored
as column panels of two x-slabs, split by the reflections its two sites
share (`_sector_panels`).  An axis on which both sites have coordinate 0
folds: the form splits exactly into an even and an odd part on the half
axis, with the image kernel [G(t - t') +- G(t + t')] / 2.  At the sites
every caller uses, 0 and (1, 0, 0), axes 1 and 2 fold into four sectors
whose panels take ((b+1)^2 + b^2)^2 / (2b+1)^4, about 1/4, of the whole
cube's products and bytes: 0.14 x 8 n^2 bytes (27 MB at b = 8, 0.26 GB at
b = 12) against 0.56 x 8 n^2 for the cube's own lower panels.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

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
    "term_order",
    "evaluate_decomposition",
    "DecompositionCheck",
    "mc_moment_Al_squared",
    "MomentComparison",
    "diagram_moment",
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
    column = solve_full(ey)
    free_column = solve_free(ey)
    ix = box.index(x_site)
    lhs = column[ix]

    lam, sigma = context.lam, context.sigma
    rhs = 0.0
    for term in generate_terms(stopping_order).all_terms:
        v = column if term.terminal == "full" else free_column
        for step in reversed(term.insertions):
            v = (-lam * potential) * v if step == POTENTIAL else (-sigma) * v
            v = solve_free(v)
        rhs += v[ix]
    return DecompositionCheck(stopping_order=stopping_order, lhs=complex(lhs),
                              rhs=complex(rhs),
                              column_norm=float(np.linalg.norm(column)), eta=eta)


def _green_kernel(estar: float, radius: int) -> np.ndarray:
    """(2*radius+1)^3 array of free Green values over lattice differences."""
    a = np.abs(np.arange(-radius, radius + 1))
    return _green_octant(estar, radius)[np.ix_(a, a, a)]


def _axis_sectors(box_radius: int, folded: bool):
    """(coordinates, sign) of each reflection sector of one cube axis.

    An unfolded axis is one sector, t = -b..b, sign 0. A folded axis splits
    into the even sector, t = 0..b, sign +1, and the odd one, t = 1..b, sign -1.
    """
    b = box_radius
    if not folded:
        return ((np.arange(-b, b + 1), 0),)
    return ((np.arange(b + 1), 1), (np.arange(1, b + 1), -1))


def _image_sum(a: np.ndarray, axis: int, coords: np.ndarray, sign: int) -> np.ndarray:
    """Replace `axis` of a, indexed there by |difference|, by the pair (t, t').

    Entry (t, t') is a(|t - t'|), plus sign a(t + t') on a folded axis: the
    image of t' in the reflection.
    """
    out = np.take(a, np.abs(coords[:, None] - coords[None, :]), axis=axis)
    if sign:
        out += sign * np.take(a, coords[:, None] + coords[None, :], axis=axis)
    return out


def _reflect(u: np.ndarray, axis: int, box_radius: int, sign: int) -> np.ndarray:
    """u(t) + sign u(-t) along `axis` over the sector's t; u itself for sign 0."""
    if not sign:
        return u
    b = box_radius
    cut = (slice(None),) * axis
    start = 0 if sign > 0 else 1
    pos = u[cut + (slice(b + start, None),)]
    neg = u[cut + (slice(b - start, None, -1),)]
    return pos + neg if sign > 0 else pos - neg


def _fold(v: np.ndarray, axis_signs, box_radius: int) -> list:
    """Sector coordinates u of the rows of v (m, n), in `_sector_panels`' order.

    The even sector's u(0) is 2 v(0); its fields carry the 1/2 back. Each axis
    is folded once, for all the sectors that share the axes before it.
    """
    side = 2 * box_radius + 1
    us = [v.reshape(-1, side, side, side)]
    for axis, signs in enumerate(axis_signs, start=1):
        us = [_reflect(u, axis, box_radius, sign) for u in us for sign in signs]
    return [u.reshape(len(v), -1) for u in us]


def _sector_panels(kernel: np.ndarray, box_radius: int, x_site, y_site):
    """The l=2 quadratic form (rx o v)^T G (ry o v) as reflection-sector panels.

    G is symmetric, so the form is v^T S v with S = G o (rx ry^T + ry rx^T) / 2.
    An axis on which both sites have coordinate 0 is folded: t -> -t leaves
    G, rx and ry unchanged, so S commutes with it and the form splits, with
    no cross term, into an even and an odd part over the half axis (`_fold`)
    with kernel [G(t - t') +- G(t + t')] / 2, the method of images. Each
    sector's form is its lower triangle T (T_aa = S_aa, T_ca = 2 S_ca for
    c > a), u^T S u = sum_{c >= a} u_c T_ca u_a, kept as column panels
    T[i0:, i0:i1] of two axis-0 slabs. The images of axes 1 and 2 are summed
    first into one small kernel per sector over (t1, t2, |dx0|, t1', t2'), so
    each panel is one gather of it (two on a folded axis 0). With no folded
    axis there is one sector, the cube, with one image of weight 1.

    Returns (axis_signs, panels): each axis's sector signs for `_fold`, and
    per sector, in `_fold`'s order, its (i0, i1, panel) triples.
    """
    b = box_radius
    side = 2 * b + 1
    octant = kernel[2 * b:, 2 * b:, 2 * b:]
    rx3 = _shifted_field(kernel, 2 * b, b, x_site).reshape((side,) * 3)
    ry3 = _shifted_field(kernel, 2 * b, b, y_site).reshape((side,) * 3)
    axes = [_axis_sectors(b, x == y == 0) for x, y in zip(x_site, y_site)]
    scale = 0.5 ** sum(len(a) - 1 for a in axes)
    sectors = []
    for (c0, s0), (c1, s1), (c2, s2) in itertools.product(*axes):
        images = _image_sum(_image_sum(octant, 1, c1, s1), 3, c2, s2)
        images = np.ascontiguousarray(images.transpose(1, 3, 0, 2, 4))
        images *= scale
        # an even sector's u(0) is 2 v(0) (`_fold`): halve its fields there
        h0, h1, h2 = (np.where((c == 0) & (s > 0), 0.5, 1.0)
                      for c, s in ((c0, s0), (c1, s1), (c2, s2)))
        h = (h0[:, None, None] * h1[:, None] * h2).ravel()
        ix = np.ix_(c0 + b, c1 + b, c2 + b)
        rx, ry = rx3[ix].ravel() * h, ry3[ix].ravel() * h
        t1 = np.arange(c1.size)[None, :, None, None]
        t2 = np.arange(c2.size)[None, None, :, None]
        slab = c1.size * c2.size
        panels = []
        for x0 in range(0, c0.size, 2):
            x1 = min(x0 + 2, c0.size)
            i0, i1 = x0 * slab, x1 * slab
            xc, xa = c0[x0:, None, None, None], c0[None, None, None, x0:x1]
            t = rx[i0:, None] * ry[i0:i1]
            t += ry[i0:, None] * rx[i0:i1]
            g = images[t1, t2, np.abs(xc - xa)]
            if s0:
                g += s0 * images[t1, t2, xc + xa]
            t *= g.reshape(t.shape)
            del g  # at most two panel-sized temporaries at a time
            top = t[:i1 - i0]
            top[np.triu_indices_from(top, 1)] = 0.0
            top[np.diag_indices_from(top)] *= 0.5
            panels.append((i0, i1, t))
        sectors.append(panels)
    return tuple(tuple(sign for _, sign in a) for a in axes), sectors


def _sector_quadratic_form(sectors, v: np.ndarray, box_radius: int) -> np.ndarray:
    """Row-wise v^T S v over the sectors of `_sector_panels`, for v of shape (m, n)."""
    axis_signs, panels = sectors
    return sum(sum(np.einsum("ij,ij->i", u[:, i0:i1], u[:, i0:] @ t) for i0, i1, t in p)
               for u, p in zip(_fold(v, axis_signs, box_radius), panels))


def _convolve_same(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Linear convolution a * kernel, the part centred on a's shape.

    Real FFTs over the full shape, each axis padded to a fast length: the
    arithmetic of scipy.signal.fftconvolve(a, kernel, mode="same"), so the
    results agree bit for bit.
    """
    full = [n + m - 1 for n, m in zip(a.shape, kernel.shape)]
    fshape = [next_fast_len(n, True) for n in full]
    out = irfftn(rfftn(a, fshape) * rfftn(kernel, fshape), fshape)
    return out[tuple(slice((f - n) // 2, (f - n) // 2 + n)
                     for f, n in zip(full, a.shape))]


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


def _truncation_ratio(rx, ry, cube: Box):
    """Boundary-shell share of the l=1 lattice sum (truncation health check)."""
    w = rx**2 * ry**2
    total = float(np.sum(w))
    return float(np.sum(w[cube.boundary_indices()])) / total if total > 0 else 0.0


def diagram_moment(order: int, context: EnergyContext, x_site, y_site,
                   box_radius: int, kernel: np.ndarray = None) -> float:
    """Gate-free partition lattice sum for E A_l^2 over the cube, l in {1, 2}.

    l = 1 is lam^2 sum_z rx^2 ry^2; l = 2 is lam^4 [S_{{1,4},{2,5}} +
    S_{{1,5},{2,4}} + c_4 S_{4-block}], the pair sums by FFT convolution with
    G^2 (`_convolve_same`). Raises ValueError for a site outside the cube and
    TruncationError when the cube's boundary shell carries more than
    TRUNCATION_TOL of the l=1 sum.
    """
    if order not in (1, 2):
        raise ValueError("l must be 1 or 2")
    b = box_radius
    cube = Box(side=2 * b + 1)
    for site in (x_site, y_site):
        cube.index(site)  # ValueError for a site outside, before the kernel
    if kernel is None:
        kernel = _green_kernel(context.estar, 2 * b)
    rx = _shifted_field(kernel, 2 * b, b, x_site)
    ry = _shifted_field(kernel, 2 * b, b, y_site)
    trunc = _truncation_ratio(rx, ry, cube)
    if trunc > TRUNCATION_TOL:
        raise TruncationError(
            f"boundary shell carries {trunc:.2e} of the lattice sum "
            f"(tolerance {TRUNCATION_TOL:g}); enlarge box_radius beyond {b}"
        )
    lam = context.lam
    if order == 1:
        return lam**2 * float(np.sum(rx**2 * ry**2))
    side = 2 * b + 1
    k2 = kernel**2
    rx3, ry3 = rx.reshape(side, side, side), ry.reshape(side, side, side)
    s1 = float(np.sum(rx3**2 * _convolve_same(ry3**2, k2)))
    mixed = rx3 * ry3
    s2 = float(np.sum(mixed * _convolve_same(mixed, k2)))
    s3 = kernel[2 * b, 2 * b, 2 * b]**2 * float(np.sum(rx3**2 * ry3**2))
    return float(lam**4 * (s1 + s2 + cumulant_coefficient(4) * s3))


def mc_moment_Al_squared(order: int, context: EnergyContext, x_site, y_site,
                         samples: int, box_radius: int = 5,
                         seed: int = 0) -> MomentComparison:
    """Disorder-MC of A_l(x,y)^2 vs the gate-free diagram sum, l in {1, 2}.

    The MC terms run over the cube [-box_radius, box_radius]^3 on the kernel
    that `diagram_moment` sums for the prediction, so only statistical error
    separates them. For l = 2 each sample's A_2 is lam^2 (rx o v)^T G (ry o v)
    - sigma sum_z rx ry, the quadratic form read from the lower column panels
    of its reflection sectors (`_sector_panels`). With no folded axis these
    hold about (1/2 + 1/(2b+1)) x 8 n^2 bytes, n = (2b+1)^3, half the
    products of a dense (n, n) G; each folded axis halves that again, so the
    on-axis sites x = 0, y = (1, 0, 0) need 0.14 x 8 n^2 bytes (27 MB at
    b = 8, against 108 MB unfolded).

    A_2^2 is heavy-tailed at E* = 0.1, b = 8: a run of a few hundred samples
    that misses the tail reports both a low mean and a low stderr, so its
    `z_score` is unreliable (lam = 0.3, x = 0, y = (1, 0, 0), 200 samples:
    seeds 1-6 gave z = 0.62, 0.56, -7.84, 0.34, -1.18 and -0.81).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    b = box_radius
    cube = Box(side=2 * b + 1)
    for site in (x_site, y_site):
        cube.index(site)  # ValueError for a site outside, before the kernel
    lam, sigma = context.lam, context.sigma
    kernel = _green_kernel(context.estar, 2 * b)
    prediction = diagram_moment(order, context, x_site, y_site, b, kernel=kernel)
    rx = _shifted_field(kernel, 2 * b, b, x_site)
    ry = _shifted_field(kernel, 2 * b, b, y_site)
    if order == 2:
        sectors = _sector_panels(kernel, b, x_site, y_site)

    density = DensitySpec()
    rng = substream(seed, "moment-mc", order)
    vals = np.empty(samples)
    done = 0
    pxy = float(np.sum(rx * ry))
    while done < samples:
        m = min(MC_BATCH, samples - done)
        v = density.sample(rng, (m, rx.size))
        if order == 1:
            a = lam * (v @ (rx * ry))
        else:
            a = lam**2 * _sector_quadratic_form(sectors, v, b) - sigma * pxy
        vals[done:done + m] = a**2
        done += m
    mc = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return MomentComparison(order=order, mc_estimate=mc, mc_stderr=err,
                            prediction=prediction, samples=samples, box_radius=b)


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
    dominates the computed moments.  Fewer than two distinct distances raise
    ValueError; a box_margin too small for the distances raises
    TruncationError from `diagram_moment`.
    """
    distances = sorted(int(r) for r in distances)
    if len(set(distances)) < 2:
        raise ValueError(f"a decay rate needs two distinct distances, got {distances}")
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
