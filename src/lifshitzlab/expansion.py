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
witness of the tadpole cancellation that the renormalization buys.  One
private evaluator, `_lattice_moment`, holds the truncation guard and the
l=1 and l=2 sums, on the kernel and fields of its caller: `diagram_moment`
(the moment MC's prediction) and the decay-envelope fit, which each build
their kernel themselves, so no public caller can supply one.  The l=2
Monte Carlo never forms the (n, n) Green matrix of the cube: it evaluates
its quadratic form from the lower triangle of the symmetrised form, stored
as column panels of two x-slabs, split by the reflections that leave the
pair of sites in place (`_sector_panels`).  An axis on which both sites have
coordinate 0 folds about 0, and the one axis on which two sites differ, if
they agree on the other two, folds about the midpoint c/2 of their
coordinates there (the mirror swaps the sites); either way the form splits
exactly into an even and an odd part on the half axis, with the image
kernel [S(z, z') +- S(z, R z')] / 2, and the mirror's c leftover slabs
couple to both through the tail rows of their panels.  At the sites every
caller uses, 0 and (1, 0, 0), all three axes fold into twelve sectors whose
panels take 0.084 x 8 n^2 bytes (16 MB at b = 8, 0.15 GB at b = 12).  The
draw is folded samples-minor, so every panel is one product t^T @ u.
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
from .green import _decay_distances, _green_octant, _integer
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


def _axis_sectors(box_radius: int, centre):
    """(own, tail, sign) of each reflection sector of one cube axis.

    An unfolded axis (centre None) is one sector, own t = -b..b, sign 0. An axis
    folded by the reflection t -> c - t, c = centre >= 0, keeps the range
    [c - b, b] and splits it into the even sector, own t = ceil(c/2)..b, sign +1,
    and the odd one, own t = floor(c/2)+1..b, sign -1. Its c leftover values
    t = -b..c-b-1 are the tail rows of both and one more sector of their own,
    sign 0.
    """
    b = box_radius
    if centre is None:
        return ((np.arange(-b, b + 1), np.arange(0), 0),)
    left = np.arange(-b, centre - b)
    folded = ((np.arange((centre + 1) // 2, b + 1), left, 1),
              (np.arange(centre // 2 + 1, b + 1), left, -1))
    return folded + ((left, np.arange(0), 0),) if centre else folded


def _image_sum(a: np.ndarray, axis: int, coords: np.ndarray, sign: int) -> np.ndarray:
    """Replace `axis` of a, indexed there by |difference|, by the pair (t, t').

    Entry (t, t') is a(|t - t'|), plus sign a(t + t') on a folded axis: the
    image of t' in the reflection.
    """
    out = np.take(a, np.abs(coords[:, None] - coords[None, :]), axis=axis)
    if sign:
        out += sign * np.take(a, coords[:, None] + coords[None, :], axis=axis)
    return out


def _reflect(u: np.ndarray, axis: int, box_radius: int, centre, sector) -> np.ndarray:
    """The sector's coordinates of u along `axis`: u(t) + sign u(c - t) over its
    own t, then u(t) over its tail, in a new array. A sector of sign 0 is a
    view of u."""
    own, tail, sign = sector
    b, k = box_radius, own.size
    cut = (slice(None),) * axis
    pos = u[cut + (slice(own[0] + b, own[0] + b + k),)]
    if not sign:
        return pos
    hi = centre - own[0] + b  # index of c - t at the first own t
    neg = u[cut + (slice(hi, hi - k if hi >= k else None, -1),)]
    out = np.empty(u.shape[:axis] + (k + tail.size,) + u.shape[axis + 1:])
    head = out[cut + (slice(k),)]
    # copy, then add in place: both iterate as out lies, also where u is the
    # draw read transposed
    np.copyto(head, pos)
    (np.add if sign > 0 else np.subtract)(head, neg, out=head)
    out[cut + (slice(k, None),)] = u[cut + (slice(tail.size),)]  # the tail is t = -b..
    return out


def _fold(v: np.ndarray, sectors, box_radius: int) -> list:
    """Sector coordinates u, shape (n_s, m), of the rows of v (m, n), in
    `_sector_panels`' order.

    v is read transposed, so the first reflection writes samples-minor arrays
    and each later one moves contiguous runs of m values. Each axis that folds
    reflects every array the axes before it left into new arrays, so two
    levels are alive at a time and nothing is kept between calls. The even
    sector's u(c/2) is 2 v(c/2); its fields carry the 1/2 back.
    """
    (perm, flip), axes, _ = sectors
    side, m = 2 * box_radius + 1, len(v)
    u = v.T.reshape(side, side, side, m).transpose(*perm, 3)
    us = [u[::-1] if flip else u]
    for axis, (centre, secs) in enumerate(axes):
        if centre is None:
            continue  # one sector, the whole axis: u itself
        us = [_reflect(x, axis, box_radius, centre, sec) for x in us for sec in secs]
    return [x.reshape(-1, m) for x in us]


def _fold_frame(x_site, y_site):
    """Axis order, axis-0 flip, fold centres and sites of the pair's folded frame.

    Sites that differ on one axis only are swapped by the mirror t -> c - t of
    that axis, c their coordinate sum there: it becomes axis 0, flipped where
    c < 0 so that its centre is |c|. Any other axis on which both sites have
    coordinate 0 folds about 0 (centre 0); the rest do not fold (None).
    """
    x, y = tuple(x_site), tuple(y_site)
    differ = [a for a in range(3) if x[a] != y[a]]
    if len(differ) != 1:
        return ((0, 1, 2), False), [0 if x[a] == y[a] == 0 else None for a in range(3)], x, y
    a = differ[0]
    perm = (a, *(j for j in range(3) if j != a))
    flip = x[a] + y[a] < 0
    x, y = (((-1 if flip else 1) * s[a], *(s[j] for j in perm[1:])) for s in (x, y))
    return (perm, flip), [x[0] + y[0], *(0 if x[j] == y[j] == 0 else None for j in (1, 2))], x, y


def _sector_panels(kernel: np.ndarray, box_radius: int, x_site, y_site):
    """The l=2 quadratic form (rx o v)^T G (ry o v) as reflection-sector panels.

    G is symmetric, so the form is v^T S v with S = G o (rx ry^T + ry rx^T) / 2.
    A reflection R of one axis that leaves the cube's range [c - b, b] of it
    and the pair {x, y} in place commutes with S, so on that range the form
    splits, with no cross term, into an even and an odd part (`_fold`) with
    kernel [S(z, z') +- S(z, R z')] / 2, the method of images. Two such
    reflections: t -> -t on an axis where both sites are 0 (R fixes x and y),
    and t -> c - t on the one axis where the sites differ, c = x + y there
    (R swaps them, so S(z, R z') = G(z - R z') (rx rx'^T + ry ry'^T) / 2 is a
    second field product). The mirror axis is axis 0 of the folded frame
    (`_fold_frame`); its c leftover slabs t < c - b are the tail rows of both
    parts and a third sector of their own, unfolded.

    Each sector's form is its lower triangle T (T_aa = S_aa, T_ca = 2 S_ca
    for c > a), u^T S u = sum_{c >= a} u_c T_ca u_a, kept as column panels
    T[i0:, i0:i1] of two axis-0 slabs of the sector's own coordinates; the rows
    run on through its tail. The images of axes 1 and 2 are summed first into
    one small kernel per sector over (t1, t2, |dx0|, t1', t2'), so each panel
    is one gather of it (two on a folded axis 0). With no folded axis there is
    one sector, the cube, with one image of weight 1.

    Returns (view, axes, panels): the frame's axis order and flip, each axis's
    centre and (own, tail, sign) sectors for `_fold`, and per sector, in
    `_fold`'s order, its (i0, i1, panel) triples.
    """
    b = box_radius
    side = 2 * b + 1
    view, centres, x, y = _fold_frame(x_site, y_site)
    octant = kernel[2 * b:, 2 * b:, 2 * b:]
    rx3 = _shifted_field(kernel, b, x).reshape((side,) * 3)
    ry3 = _shifted_field(kernel, b, y).reshape((side,) * 3)
    axes = [(c, _axis_sectors(b, c)) for c in centres]
    c = centres[0]
    sectors = []
    for (own, tail, s0), (c1, _, s1), (c2, _, s2) in itertools.product(*(a for _, a in axes)):
        images = _image_sum(_image_sum(octant, 1, c1, s1), 3, c2, s2)
        images = np.ascontiguousarray(images.transpose(1, 3, 0, 2, 4))
        images *= 0.5 ** ((s0 != 0) + (s1 != 0) + (s2 != 0))
        c0 = np.concatenate((own, tail))
        # an even sector's u(c/2) is 2 v(c/2) (`_fold`): halve its fields there
        h0, h1, h2 = (np.where((2 * coords == centre) & (s > 0), 0.5, 1.0)
                      for coords, centre, s in ((c0, c, s0), (c1, 0, s1), (c2, 0, s2)))
        h = (h0[:, None, None] * h1[:, None] * h2).ravel()
        ix = np.ix_(c0 + b, c1 + b, c2 + b)
        rx, ry = rx3[ix].ravel() * h, ry3[ix].ravel() * h
        slab = c1.size * c2.size
        if s0:
            # the fields at the image c - t' of each own column t'
            ix, k = np.ix_(c - own + b, c1 + b, c2 + b), own.size * slab
            rxi, ryi = rx3[ix].ravel() * h[:k], ry3[ix].ravel() * h[:k]
        t1 = np.arange(c1.size)[None, :, None, None]
        t2 = np.arange(c2.size)[None, None, :, None]
        panels = []
        for x0 in range(0, own.size, 2):
            x1 = min(x0 + 2, own.size)
            i0, i1 = x0 * slab, x1 * slab
            xc, xa = c0[x0:, None, None, None], own[None, None, None, x0:x1]
            t = rx[i0:, None] * ry[i0:i1]
            t += ry[i0:, None] * rx[i0:i1]
            t *= images[t1, t2, np.abs(xc - xa)].reshape(t.shape)
            if s0:
                w = rx[i0:, None] * ryi[i0:i1]
                w += ry[i0:, None] * rxi[i0:i1]
                w *= images[t1, t2, np.abs(xc + xa - c)].reshape(w.shape)
                (np.add if s0 > 0 else np.subtract)(t, w, out=t)
                del w
            top = t[:i1 - i0]
            top[np.triu_indices_from(top, 1)] = 0.0
            top[np.diag_indices_from(top)] *= 0.5
            panels.append((i0, i1, t))
        sectors.append(panels)
    return view, axes, sectors


def _sector_quadratic_form(sectors, v: np.ndarray, box_radius: int) -> np.ndarray:
    """Row-wise v^T S v over the sectors of `_sector_panels`, for v of shape (m, n).

    Each call folds its own batch (`_fold`), so batches of any size, in any
    order, give the rows a single call gives.
    """
    us = _fold(v, sectors, box_radius)
    return sum(sum(np.einsum("ij,ij->j", u[i0:i1], t.T @ u[i0:]) for i0, i1, t in p)
               for u, p in zip(us, sectors[2]))


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


def _shifted_field(kernel: np.ndarray, box_radius: int, site) -> np.ndarray:
    """Field z -> G(z - site) over [-b, b]^3, flattened, from the kernel over [-2b, 2b]^3."""
    b = box_radius
    return kernel[tuple(slice(b - int(c), 3 * b + 1 - int(c)) for c in site)].ravel()


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


def _moment_cube(order: int, box_radius: int, sites) -> Box:
    """The cube [-b, b]^3; ValueError for an l other than 1 or 2 or a site outside it."""
    if order not in (1, 2):
        raise ValueError("l must be 1 or 2")
    cube = Box(side=2 * box_radius + 1)
    for site in sites:
        cube.index(site)
    return cube


def _lattice_moment(order: int, lam: float, kernel: np.ndarray, rx: np.ndarray,
                    ry: np.ndarray, cube: Box) -> float:
    """Gate-free partition lattice sum for E A_l^2 over the cube, l in {1, 2},
    on the kernel over [-2b, 2b]^3 and the sites' fields rx, ry of the caller.

    l = 1 is lam^2 sum_z rx^2 ry^2; l = 2 is lam^4 [S_{{1,4},{2,5}} +
    S_{{1,5},{2,4}} + c_4 S_{4-block}], the pair sums by FFT convolution with
    G^2 (`_convolve_same`). TruncationError when the cube's boundary shell
    carries more than TRUNCATION_TOL of the l=1 sum.
    """
    w = rx**2 * ry**2
    total = float(np.sum(w))
    shell = float(np.sum(w[cube.boundary_indices()])) / total if total > 0 else 0.0
    if shell > TRUNCATION_TOL:
        raise TruncationError(
            f"boundary shell carries {shell:.2e} of the lattice sum "
            f"(tolerance {TRUNCATION_TOL:g}); enlarge box_radius beyond {cube.side // 2}"
        )
    if order == 1:
        return lam**2 * total
    k2 = kernel**2
    rx3, ry3 = (f.reshape((cube.side,) * 3) for f in (rx, ry))
    s1 = float(np.sum(rx3**2 * _convolve_same(ry3**2, k2)))
    mixed = rx3 * ry3
    s2 = float(np.sum(mixed * _convolve_same(mixed, k2)))
    s3 = kernel[(kernel.shape[0] // 2,) * 3]**2 * total
    return float(lam**4 * (s1 + s2 + cumulant_coefficient(4) * s3))


def diagram_moment(order: int, context: EnergyContext, x_site, y_site,
                   box_radius: int) -> float:
    """Gate-free partition lattice sum for E A_l^2, l in {1, 2}, over the cube
    [-box_radius, box_radius]^3 (`_lattice_moment`), on a Green kernel it builds
    itself once l and the sites pass `_moment_cube` (ValueError otherwise)."""
    b = box_radius
    cube = _moment_cube(order, b, (x_site, y_site))
    kernel = _green_kernel(context.estar, 2 * b)
    return _lattice_moment(order, context.lam, kernel, _shifted_field(kernel, b, x_site),
                           _shifted_field(kernel, b, y_site), cube)


def mc_moment_Al_squared(order: int, context: EnergyContext, x_site, y_site,
                         samples: int, box_radius: int = 5,
                         seed: int = 0) -> MomentComparison:
    """Disorder-MC of A_l(x,y)^2 vs the gate-free diagram sum, l in {1, 2}.

    The prediction is `diagram_moment` on the same cube, which checks l, the
    sites and the truncation before the MC builds its kernel. For l = 2 each
    sample's A_2 is lam^2 (rx o v)^T G (ry o v) - sigma sum_z rx ry, read from
    the lower column panels of its reflection sectors (`_sector_panels`): at
    x = 0, y = (1, 0, 0) all three axes fold, and the panels take 0.084 x 8 n^2
    bytes, n = (2b+1)^3 (16 MB at b = 8). Each batch is DensitySpec().sample(
    rng, (m, n)) on the order's substream. `samples` is an integer >= 2.

    A_2^2 is heavy-tailed at E* = 0.1, b = 8: a run of a few hundred samples
    that misses the tail reports both a low mean and a low stderr, so its
    `z_score` is unreliable (lam = 0.3, x = 0, y = (1, 0, 0), 200 samples:
    seeds 1-6 gave z = 0.62, 0.56, -7.84, 0.34, -1.18 and -0.81).
    """
    samples = _integer(samples, "samples")
    if samples < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    b = box_radius
    prediction = diagram_moment(order, context, x_site, y_site, b)
    lam, sigma = context.lam, context.sigma
    kernel = _green_kernel(context.estar, 2 * b)
    rx, ry = (_shifted_field(kernel, b, site) for site in (x_site, y_site))
    if order == 2:
        sectors = _sector_panels(kernel, b, x_site, y_site)

    density = DensitySpec()
    rng = substream(seed, "moment-mc", order)
    vals = np.empty(samples)
    pxy = float(np.sum(rx * ry))
    for done in range(0, samples, MC_BATCH):
        m = min(MC_BATCH, samples - done)
        v = density.sample(rng, (m, rx.size))
        if order == 1:
            a = lam * (v @ (rx * ry))
        else:
            a = lam**2 * _sector_quadratic_form(sectors, v, b) - sigma * pxy
        vals[done:done + m] = a**2
        del v  # free this draw before the next one
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
    dominates the computed moments.  Distances are integers: anything else, or
    fewer than two distinct ones, an l other than 1 or 2 or a site outside the
    cube raises ValueError before the kernel is built; a box_margin too small
    for the distances raises TruncationError from `_lattice_moment`.
    """
    distances = _decay_distances(distances)
    b = max(distances) // 2 + box_margin
    pairs = [((-(r // 2), 0, 0), (r - r // 2, 0, 0)) for r in distances]
    cube = _moment_cube(order, b, [site for pair in pairs for site in pair])
    kernel = _green_kernel(context.estar, 2 * b)
    vals = [_lattice_moment(order, context.lam, kernel, _shifted_field(kernel, b, x),
                            _shifted_field(kernel, b, y), cube) for x, y in pairs]
    lam, estar = context.lam, context.estar
    env_rate = math.sqrt(estar / 3.0)
    base = math.factorial(4 * order) * estar * (lam**2 / math.sqrt(estar)) ** order
    log9 = log_damping_constant(estar)
    k_fit = max((v * math.exp(env_rate * r) / base) ** (1.0 / order) / log9
                for r, v in zip(distances, vals))
    rate = -float(np.polyfit(np.array(distances, dtype=float), np.log(vals), 1)[0])
    return DecayEnvelopeReport(order=order, estar=estar, distances=tuple(distances),
                               moments=tuple(vals), fitted_rate=rate,
                               envelope_rate=env_rate, fitted_K=float(k_fit))
