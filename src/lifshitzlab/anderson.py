"""Finite-lattice Anderson Hamiltonians and fractional-moment diagnostics.

Operators live on Dirichlet boxes (simple truncation: hopping across the
boundary dropped).  H = -Delta/2 + lam V has the 7-point stencil with
diagonal 3 + lam V(n) and off-diagonal -1/2, so the clean operator's
spectrum sits inside [0, 6] and the disordered one is bounded below by
-lam sqrt(3), the bottom of the uniform potential's support, plus the kinetic
floor.  Every disorder average samples that one law (`density.DensitySpec`).
The six lattice hops are stated once, in `_HOPS`: the matrix-free stencil
and the sparse matrix both read them.

`Box` is geometry only: coordinates, flat indices and the boundary shell of
a cube of any size.  The site budget MAX_BOX_SITES belongs to the code
that allocates per-site state: `sample_potential`, `build_hamiltonian`, the
Krylov columns and the criterion reject a larger box before they allocate.

Resolvent columns (H + E + i eta)^{-1} delta_y are matrix-free Krylov
solves: H + E is real symmetric and positive definite throughout the
admissible window, so one conjugate-gradient run on it per (sample, y)
carries every eta of the schedule by the shifted-CG recurrence.  Fractional
moments stop at KRYLOV_TOL, the criterion's eta = 0 columns at CG_TOL.
Every column must meet |(H + E + i eta) u - delta_y| <= RESIDUAL_TOL; one
that does not, or a seed that breaks down, is solved again by the direct
sparse factorization `resolvent_column` at the same eta and counted as a
fallback in the result.

Each column's CG run keeps to its light cone: iteration k from delta_y
reaches only Manhattan distance k, so it works on the window [y-k, y+k]^3 of
one workspace allocated up front, whose faces act as Dirichlet walls, until
the window is the whole box.  Its inner products sum a full-box scratch array
that is zero outside the window, so NumPy sums in the same order and every
column is bit-identical to the same run over the whole box.  The Krylov steps,
into workspace buffers, and the residual checks apply one stencil,
`_apply_stencil`.

Fractional moments E|R(x,y)|^s are eta-resolved disorder averages; the
finite-volume criterion assembles B_s L^4 lam^{-2s} sum_{boundary}
E|R(n,0)|^s < b on the box of side 2L: sites -L..L-1 on each axis, so its
Dirichlet walls sit at -L-1 and L and its boundary faces at distance L and
L-1 from the origin.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .density import DensitySpec
from .errors import SingularSolveError
from .green import _integer, _lattice_site
from .rng import substream
from .selfenergy import EnergyContext

__all__ = [
    "Box",
    "sample_potential",
    "build_hamiltonian",
    "resolvent_column",
    "FractionalMomentEstimate",
    "fractional_moment",
    "CriterionResult",
    "finite_volume_criterion",
    "XiEstimate",
    "correlation_length_fit",
]

DEFAULT_ETA_SCHEDULE = (1e-2, 1e-3, 1e-4)
MAX_BOX_SITES = 1_000_000  # largest box a solver allocates per-site state for
# The six Dirichlet hops x-, x+, y-, y+, z-, z+ as (destination, source) slices
# of a grid array: H holds -1/2 at (dst site, src site), and a hop across a
# wall has no pair.  The slices fit every side.
_HOPS = tuple(
    tuple(tuple(cut if ax == axis else slice(None) for ax in range(3)) for cut in pair)
    for axis in range(3)
    for pair in ((slice(1, None), slice(None, -1)),    # from the lower neighbour
                 (slice(None, -1), slice(1, None))))   # from the upper neighbour


@dataclass(frozen=True)
class Box:
    """Dirichlet cube with `side` sites per axis, at -(side // 2)..side - 1 - side // 2.

    An odd side is centered at the origin; an even side 2L holds -L..L-1, one
    more site on the negative half-axis than on the positive one.  A box is
    plain geometry with no size cap; the solvers check MAX_BOX_SITES.
    """

    side: int

    def __post_init__(self):
        object.__setattr__(self, "side", _integer(self.side, "side"))
        if self.side < 2:
            raise ValueError("side must be >= 2")

    @property
    def n_sites(self) -> int:
        return self.side**3

    @property
    def origin_offset(self) -> int:
        # coordinate c maps to grid index c + offset, c in [-offset, side-1-offset]
        return self.side // 2

    def index(self, site) -> int:
        s, off = self.side, self.origin_offset
        i, j, k = (c + off for c in _lattice_site(site))
        if not all(0 <= t < s for t in (i, j, k)):
            raise ValueError(f"site {tuple(site)} outside the cube "
                             f"[{-off}, {s - 1 - off}]^3")
        return (i * s + j) * s + k

    def boundary_indices(self) -> np.ndarray:
        shell = np.ones((self.side,) * 3, dtype=bool)
        shell[1:-1, 1:-1, 1:-1] = False
        return np.flatnonzero(shell.ravel())

    def distance_to_boundary(self, site) -> int:
        s, off = self.side, self.origin_offset
        return min(min(c + off, s - 1 - (c + off)) for c in _lattice_site(site))


def _check_site_budget(box: Box):
    if box.n_sites > MAX_BOX_SITES:
        raise ValueError(f"box with {box.side}^3 sites exceeds the memory budget "
                         f"{MAX_BOX_SITES}")


def sample_potential(box: Box, density: DensitySpec, seed: int, index: int) -> np.ndarray:
    """I.i.d. potential field on the box; deterministic in (seed, index).

    The field is the solvers' per-site input, so a box over MAX_BOX_SITES is
    rejected before the draw.
    """
    _check_site_budget(box)
    rng = substream(seed, "potential", index)
    return density.sample(rng, box.n_sites)


def build_hamiltonian(box: Box, potential: np.ndarray, lam: float) -> sp.csc_matrix:
    """H = -Delta/2 + lam V, Dirichlet: diagonal 3 + lam V, off-diagonal -1/2."""
    _check_site_budget(box)
    if potential.shape != (box.n_sites,):
        raise ValueError("potential must be a flat field over the box")
    n = box.n_sites
    site = np.arange(n).reshape((box.side,) * 3)
    # DIA storage: data[i, j] sits at (j - offsets[i], j), so each hop's row is
    # -1/2 on the columns of its sources and 0 across the wall
    data = np.zeros((len(_HOPS) + 1, n))
    data[0] = 3.0 + lam * potential
    offsets = [0]
    for row, (dst, src) in zip(data[1:], _HOPS):
        row.reshape(site.shape)[src] = -0.5
        offsets.append(int(site[src].flat[0] - site[dst].flat[0]))
    return sp.dia_matrix((data, offsets), shape=(n, n)).tocsc()


RESIDUAL_TOL = 1e-10


def _direct_solver(hamiltonian, energy: float, eta: float):
    """Factor A = H + E + i eta by splu; return solve(rhs) -> u.

    A failed factorization, or a solve whose true residual exceeds
    RESIDUAL_TOL |rhs|, raises SingularSolveError advising a larger eta.
    """
    def singular(what):
        return SingularSolveError(f"{what}; retry with eta > 0",
                                  suggested_eta=max(eta * 10.0, 1e-4))

    n = hamiltonian.shape[0]
    shift = energy + 1j * eta if eta > 0 else energy
    a = (hamiltonian + shift * sp.identity(n)).tocsc()
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        raise singular(f"factorization failed at eta={eta:g}: {exc}") from exc

    def solve(rhs):
        u = lu.solve(rhs)
        res = float(np.linalg.norm(a @ u - rhs))
        if not res <= RESIDUAL_TOL * float(np.linalg.norm(rhs)):
            raise singular(f"residual {res:.2e} above contract at eta={eta:g}")
        return u

    return solve


def resolvent_column(hamiltonian, energy: float, eta: float, box: Box,
                     y_site) -> np.ndarray:
    """Column u of (H + E + i eta) u = delta_y by direct sparse factorization."""
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be >= 0 and finite, got {eta}")
    rhs = np.zeros(hamiltonian.shape[0], dtype=complex if eta > 0 else float)
    rhs[box.index(y_site)] = 1.0
    return _direct_solver(hamiltonian, energy, eta)(rhs)


def _apply_stencil(v, shift, pot, out=None, scratch=None):
    """(H + shift) v on the grid-shaped array v, matrix-free.

    Writes into `out` and uses `scratch` for pot v and v / 2 when they are
    given (both shaped like v, of the result's dtype), so a caller that keeps
    them allocates nothing.  v may be a window of a larger grid: the hops in
    `_HOPS` fit any shape, so the window's faces act as Dirichlet walls.
    """
    out = np.multiply(3.0 + shift, v, out=out)
    if scratch is None:
        scratch = np.empty_like(out)
    if pot is not None:
        out += np.multiply(pot, v, out=scratch)
    np.multiply(v, 0.5, out=scratch)
    for dst, src in _HOPS:
        out[dst] -= scratch[src]
    return out


# The criterion's eta = 0 columns stop once the recursive residual norm drops
# below CG_TOL.  Its boundary sum depends on this stop: boundary entries the
# Krylov space has not reached yet are exact zeros (at lam = 0.5, E = 0.85,
# s = 0.24, seed 5, one sample, L = 25: stops 1e-11 / 1e-13 / 1e-15 give sums
# 0.187 / 0.480 / 0.674).  Changing it changes printed criterion values.
CG_TOL = 1e-11
# Fractional-moment columns stop at KRYLOV_TOL.  At box 12 (lam = 0.5,
# E = 0.45, 40 samples) a 1e-14 stop left |R| within distance 5 up to 1.7e-12
# relative from the direct solve; 1e-15 leaves 1.2e-13 for ~7% more iterations.
KRYLOV_TOL = 1e-15
KRYLOV_MAXIT = 5000


def _krylov_columns(side, energy, pot_grid, rhs_index, etas, tol):
    """Columns (H + E + i eta)^{-1} delta_y for every eta from one CG run.

    CG runs matrix-free on the real seed H + E; each eta > 0 is carried by
    the shifted-CG zeta recurrence (Jegerlehner, hep-lat/9612014), whose
    residual is zeta times the seed's, with |zeta| <= 1 for imaginary shifts.
    An eta = 0 column is the seed iterate itself.  Stops once
    max |zeta| |r| < tol and returns (columns, iterations); returns None if
    the seed is not positive definite (p.Ap <= 0) or KRYLOV_MAXIT is reached.
    True residuals are the caller's to check.

    Light cone: before iteration k, p and every ps are zero beyond Manhattan
    distance k - 1 of y, so iteration k runs `_apply_stencil` and every
    update on views of the window [y - k, y + k]^3 cut to the box; the
    window's faces act as Dirichlet walls, exactly, since p is zero across
    them.  Once the window is the box, the views are the whole arrays.  The
    run updates x (when an eta = 0 column is asked for), r, p, xs and ps in
    place in one workspace allocated up front.  Each inner product sums a
    full-box scratch array that is zero outside the window, so NumPy's
    pairwise summation, and with it every iterate, iteration count and
    column, is bit-identical to the same run over the whole box.
    """
    shape = (side,) * 3
    centre = np.unravel_index(rhs_index, shape)
    reach = max(max(c, side - 1 - c) for c in centre)  # first k whose window is the box
    sigma = np.array([1j * eta for eta in etas if eta > 0])
    x, r, p, ap, scratch = (np.zeros(shape) for _ in range(5))
    xs, ps, cscratch = (np.zeros((sigma.size,) + shape, dtype=complex) for _ in range(3))
    r[centre] = p[centre] = 1.0
    ps[(slice(None),) + centre] = 1.0
    rs = 1.0
    zeta = zeta_old = np.ones(sigma.size, dtype=complex)
    to_shifts = (slice(None),) + (None,) * 3  # a per-shift factor against (shift, grid)
    alpha_old, beta_old = 1.0, 0.0
    seed_weight = 1.0 if 0.0 in etas else 0.0
    for it in range(1, KRYLOV_MAXIT + 1):
        if it <= reach:
            win = tuple(slice(max(c - it, 0), c + it + 1) for c in centre)
            x_w, r_w, p_w, ap_w, s_w = (a[win] for a in (x, r, p, ap, scratch))
            pot_w = None if pot_grid is None else pot_grid[win]
            xs_w, ps_w, cs_w = (a[(slice(None),) + win] for a in (xs, ps, cscratch))
        _apply_stencil(p_w, energy, pot_w, out=ap_w, scratch=s_w)
        np.multiply(p_w, ap_w, out=s_w)
        pap = float(scratch.sum())
        if pap <= 0.0:
            return None
        alpha = rs / pap
        if seed_weight:  # x is read only as the eta = 0 column
            x_w += np.multiply(alpha, p_w, out=s_w)
        r_w -= np.multiply(alpha, ap_w, out=s_w)
        np.multiply(r_w, r_w, out=s_w)
        rs_new = float(scratch.sum())
        zeta_new = zeta * zeta_old * alpha_old / (
            alpha_old * zeta_old * (1.0 + sigma * alpha)
            + alpha * beta_old * (zeta_old - zeta))
        xs_w += np.multiply((alpha * zeta_new / zeta)[to_shifts], ps_w, out=cs_w)
        if np.abs(zeta_new).max(initial=seed_weight) * math.sqrt(rs_new) < tol:
            cols = (col.ravel() for col in xs)
            return [x.ravel() if eta == 0.0 else next(cols) for eta in etas], it
        beta = rs_new / rs
        p_w *= beta
        p_w += r_w
        np.multiply((beta * (zeta_new / zeta) ** 2)[to_shifts], ps_w, out=ps_w)
        ps_w += np.multiply(zeta_new[to_shifts], r_w, out=cs_w)
        zeta_old, zeta = zeta, zeta_new
        alpha_old, beta_old, rs = alpha, beta, rs_new
    return None


def _resolvent_columns(box: Box, potential, context: EnergyContext, ys, etas, tol):
    """Columns {y: [R(., y) per eta]}, splu fallbacks, largest iteration count.

    R is the resolvent at the context's (lam, E) on `potential`.  Each Krylov
    column must meet |(H + E + i eta) u - delta_y| <= RESIDUAL_TOL; a column
    that does not, or every column when the seed breaks down, is solved by
    `resolvent_column` at the same eta and counted as a fallback.
    """
    _check_site_budget(box)
    if not etas:
        raise ValueError("the eta schedule is empty")
    if not all(math.isfinite(eta) and eta >= 0 for eta in etas):
        raise ValueError(f"every eta must be >= 0 and finite, got {list(etas)}")
    lam, energy = context.lam, context.energy
    shape = (box.side,) * 3
    pot_grid = None if lam == 0.0 else (lam * potential).reshape(shape)
    out, fallbacks, iterations, h = {}, 0, 0, None
    for y in ys:
        rhs_index = box.index(y)
        run = _krylov_columns(box.side, energy, pot_grid, rhs_index, etas, tol)
        cols, its = run if run is not None else ([None] * len(etas), 0)
        iterations = max(iterations, its)
        for k, (eta, u) in enumerate(zip(etas, cols)):
            if u is not None:
                shift = energy + 1j * eta if eta > 0 else energy
                res = _apply_stencil(u.reshape(shape), shift, pot_grid).ravel()
                res[rhs_index] -= 1.0
                if float(np.linalg.norm(res)) <= RESIDUAL_TOL:
                    continue
            if h is None:
                h = build_hamiltonian(box, potential, lam)
            cols[k] = resolvent_column(h, energy, eta, box, y)
            fallbacks += 1
        out[y] = cols
    return out, fallbacks, iterations


def _sample_average(box: Box, context: EnergyContext, ys, etas, samples: int,
                    seed: int, tol: float, observe):
    """Mean and stderr of observe({y: [R(., y) per eta]}) over disorder samples.

    Also returns the summed splu fallbacks and the largest Krylov iteration
    count.  At lam = 0 every sample sees the same operator, so one solve
    serves them all and the stderr is exactly 0.
    """
    samples = _integer(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lam = context.lam
    obs, fallbacks, iterations = [], 0, 0
    for isamp in range(samples if lam != 0.0 else 1):
        pot = (sample_potential(box, DensitySpec(), seed, isamp) if lam != 0.0
               else np.zeros(box.n_sites))
        cols, fell_back, its = _resolvent_columns(box, pot, context, ys, etas, tol)
        fallbacks += fell_back
        iterations = max(iterations, its)
        obs.append(observe(cols))
    if lam == 0.0:
        obs *= samples
    acc = np.stack(obs, axis=-1)
    mean = acc.mean(axis=-1)
    err = (acc.std(axis=-1, ddof=1) / math.sqrt(samples) if samples > 1 and lam != 0.0
           else np.zeros_like(mean))
    return mean, err, fallbacks, iterations


@dataclass(frozen=True)
class FractionalMomentEstimate:
    """Disorder averages of |R(x,y)|^s per eta in the schedule."""

    s: float
    pairs: tuple                    # of (x, y) site pairs
    eta_schedule: tuple
    estimates: np.ndarray = field(repr=False)   # (n_eta, n_pairs)
    stderrs: np.ndarray = field(repr=False)
    samples: int = 0
    fallbacks: int = 0          # columns redone by factorization
    krylov_iterations: int = 0  # largest seed CG iteration count

    def eta_variation(self, pair_index: int = 0) -> float:
        """max/min - 1 of the estimate across the eta schedule."""
        col = self.estimates[:, pair_index]
        return float(np.max(col) / np.min(col) - 1.0)


def fractional_moment(box: Box, context: EnergyContext, s: float, pairs,
                      samples: int, eta_schedule=DEFAULT_ETA_SCHEDULE,
                      seed: int = 0) -> FractionalMomentEstimate:
    """MC average of |R(x,y)|^s over disorder, resolved by eta."""
    if not (0 < s < 1):
        raise ValueError("s must be in (0, 1)")
    pairs = tuple((tuple(x), tuple(y)) for x, y in pairs)
    if not pairs:
        raise ValueError("no (x, y) pairs given")
    etas = tuple(eta_schedule)
    index = {site: box.index(site) for pair in pairs for site in pair}

    def observe(cols):
        return [[abs(cols[y][ieta][index[x]]) ** s for x, y in pairs]
                for ieta in range(len(etas))]

    est, err, fallbacks, iterations = _sample_average(
        box, context, sorted({y for _, y in pairs}), etas, samples, seed, KRYLOV_TOL,
        observe)
    return FractionalMomentEstimate(s=s, pairs=pairs, eta_schedule=etas,
                                    estimates=est, stderrs=err, samples=samples,
                                    fallbacks=fallbacks, krylov_iterations=iterations)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of the finite-volume fractional-moment criterion."""

    L: int
    s: float
    b: float
    B_s: float
    value: float
    stderr: float
    raw_boundary_sum: float
    samples: int
    lambda_factor_applied: bool
    fallbacks: int          # Krylov columns redone by factorization
    krylov_iterations: int  # largest seed CG iteration count

    @property
    def passes(self) -> bool:
        return self.value < self.b

    @property
    def margin(self) -> float:
        return self.b - self.value

    @property
    def implied_decay_rate(self) -> float:
        """Rate ln(b)/L of the concluded exponential bound (negative)."""
        return math.log(self.b) / self.L


def finite_volume_criterion(L: int, context: EnergyContext, s: float,
                            b: float = 0.5, B_s: float = 1.0,
                            samples: int = 1, seed: int = 0) -> CriterionResult:
    """Evaluate B_s L^4 lam^{-2s} sum_{n in boundary} E|R(n,0)|^s < b.

    The box has side 2L, sites -L..L-1 on each axis, so the boundary faces lie
    at distance L and L-1 from the origin.  At lam = 0 the
    lam^{-2s} factor is dropped (flagged in the result); the raw boundary sum
    is always reported so any prefactor can be applied post hoc.
    """
    if not (0 < s < 0.25):
        raise ValueError("s must be in (0, 1/4)")
    if not (0 < b < 1):
        raise ValueError("b must be in (0, 1)")
    if not (0 < B_s < math.inf):  # B_s <= 0 would pass any box vacuously
        raise ValueError("B_s must be > 0 and finite")
    box = Box(side=2 * L)
    _check_site_budget(box)  # before the boundary shell is built
    bidx = box.boundary_indices()
    origin = (0, 0, 0)
    raw, raw_err, fallbacks, iterations = _sample_average(
        box, context, [origin], (0.0,), samples, seed, CG_TOL,
        lambda cols: np.sum(np.abs(cols[origin][0][bidx]) ** s))
    raw, raw_err, lam = float(raw), float(raw_err), context.lam
    factor = B_s * L**4 * (lam ** (-2.0 * s) if lam > 0 else 1.0)
    return CriterionResult(L=L, s=s, b=b, B_s=B_s, value=factor * raw,
                           stderr=factor * raw_err, raw_boundary_sum=raw,
                           samples=samples, lambda_factor_applied=lam > 0,
                           fallbacks=fallbacks, krylov_iterations=iterations)


@dataclass(frozen=True)
class XiEstimate:
    """Correlation length from a weighted log-linear decay fit."""

    xi: float
    ci_low: float
    ci_high: float
    slope: float
    no_decay: bool = False


def correlation_length_fit(decay_samples, s: float) -> XiEstimate:
    """Weighted least-squares fit of log(moment) vs distance; xi = -s/slope.

    `decay_samples` is a list of (distance, moment) or (distance, moment,
    stderr) tuples of E|R|^s.  Rows are weighted by (moment / stderr)^2 when
    every stderr is > 0 and uniformly when none is (all 0 or missing, as at
    lam = 0).  Non-decaying data yields a flagged result, not an error; s
    outside (0, 1] (1 is the first moment), a non-finite or non-positive
    distance, a non-finite moment or stderr, a negative stderr and rows that
    mix a positive stderr with a zero or missing one are ValueErrors.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s!r}")
    rows = [tuple(t) for t in decay_samples]
    if len(rows) < 4:
        raise ValueError("need at least 4 distances")
    dists = np.array([r[0] for r in rows], dtype=float)
    moments = np.array([r[1] for r in rows], dtype=float)
    serr = np.array([r[2] if len(r) > 2 else 0.0 for r in rows], dtype=float)
    if not np.all(np.isfinite(dists) & (dists > 0)):
        raise ValueError(f"distances must be finite and > 0, got {dists.tolist()}")
    if not np.all(np.isfinite(moments) & np.isfinite(serr)):
        raise ValueError("moments and stderrs must be finite")
    known = serr > 0
    if np.any(serr < 0) or (known.any() and not known.all()):
        raise ValueError(f"stderrs must be all > 0 or all 0 or missing, got "
                         f"{serr.tolist()}")
    if dists.max() < 3.0 * dists.min():
        raise ValueError("distances must span at least a factor of 3")
    if np.any(moments <= 0):
        return XiEstimate(xi=math.inf, ci_low=0.0, ci_high=math.inf,
                          slope=0.0, no_decay=True)
    # weights on log(moment): var(log m) ~ (stderr/m)^2
    w = (moments / serr) ** 2 if known.all() else np.ones_like(moments)
    y = np.log(moments)
    x = dists
    wsum = w.sum()
    xb, yb = (w * x).sum() / wsum, (w * y).sum() / wsum
    sxx = (w * (x - xb) ** 2).sum()
    slope = float((w * (x - xb) * (y - yb)).sum() / sxx)
    resid = y - (yb + slope * (x - xb))
    dof = max(len(rows) - 2, 1)
    slope_err = math.sqrt(max((w * resid**2).sum() / dof / sxx, 0.0))
    if slope >= 0.0:
        return XiEstimate(xi=math.inf, ci_low=0.0, ci_high=math.inf,
                          slope=slope, no_decay=True)
    xi = -s / slope
    lo = -s / (slope - 2.0 * slope_err)
    hi = -s / (slope + 2.0 * slope_err) if slope + 2.0 * slope_err < 0 else math.inf
    return XiEstimate(xi=float(xi), ci_low=float(lo), ci_high=float(hi),
                      slope=slope)
