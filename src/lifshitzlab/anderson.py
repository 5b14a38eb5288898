"""Finite-lattice Anderson Hamiltonians and fractional-moment diagnostics.

Operators live on Dirichlet boxes (simple truncation: hopping across the
boundary dropped).  H = -Delta/2 + lam V has the 7-point stencil with
diagonal 3 + lam V(n) and off-diagonal -1/2, so the clean operator's
spectrum sits inside [0, 6] and the disordered one is bounded below by
-lam sqrt(3), the bottom of the uniform potential's support, plus the kinetic
floor.  Every disorder average samples that one law (`density.DensitySpec`).

Resolvent columns (H + E + i eta)^{-1} delta_y are matrix-free Krylov
solves: H + E is real symmetric and positive definite throughout the
admissible window, so one conjugate-gradient run on it per (sample, y)
carries every eta of the schedule by the shifted-CG recurrence.  Fractional
moments stop at KRYLOV_TOL, the criterion's eta = 0 columns at CG_TOL.
Every column must meet |(H + E + i eta) u - delta_y| <= RESIDUAL_TOL; one
that does not, or a seed that breaks down, is solved again by the direct
sparse factorization `resolvent_column` at the same eta and counted as a
fallback in the result.

Fractional moments E|R(x,y)|^s are eta-resolved disorder averages; the
finite-volume criterion assembles B_s L^4 lam^{-2s} sum_{boundary}
E|R(n,0)|^s < b on the cube of side 2L centered at the origin.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .density import DensitySpec
from .errors import SingularSolveError
from .rng import substream
from .selfenergy import EnergyContext

__all__ = [
    "Box",
    "sample_potential",
    "build_hamiltonian",
    "resolvent_column",
    "FractionalMomentEstimate",
    "fractional_moment",
    "MomentDifferenceResult",
    "moment_difference",
    "CriterionResult",
    "finite_volume_criterion",
    "XiEstimate",
    "correlation_length_fit",
]

DEFAULT_ETA_SCHEDULE = (1e-2, 1e-3, 1e-4)
MAX_BOX_SITES = 1_000_000  # memory guard on box sizes


@dataclass(frozen=True)
class Box:
    """Dirichlet cube with `side` sites per axis, centered at the origin."""

    side: int

    def __post_init__(self):
        if self.side < 2:
            raise ValueError("side must be >= 2")
        if self.side**3 > MAX_BOX_SITES:
            raise ValueError(
                f"box with {self.side}^3 sites exceeds the memory budget "
                f"{MAX_BOX_SITES}"
            )

    @property
    def n_sites(self) -> int:
        return self.side**3

    @property
    def origin_offset(self) -> int:
        # coordinate c maps to grid index c + offset, c in [-offset, side-1-offset]
        return self.side // 2

    def index(self, site) -> int:
        s, off = self.side, self.origin_offset
        i, j, k = (int(c) + off for c in site)
        if not all(0 <= t < s for t in (i, j, k)):
            raise ValueError(f"site {tuple(site)} outside box side {s}")
        return (i * s + j) * s + k

    def site(self, index: int):
        s, off = self.side, self.origin_offset
        i, rem = divmod(int(index), s * s)
        j, k = divmod(rem, s)
        return (i - off, j - off, k - off)

    def boundary_indices(self) -> np.ndarray:
        s = self.side
        grid = np.zeros((s, s, s), dtype=bool)
        grid[0, :, :] = grid[-1, :, :] = True
        grid[:, 0, :] = grid[:, -1, :] = True
        grid[:, :, 0] = grid[:, :, -1] = True
        return np.flatnonzero(grid.ravel())

    def distance_to_boundary(self, site) -> int:
        s, off = self.side, self.origin_offset
        return min(min(int(c) + off, s - 1 - (int(c) + off)) for c in site)


def sample_potential(box: Box, density: DensitySpec, seed: int, index: int) -> np.ndarray:
    """I.i.d. potential field on the box; deterministic in (seed, index)."""
    rng = substream(seed, "potential", index)
    return density.sample(rng, box.n_sites)


def build_hamiltonian(box: Box, potential: np.ndarray, lam: float) -> sp.csc_matrix:
    """H = -Delta/2 + lam V, Dirichlet: diagonal 3 + lam V, off-diagonal -1/2."""
    if potential.shape != (box.n_sites,):
        raise ValueError("potential must be a flat field over the box")
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


RESIDUAL_TOL = 1e-10


def _direct_solver(hamiltonian, energy: float, eta: float):
    """Factor A = H + E + i eta by splu; return solve(rhs) -> (u, residual).

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
        return u, res

    return solve


def resolvent_column(hamiltonian, energy: float, eta: float, box: Box,
                     y_site) -> np.ndarray:
    """Column u of (H + E + i eta) u = delta_y by direct sparse factorization."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    rhs = np.zeros(hamiltonian.shape[0], dtype=complex if eta > 0 else float)
    rhs[box.index(y_site)] = 1.0
    return _direct_solver(hamiltonian, energy, eta)(rhs)[0]


def _apply_stencil(v, shift, pot):
    """(H + shift) v on the grid-shaped array v, matrix-free."""
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
    for it in range(1, KRYLOV_MAXIT + 1):
        ap = _apply_stencil(p, energy, pot_grid)
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


def _resolvent_columns(box: Box, potential, lam, energy, ys, etas, tol):
    """Columns {y: [R(., y) per eta]}, splu fallbacks, largest iteration count.

    Each Krylov column must meet |(H + E + i eta) u - delta_y| <= RESIDUAL_TOL;
    a column that does not, or every column when the seed breaks down, is
    solved by `resolvent_column` at the same eta and counted as a fallback.
    """
    if any(eta < 0 for eta in etas):
        raise ValueError("eta must be >= 0")
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
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lam = context.lam
    obs, fallbacks, iterations = [], 0, 0
    for isamp in range(samples if lam != 0.0 else 1):
        pot = (sample_potential(box, DensitySpec(), seed, isamp) if lam != 0.0
               else np.zeros(box.n_sites))
        cols, fell_back, its = _resolvent_columns(box, pot, lam, context.energy, ys,
                                                  etas, tol)
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
    etas = tuple(eta_schedule)

    def observe(cols):
        return [[abs(cols[y][ieta][box.index(x)]) ** s for x, y in pairs]
                for ieta in range(len(etas))]

    est, err, fallbacks, iterations = _sample_average(
        box, context, sorted({y for _, y in pairs}), etas, samples, seed, KRYLOV_TOL,
        observe)
    return FractionalMomentEstimate(s=s, pairs=pairs, eta_schedule=etas,
                                    estimates=est, stderrs=err, samples=samples,
                                    fallbacks=fallbacks, krylov_iterations=iterations)


@dataclass(frozen=True)
class MomentDifferenceResult:
    s: float
    pairs: tuple
    estimates: np.ndarray = field(repr=False)
    stderrs: np.ndarray = field(repr=False)
    fitted_c1: float = 0.0
    excluded_pairs: tuple = ()
    samples: int = 0
    fallbacks: int = 0          # columns redone by factorization
    krylov_iterations: int = 0  # largest seed CG iteration count


def moment_difference(box: Box, context: EnergyContext, s: float, pairs,
                      samples: int, seed: int = 0,
                      eta: float = 0.0) -> MomentDifferenceResult:
    """E|R(x,y) - R_r(x,y)|^s with the box-consistent free resolvent.

    Pairs outside the window |x-y| < (E*)^{-1/2} are excluded with notice.
    """
    if not (0 < s < 0.5):
        raise ValueError("s must be in (0, 1/2)")
    window = context.estar ** -0.5
    kept, excluded = [], []
    for x, y in pairs:
        d = math.dist(x, y)
        (kept if d < window else excluded).append((tuple(x), tuple(y)))
    if not kept:
        raise ValueError(f"no pairs inside the window |x-y| < {window:g}")
    ys = sorted({y for _, y in kept})
    free, free_fallbacks, free_its = _resolvent_columns(
        box, np.zeros(box.n_sites), 0.0, context.estar, ys, (eta,), KRYLOV_TOL)

    def observe(cols):
        return [abs(cols[y][0][box.index(x)] - free[y][0][box.index(x)]) ** s
                for x, y in kept]

    est, err, fallbacks, iterations = _sample_average(
        box, context, ys, (eta,), samples, seed, KRYLOV_TOL, observe)
    if context.lam > 0:
        c1 = max(e * (math.dist(x, y) + 1.0) ** (s / 2.0) / context.lam**s
                 for e, (x, y) in zip(est, kept))
    else:
        c1 = 0.0
    return MomentDifferenceResult(s=s, pairs=tuple(kept), estimates=est, stderrs=err,
                                  fitted_c1=float(c1), excluded_pairs=tuple(excluded),
                                  samples=samples, fallbacks=fallbacks + free_fallbacks,
                                  krylov_iterations=max(iterations, free_its))


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
    fallbacks: int  # Krylov columns redone by factorization

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

    The box is the cube of side 2L centered at the origin.  At lam = 0 the
    lam^{-2s} factor is dropped (flagged in the result); the raw boundary sum
    is always reported so any prefactor can be applied post hoc.
    """
    if not (0 < s < 0.25):
        raise ValueError("s must be in (0, 1/4)")
    if not (0 < b < 1):
        raise ValueError("b must be in (0, 1)")
    box = Box(side=2 * L)
    bidx = box.boundary_indices()
    origin = (0, 0, 0)
    raw, raw_err, fallbacks, _ = _sample_average(
        box, context, [origin], (0.0,), samples, seed, CG_TOL,
        lambda cols: np.sum(np.abs(cols[origin][0][bidx]) ** s))
    raw, raw_err, lam = float(raw), float(raw_err), context.lam
    factor = B_s * L**4 * (lam ** (-2.0 * s) if lam > 0 else 1.0)
    return CriterionResult(L=L, s=s, b=b, B_s=B_s, value=factor * raw,
                           stderr=factor * raw_err, raw_boundary_sum=raw,
                           samples=samples, lambda_factor_applied=lam > 0,
                           fallbacks=fallbacks)


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
    stderr) tuples.  Non-decaying data yields a flagged result, not an error.
    """
    rows = [tuple(t) for t in decay_samples]
    if len(rows) < 4:
        raise ValueError("need at least 4 distances")
    dists = np.array([r[0] for r in rows], dtype=float)
    if dists.max() < 3.0 * dists.min():
        raise ValueError("distances must span at least a factor of 3")
    moments = np.array([r[1] for r in rows], dtype=float)
    if np.any(moments <= 0):
        return XiEstimate(xi=math.inf, ci_low=0.0, ci_high=math.inf,
                          slope=0.0, no_decay=True)
    serr = np.array([r[2] if len(r) > 2 else 0.0 for r in rows], dtype=float)
    # weights on log(moment): var(log m) ~ (stderr/m)^2; uniform if unknown
    w = np.ones_like(moments)
    known = serr > 0
    w[known] = (moments[known] / serr[known]) ** 2
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
