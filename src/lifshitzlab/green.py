"""Free lattice Green function R(x) = (-Delta/2 + E*)^{-1}(x, 0) on Z^3.

Two independent evaluation routes:

* `green_free`, `green_table_bessel` and `check_asymptotics` integrate the
  grid-free heat-kernel representation
      R(x) = int_0^inf exp(-(3+E*)t) prod_a I_{|x_a|}(t) dt
  (scipy's scaled `ive`) by the trapezoid rule in u = ln t, exponentially
  convergent here (Trefethen & Weideman, SIAM Rev. 56, 2014), with a nested
  half-grid error estimate (a second sum at half the step where that estimate
  fails) plus a bound on the tail beyond the grid, held to BESSEL_RELTOL; a
  whole octant is one matrix product.  Its factor entries below _FLUSH = 2^-511
  are set to 0, so the product runs on normal numbers only; since ive <= 1 a
  value loses less than _FLUSH (nodes + sum_k w_k): 1.3e-151 at E* >= 0.05,
  1.6e-122 at E* = 0, where sum_k w_k is about T_FAR.  That bound joins the
  error held to BESSEL_RELTOL, so a value small enough for the flush to matter
  fails instead of changing.  E* = 0 is allowed: the grid then ends at T_FAR.
  Where `ive` is NaN (t >= 2^30) its three-term Hankel expansion takes over.
  The grid is fixed, so every call's nodes are a prefix of it:
  the `ive` rows are kept per process, per (order, step), grown on demand to
  the longest prefix a call has used and read-only; each call slices them and
  checks the Hankel range of its own prefix.  A non-finite E* is a ValueError;
  a `green_free` point deeper than TRAPEZOID_DEPTH that fails its check is a
  TailDepthError (its peak in ln t is narrower than the grid resolves).
  The same provider, `_trapezoid`, with an extra power of t, gives the torus
  integrals I1 = R(0) and I2 = -dR(0)/dE* of `selfenergy`.

* `green_free_fft` is the inverse DFT of 1/(e(p)+E*) sampled on an M^3 grid.
  e(p) is even in each axis, so only the (M//2+1)^3 half spectrum is built,
  and its inverse DFT is a real-even transform (a DCT-I): three products with
  one real cosine matrix of the octant rows x = 0..r, one GEMM over the half
  spectrum and two over arrays r+1 rows thick.  No M^3 array is formed and
  one half spectrum is alive at a time.  By Poisson summation the only error
  is periodization: the FFT table equals sum_m R(x + M m), so the documented
  bound is a wrapped-image sum of the exponential envelope, which must stay
  below FFT_TOL.

Fourier phases follow the e^{i 2 pi p.x} convention with p in [-1/2, 1/2]^3.
Both routes are real: E* >= 0 sits at or below the spectrum, so the +i0 limit
is real-valued (the FFT route needs E* > 0).

Tables are immutable after construction and store the octant [0, r]^3:
every read, `value(x)` and `items()` alike, takes the entry at
(|x1|, |x2|, |x3|), so sign flips are exact by construction (the FFT route's
cosine phases are reduced to [0, pi], so row -x is row x).  Bessel tables are
also exactly permutation-symmetric (each entry is copied from its sorted key);
FFT tables contract each axis in its own order, so they are
permutation-symmetric only to rounding, by their measured `symmetry_defect`.
"""

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive

from .errors import NonConvergenceError, PeriodizationError, TailDepthError

__all__ = [
    "green_free",
    "green_free_fft",
    "green_table_bessel",
    "GreenTable",
    "check_asymptotics",
    "AsymptoticsReport",
    "periodization_bound",
    "write_table_csv",
    "read_table_csv",
]


_STEP, _U_MIN = 0.05, -36.0  # ln-t grid; below t = e^-36 the integrand is rounding
T_FAR = 1e32           # grid end at E* = 0; the dropped tail is below 2.6e-17
HANKEL_TOL = 1e-5      # largest mu / (8t) at which three Hankel terms are exact
BESSEL_RELTOL = 1e-10  # relative error contract of the Bessel-integral route
FFT_TOL = 1e-8         # largest periodization bound an FFT table may carry
_FLUSH = 2.0**-511     # octant product factor entries below this are set to 0
_EPS = sys.float_info.epsilon  # summation rounding floor of the trapezoid, per node
# sqrt(2E*)|x| past which a failed green_free check is a TailDepthError: near the
# continuum limit the integrand's peak in u = ln t has width (sqrt(2E*)|x|)^(-1/2),
# and the step-h rule's relative error 2 exp(-2 pi^2 / (h^2 sqrt(2E*)|x|)) reaches
# BESSEL_RELTOL at this depth, about 333.  A probe of axis, face-diagonal and
# diagonal points at E* = 0.05..5 found the first failures at depths 346..914.
TRAPEZOID_DEPTH = 2.0 * math.pi**2 / (_STEP**2 * math.log(2.0 / BESSEL_RELTOL))


def _integer(value, what: str) -> int:
    """value as an int (a NumPy integer too); anything else is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _lattice_site(site) -> tuple:
    """The three coordinates of a lattice site as ints; anything else is a ValueError."""
    try:
        coords = tuple(site)
    except TypeError:
        raise ValueError(f"site {site!r} is not a sequence of 3 coordinates") from None
    try:
        coords = tuple(map(operator.index, coords))
    except TypeError:
        raise ValueError(f"site {coords} has a non-integer coordinate") from None
    if len(coords) != 3:
        raise ValueError(f"site {coords} has {len(coords)} coordinates, not 3")
    return coords


# Bessel rows kept per process.  Every call's nodes are a prefix of one fixed
# ln-t grid, so ive is evaluated once per (step, order) node: _NODES[step] holds
# t_k and _ROWS[step, n] holds (ive(n, t_k) with its Hankel terms, index of the
# row's first Hankel node or None).  Rows are read-only and grow only to the
# longest prefix a call has asked for; nothing is tabulated at import.
_NODES, _ROWS = {}, {}


def _nodes(step, count):
    """t_k = e^{u_min + k h} for k < count."""
    t = _NODES.get(step)
    if t is None or len(t) < count:
        # u_k = u_min + k h exactly: the rounded step of np.arange biases every sum
        t = np.exp(_U_MIN + step * np.arange(count))
        t.flags.writeable = False
        _NODES[step] = t
    return t[:count]


def _ive_row(n, step, count):
    """ive(n, t_k) for k < count; where scipy gives NaN (t >= 2^30), three Hankel terms."""
    row, far = _ROWS.get((step, n), (None, None))
    if row is None or len(row) < count:
        start = 0 if row is None else len(row)
        t = _nodes(step, count)[start:]
        ext = ive(n, t)
        nan = np.flatnonzero(np.isnan(ext))
        if nan.size:
            mu, z = 4.0 * n * n, 8.0 * t[nan]
            ext[nan] = (1.0 - (mu - 1.0) / z + (mu - 1.0) * (mu - 9.0) / (2.0 * z * z)) \
                / np.sqrt(2.0 * np.pi * t[nan])
            far = start + int(nan[0]) if far is None else far
        row = ext if row is None else np.concatenate((row, ext))
        row.flags.writeable = False
        _ROWS[step, n] = row, far
    return row[:count], far


def _ive_rows(orders, step, count):
    """ive(n, t_k) rows for n in orders, k < count, and the t_k; Hankel terms checked."""
    t = _nodes(step, count)
    rows, ratio = [], 0.0
    for n in orders:
        row, far = _ive_row(n, step, count)
        rows.append(row)
        if far is not None and far < count:
            # mu / (8t) falls along the row: its first Hankel node is its largest
            ratio = max(ratio, 4.0 * n * n / (8.0 * float(t[far])))
    if ratio > HANKEL_TOL:
        # the first dropped term is of relative size (mu / 8t)^3
        raise NonConvergenceError(
            f"Hankel expansion of ive inexact: mu/(8t) = {ratio:.2e} "
            f"at order {max(orders)}", achieved=ratio**3)
    return np.array(rows), t


def _trapezoid(orders, estar, rmax, reltol, power, contract, what):
    """contract(ive(n, t_k) rows for n in orders, weights h t_k^(1+p) e^{-E* t_k}), checked.

    With p = power this is int_0^inf t^p e^{-E* t} prod_n ive(n, t) dt, held to
    reltol.  `contract` returns the sums and an absolute bound on the terms it
    dropped (0 for an exact product).  t_max covers the e^{-E* t} tail and the peak
    near t = rmax / sqrt(2 E*), capped at T_FAR.  The error estimate (every other
    node; where that fails, a second sum at h/2) is floored at summation rounding
    and carries the dropped-term bound and a bound on the tail beyond t_max.  A
    value that is NaN or not positive fails; `what(i)` names the i-th entry of the
    flattened result in the error.
    """
    if not (math.isfinite(estar) and estar >= 0):
        raise ValueError("estar must be >= 0 and finite")
    tmax = T_FAR if estar == 0 else \
        min(T_FAR, 60.0 / estar + 1e3 + 10.0 * rmax / math.sqrt(2.0 * estar))
    nodes = math.ceil((math.log(tmax) - _U_MIN) / _STEP) + 1
    # past t_max >= 1e3, ive(n, t) <= ive(0, t) < 1.001 (2 pi t)^{-1/2}: the three-row
    # integrand is below 2 (2 pi)^{-3/2} t^{power-3/2} e^{-E* t}, whose tail integral is
    slack = 0.5 - power + estar * tmax
    tail = 2.0 * (2.0 * math.pi) ** -1.5 * tmax ** (power - 0.5) \
        * math.exp(-estar * tmax) / slack if slack > 0 else math.inf

    def weighted(step, count):
        tab, t = _ive_rows(orders, step, count)
        w = step * t * np.exp(-estar * t)
        return tab, w * t**power if power else w

    tab, w = weighted(_STEP, nodes)
    val, dropped = contract(tab, w)
    floor, bounds = nodes * _EPS * val, tail + dropped
    coarse, _ = contract(tab[:, ::2], 2.0 * w[::2])
    err = np.maximum(np.abs(val - coarse), floor) + bounds
    if np.any(err > reltol * val):
        # the half-grid difference is the error of the 2h rule; |S_h - S_{h/2}| is that of S_h
        fine, _ = contract(*weighted(_STEP / 2, 2 * nodes - 1))
        err = np.maximum(np.abs(val - fine), floor) + bounds
    good = (val > 0.0) & (err <= reltol * val)
    if not good.all():
        i = np.flatnonzero(~good)[0]
        raise NonConvergenceError(
            f"Bessel trapezoid at {what(i)}, estar={estar:g}: achieved "
            f"{err.flat[i]:.2e} absolute on value {val.flat[i]:.3e}",
            achieved=float(err.flat[i]))
    return val


def _green_octant(estar: float, radius: int, rmax: float = math.inf) -> np.ndarray:
    """R over [0, radius]^3, exactly permutation-symmetric, NaN beyond |x| = rmax."""
    # the product is symmetric only to rounding: every entry copies its sorted key
    sites = np.indices((radius + 1,) * 3)
    ball = np.sum(sites * sites, axis=0) <= rmax**2
    keys = tuple(np.sort(sites, axis=0)[:, ball])

    def contract(tab, w):
        ab = (tab[:, None, :] * tab[None, :, :]).reshape(len(tab) ** 2, -1)
        right = (tab * w).T
        # products of kept entries stay normal (>= 2^-1022), so no GEMM step is subnormal
        ab[ab < _FLUSH] = 0.0
        right[right < _FLUSH] = 0.0
        return (ab @ right).reshape((len(tab),) * 3)[keys], _FLUSH * (len(w) + w.sum())

    out = np.full(ball.shape, np.nan)
    out[ball] = _trapezoid(range(radius + 1), estar, min(rmax, math.sqrt(3.0) * radius),
                           BESSEL_RELTOL, 0, contract,
                           lambda i: f"octant entry {tuple(int(s[ball][i]) for s in sites)}")
    return out


def green_free(x, estar: float) -> float:
    """Free Green function at lattice vector x, energy distance estar >= 0.

    A point the trapezoid cannot hold to BESSEL_RELTOL raises
    NonConvergenceError; at depth sqrt(2E*)|x| >= TRAPEZOID_DEPTH that error is
    a TailDepthError, the value lying deeper in its tail than the grid resolves.
    """
    key = sorted(abs(c) for c in _lattice_site(x))
    r = math.hypot(*key)
    try:
        return float(_trapezoid(key, estar, r, BESSEL_RELTOL, 0,
                                lambda tab, w: (np.prod(tab, axis=0) @ w, 0.0),
                                lambda i: f"x={tuple(x)}"))
    except NonConvergenceError as err:
        depth = math.sqrt(2.0 * estar) * r
        if depth < TRAPEZOID_DEPTH:
            raise
        raise TailDepthError(
            f"x={tuple(x)}, estar={estar:g}: depth sqrt(2E*)|x| = {depth:.0f} is past "
            f"{TRAPEZOID_DEPTH:.0f}, deeper than the ln-t trapezoid resolves ({err})",
            achieved=err.achieved, depth=depth) from err


def periodization_bound(grid_size: int, radius: float, estar: float) -> float:
    """Conservative bound on |FFT table - true value| inside |x| <= radius.

    The table equals the image sum over x + M m; the nearest images sit at
    distance >= M - radius, and the envelope K e^{-sqrt(2 E*) d} / (d + 1)
    with K <= 1 is summed over the 26 nearest image cells with a geometric
    tail factor.
    """
    if not (math.isfinite(estar) and estar > 0):
        raise ValueError("estar must be > 0 and finite")
    d = grid_size - radius
    if d <= 0:
        return math.inf
    kappa = math.sqrt(2.0 * estar)
    tail = 1.0 / (1.0 - math.exp(-kappa * grid_size)) ** 3
    return 26.0 * tail * math.exp(-kappa * d) / (2.0 * math.pi * (d + 1.0))


@dataclass(frozen=True)
class GreenTable:
    """Tabulated free Green function on the lattice ball |x| <= radius."""

    estar: float
    radius: int
    method: str  # "bessel-integral" or "fft-grid"
    tolerance: float  # the route's contract: BESSEL_RELTOL or FFT_TOL
    grid_size: int = 0  # fft only
    symmetry_defect: float = 0.0  # measured axis-swap asymmetry (fft route; flips are exact)
    _data: np.ndarray = field(repr=False, default=None)  # octant cube, [|x1|, |x2|, |x3|]

    def value(self, x) -> float:
        a, b, c = map(abs, _lattice_site(x))
        if a * a + b * b + c * c > self.radius**2:
            raise KeyError(f"{tuple(x)} outside tabulated ball radius {self.radius}")
        return float(self._data[a, b, c])

    def items(self):
        """Iterate (lattice vector, value) over the full ball, x3 fastest."""
        r = self.radius
        for x in itertools.product(range(-r, r + 1), repeat=3):
            if x[0] * x[0] + x[1] * x[1] + x[2] * x[2] <= r * r:
                yield x, float(self._data[abs(x[0]), abs(x[1]), abs(x[2])])

    def fitted_envelope_constant(self) -> float:
        """Smallest K with value(x) <= K / (|x| + 1) over the table."""
        a = np.arange(self.radius + 1) ** 2
        norm = np.sqrt(a[:, None, None] + a[None, :, None] + a[None, None, :])
        mask = self._ball_mask()  # fft tables hold the whole cube, not NaN off the ball
        return float(np.max(self._data[mask] * (norm[mask] + 1.0)))

    def validate(self):
        """Check positivity over the ball; sign-flip symmetry is structural (octant storage)."""
        mask = self._ball_mask()
        if not np.all(self._data[mask] > 0.0):
            raise ValueError("GreenTable contains non-positive or missing (NaN) values")

    def _ball_mask(self):
        r = self.radius
        a = np.arange(r + 1)
        d2 = a[:, None, None] ** 2 + a[None, :, None] ** 2 + a[None, None, :] ** 2
        return d2 <= r * r


MAX_RADIUS = 64  # beyond this, tail underflow degrades table checks


def _check_radius(radius: int) -> int:
    """The table radius as an int; a non-integer or out-of-range one is a ValueError."""
    radius = _integer(radius, "radius")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius > MAX_RADIUS:
        raise ValueError(
            f"radius {radius} beyond {MAX_RADIUS} (exponential tails underflow "
            "the table tolerances)"
        )
    return radius


def green_table_bessel(estar: float, radius: int = 20) -> GreenTable:
    """Tabulate via the Bessel-integral representation over the octant."""
    radius = _check_radius(radius)
    table = GreenTable(estar=estar, radius=radius, method="bessel-integral",
                       tolerance=BESSEL_RELTOL, _data=_green_octant(estar, radius, radius))
    table.validate()
    return table


def green_free_fft(grid_size: int, estar: float, radius: int = 20) -> GreenTable:
    """Tabulate via inverse DFT of 1/(e(p)+E*) on a grid_size^3 momentum grid.

    The half spectrum is transformed as a real-even DFT: each axis is one product
    with the cosine matrix of the output rows x = 0..radius.
    """
    grid_size = _integer(grid_size, "grid_size")
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    if not (math.isfinite(estar) and estar > 0):
        raise ValueError("estar must be > 0 and finite")
    radius = _check_radius(radius)
    bound = periodization_bound(grid_size, radius, estar)
    if not bound < FFT_TOL:
        raise PeriodizationError(
            f"periodization error bound {bound:.3e} exceeds tolerance {FFT_TOL:g} "
            f"for grid {grid_size}, radius {radius}, estar {estar:g}",
            bound=bound,
        )
    m, k = grid_size, np.arange(grid_size // 2 + 1)
    c = 2.0 * np.sin(np.pi * k / m) ** 2
    # the even extension of a real half spectrum is a DCT-I: row x of the inverse
    # DFT is sum_k w_k cos(2 pi x k / M) a_k / M, with the phase reduced to [0, pi]
    p = np.outer(np.arange(radius + 1), k) % m
    w = np.where((k == 0) | (2 * k == m), 1.0, 2.0)
    cmat = w * np.cos(2.0 * np.pi * np.minimum(p, m - p) / m) / m
    a = estar + c[:, None, None] + c[None, :, None] + c[None, None, :]
    np.reciprocal(a, out=a)
    a = (cmat @ a.reshape(len(k), -1)).reshape(radius + 1, len(k), len(k))
    data = np.matmul(cmat, a) @ cmat.T
    # measured axis-swap symmetry: each axis is contracted in its own order, so a
    # swap is exact only to rounding (sign flips are exact: row -x is row x)
    defect = max(float(np.max(np.abs(data - data.transpose(1, 0, 2)))),
                 float(np.max(np.abs(data - data.transpose(0, 2, 1)))))
    table = GreenTable(estar=estar, radius=radius, method="fft-grid",
                       tolerance=FFT_TOL, grid_size=grid_size,
                       symmetry_defect=defect, _data=data)
    table.validate()
    return table


def write_table_csv(table: GreenTable, path):
    """CSV with columns x1,x2,x3,value and a JSON header comment line.

    Rows run over the ball in `items()` order.  Each octant entry's `repr` is
    formatted once for all its sign-flip images, and each (x2, x3) pair once
    for every x1 slab.
    """
    header = {"estar": table.estar, "method": table.method,
              "tolerance": table.tolerance, "radius": table.radius,
              "grid_size": table.grid_size}
    r = table.radius
    plane = np.indices((2 * r + 1,) * 2).reshape(2, -1) - r
    d2 = np.sum(plane * plane, axis=0)
    cols = np.array([f",{j},{k}," for j, k in plane.T.tolist()], dtype=object)
    entry = np.abs(plane[0]) * (r + 1) + np.abs(plane[1])  # flat (|x2|, |x3|) in a layer
    text = np.array([repr(v) for v in table._data.ravel().tolist()], dtype=object)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write("x1,x2,x3,value\n")
        for x1 in range(-r, r + 1):
            keep = d2 <= r * r - x1 * x1
            rows = f"{x1}" + cols[keep] + text[abs(x1) * (r + 1) ** 2 + entry[keep]] + "\n"
            fh.write("".join(rows.tolist()))


def read_table_csv(path) -> GreenTable:
    """Inverse of `write_table_csv`.

    A wrong header (a missing key, or a radius `_check_radius` rejects), a
    truncated file, a row outside the radius ball, a non-finite value, or a
    row that gives its octant entry another value than an earlier sign-flip
    image of it did raises ValueError.
    """
    with open(path) as fh:
        header = json.loads(fh.readline().lstrip("# ").strip())
        missing = [k for k in ("estar", "method", "tolerance", "radius")
                   if not isinstance(header, dict) or k not in header]
        if missing:
            raise ValueError(f"{path}: header lacks {', '.join(missing)}")
        columns = fh.readline().strip()
        if columns != "x1,x2,x3,value":
            raise ValueError(f"{path}: expected columns x1,x2,x3,value, got {columns!r}")
        radius = _check_radius(header["radius"])
        values = {}  # octant entry -> value, which its sign-flip images must repeat
        for line in fh:
            line = line.strip()
            i, j, k, v = line.split(",")
            i, j, k, v = abs(int(i)), abs(int(j)), abs(int(k)), float(v)
            if i * i + j * j + k * k > radius**2:
                raise ValueError(f"{path}: row {line!r} lies outside the "
                                 f"radius-{radius} ball")
            if not math.isfinite(v):
                raise ValueError(f"{path}: row {line!r} has a non-finite value")
            old = values.setdefault((i, j, k), v)
            if old != v:
                raise ValueError(f"{path}: row {line!r} gives the octant entry "
                                 f"{(i, j, k)} another value than the {old!r} of an "
                                 "earlier row")
    data = np.full((radius + 1,) * 3, np.nan)
    if values:
        data[tuple(zip(*values))] = list(values.values())
    table = GreenTable(estar=float(header["estar"]), radius=radius,
                       method=header["method"], tolerance=float(header["tolerance"]),
                       grid_size=int(header.get("grid_size", 0)), _data=data)
    table.validate()  # a value missing from the ball is NaN and fails here
    return table


@dataclass(frozen=True)
class AsymptoticsReport:
    """Fitted long-distance behavior of the free Green function along an axis."""

    estar: float
    distances: tuple
    ratios: tuple            # value * 2 pi (|x|+1) * exp(+sqrt(2E*)|x|)
    fitted_rate: float       # from the log-linear fit
    expected_rate: float     # sqrt(2 E*)
    c1: float                # fitted envelope |ratio-1| <= c1 sqrt(E*) + c2/|x|
    c2: float
    envelope_constant: float  # smallest K with value <= K/(|x|+1) on the range

    @property
    def rate_ratio(self) -> float:
        return self.fitted_rate / self.expected_rate


def _decay_distances(distances) -> list:
    """The distances of a decay fit, sorted; ValueError unless integers, two distinct."""
    distances = list(distances)
    try:
        distances = sorted(operator.index(r) for r in distances)
    except TypeError:
        raise ValueError(f"distances {distances} must be integers") from None
    if len(set(distances)) < 2:
        raise ValueError(f"a decay rate needs two distinct distances, got {distances}")
    return distances


def check_asymptotics(distances, estar: float) -> AsymptoticsReport:
    """Fit rate and prefactor of R(x) ~ e^{-sqrt(2E*)|x|} / (2 pi (|x|+1)) on an axis.

    The distances are integers >= 1, at least two of them distinct, and E* is
    finite and > 0; anything else is a ValueError before any quadrature.
    """
    if not (math.isfinite(estar) and estar > 0):
        raise ValueError("estar must be > 0 and finite")
    distances = _decay_distances(distances)
    if distances[0] < 1:
        raise ValueError(f"distances must be >= 1, got {distances}")
    kappa = math.sqrt(2.0 * estar)
    if kappa * max(distances) > 50.0:
        raise ValueError("range too deep: sqrt(2E*) |x| must stay below 50")
    vals = _trapezoid([0, *distances], estar, max(distances), BESSEL_RELTOL, 0,
                      lambda tab, w: ((tab[1:] * tab[0] ** 2) @ w, 0.0),
                      lambda i: f"axis distance {distances[i]}")
    rs = np.array(distances, dtype=float)
    ratios = vals * 2.0 * math.pi * (rs + 1.0) * np.exp(kappa * rs)

    # decay rate from log-linear fit of the prefactor-corrected values
    y = np.log(vals * 2.0 * math.pi * (rs + 1.0))
    slope = np.polyfit(rs, y, 1)[0]

    # envelope fit: |ratio-1| <= c1 sqrt(E*) + c2 / |x| (least squares, clipped)
    resid = np.abs(ratios - 1.0)
    basis = np.stack([np.full_like(rs, math.sqrt(estar)), 1.0 / rs], axis=1)
    coef, *_ = np.linalg.lstsq(basis, resid, rcond=None)
    c1, c2 = (max(float(c), 0.0) for c in coef)
    # inflate jointly so the fitted envelope actually dominates
    env = c1 * math.sqrt(estar) + c2 / rs
    with np.errstate(divide="ignore"):
        scale = np.max(np.where(env > 0, resid / np.maximum(env, 1e-300), np.inf))
    if not math.isfinite(scale):
        c1 = float(np.max(resid)) / math.sqrt(estar)
        scale = 1.0
    c1, c2 = c1 * max(scale, 1.0), c2 * max(scale, 1.0)

    k_fit = float(np.max(vals * (rs + 1.0)))
    return AsymptoticsReport(
        estar=estar,
        distances=tuple(distances),
        ratios=tuple(float(t) for t in ratios),
        fitted_rate=-float(slope),
        expected_rate=kappa,
        c1=float(c1),
        c2=float(c2),
        envelope_constant=k_fit,
    )

