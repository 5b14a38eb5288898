"""Dispersion, torus integrals, and the self-energy fixed point.

The lattice dispersion is e(p) = 2 sum_a sin^2(pi p_a) on the torus
T^3 = [-1/2, 1/2]^3, so the free operator -Delta/2 has spectrum [0, 6].
The self-energy sigma at coupling lam and energy E > 0 solves

    sigma = lam^2 * I1(E - sigma),    I1(s) = int_T3 d^3p / (e(p) + s),

which we invert through the strictly increasing branch of
E(E*) = E* + lam^2 I1(E*).

Torus integrals use a tensor-product midpoint rule with an even number of
nodes per axis (the singular point p = 0 is never a node).  The innermost
axis is summed in closed form,

    (1/N) sum_k 1/(A - cos theta_k) = tanh((N/2) ln w) / sqrt(A^2 - 1),

with theta_k the midpoint angles and w = A + sqrt(A^2 - 1), which makes the
exact N^3-node rule an O(N^2) computation.  For s > 0 the rule converges
like exp(-2N sqrt(2s)); at s = 0 the error is c/N and Richardson
extrapolation in 1/N restores fast convergence.

The quadrature runs one fixed policy, checked against Watson's closed form
for I1(0): relative tolerance QUAD_TOL = 1e-12, a QUAD_START_GRID = 64 node
starting grid per axis doubled until the error estimate meets the tolerance,
a cap of QUAD_MAX_GRID = 16384 nodes per axis (NonConvergenceError beyond
it, with the achieved estimate), and the Richardson ladder for I1 below
E* = RICHARDSON_ESTAR = 1e-8.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma

from .errors import BelowLifshitzWindowError, NonConvergenceError

__all__ = [
    "EnergyContext",
    "dispersion",
    "torus_integral_I1",
    "torus_integral_I2",
    "energy_of_estar",
    "solve_self_energy",
    "threshold_E_eps",
    "watson_constant",
]


QUAD_TOL = 1e-12          # relative error target of the torus integrals
QUAD_START_GRID = 64      # starting nodes per axis; escalation doubles
QUAD_MAX_GRID = 16384     # cap on nodes per axis
RICHARDSON_ESTAR = 1e-8   # I1 below this E* takes the Richardson ladder


def dispersion(p):
    """Lattice dispersion e(p) = 2 sum_a sin^2(pi p_a), in [0, 6].

    `p` may be a 3-vector or an (..., 3) array.
    """
    p = np.asarray(p, dtype=float)
    return 2.0 * np.sum(np.sin(np.pi * p) ** 2, axis=-1)


def _midpoint_pair(n: int, estar: float):
    """Exact tensor-midpoint values of (I1, I2) on an n^3 grid, n even.

    Works with d = A - 1 = estar + e1(x) + e1(y) > 0 throughout to avoid
    cancellation near the dispersion minimum.
    """
    k = np.arange(n // 2)
    x = (k + 0.5) / n - 0.5
    s = 2.0 * np.sin(np.pi * x) ** 2
    d = estar + s[:, None] + s[None, :]
    root = np.sqrt(d * (2.0 + d))  # sqrt(A^2 - 1)
    t = 0.5 * n * np.log1p(d + root)
    T = np.tanh(t)
    g = T / root
    i1 = 4.0 * float(np.sum(g)) / n**2
    # d/dA of the closed-form inner sum; I2 = -dI1/dE*
    A = 1.0 + d
    gprime = -A * T / root**3 + 0.5 * n * (1.0 - T * T) / (d * (2.0 + d))
    i2 = -4.0 * float(np.sum(gprime)) / n**2
    return i1, i2


def _round_up4(n: int) -> int:
    return n + (-n) % 4


def _target_grid(estar: float) -> int:
    """Grid size (estar > 0) at which exp(-2N sqrt(2 estar)) drops below QUAD_TOL."""
    n = (math.log(1.0 / QUAD_TOL) + 8.0) / (2.0 * math.sqrt(2.0 * estar))
    return _round_up4(max(QUAD_START_GRID, int(math.ceil(n))))


def _integrate_positive(estar: float, which: int) -> float:
    """Midpoint evaluation for estar > 0 with doubling escalation."""
    n = min(_target_grid(estar), QUAD_MAX_GRID)
    n = max(8, n - n % 4)
    prev = _midpoint_pair(n // 2, estar)[which]
    cur = _midpoint_pair(n, estar)[which]
    while True:
        # |I(n) - I(n/2)| ~ err(n/2); in the exponential regime err(n) is
        # smaller by exp(-sqrt(2 estar) n), applied with a safety factor
        diff = abs(cur - prev)
        err = diff * min(1.0, 100.0 * math.exp(-math.sqrt(2.0 * estar) * n))
        if err <= QUAD_TOL * max(1.0, abs(cur)):
            return cur
        if 2 * n > _round_up4(QUAD_MAX_GRID):
            raise NonConvergenceError(
                f"midpoint rule not converged at grid {n} (estar={estar:g}); "
                f"achieved error estimate {err:.3e}",
                achieved=err,
            )
        n *= 2
        prev, cur = cur, _midpoint_pair(n, estar)[which]


def _integrate_richardson(estar: float) -> float:
    """Richardson-extrapolated midpoint I1, valid down to estar = 0.

    The midpoint error at estar = 0 is c1/N + c3/N^3 + ...; one level of
    extrapolation removes 1/N, a second removes 1/N^3.
    """
    n = 256  # the c1/N regime needs a finer start than QUAD_START_GRID
    vals = [_midpoint_pair(n, estar)[0], _midpoint_pair(2 * n, estar)[0]]
    best = None
    while True:
        r1 = [2.0 * b - a for a, b in zip(vals, vals[1:])]
        r2 = [(8.0 * b - a) / 7.0 for a, b in zip(r1, r1[1:])]
        candidates = r2 if r2 else r1
        new_best = candidates[-1]
        if best is not None:
            err = abs(new_best - best)
            if err <= QUAD_TOL * max(1.0, abs(new_best)):
                return new_best
            if n * 2 ** len(vals) > QUAD_MAX_GRID:
                raise NonConvergenceError(
                    f"Richardson ladder not converged (estar={estar:g}); "
                    f"achieved error estimate {err:.3e}",
                    achieved=err,
                )
        best = new_best
        vals.append(_midpoint_pair(n * 2 ** len(vals), estar)[0])


def torus_integral_I1(estar: float) -> float:
    """int_T3 d^3p / (e(p) + estar); finite for all estar >= 0."""
    if estar < 0:
        raise ValueError("estar must be >= 0")
    if estar < RICHARDSON_ESTAR:
        return _integrate_richardson(estar)
    return _integrate_positive(estar, which=0)


def torus_integral_I2(estar: float) -> float:
    """int_T3 d^3p / (e(p) + estar)^2 = -d I1 / d estar; needs estar > 0."""
    if estar <= 0:
        raise ValueError("estar must be > 0")
    return _integrate_positive(estar, which=1)


def watson_constant() -> float:
    """Closed form of I1(0) (simple-cubic lattice Green function at the origin)."""
    return float(
        math.sqrt(6.0)
        / (96.0 * math.pi**3)
        * gamma(1 / 24)
        * gamma(5 / 24)
        * gamma(7 / 24)
        * gamma(11 / 24)
    )


@lru_cache(maxsize=None)
def i1_zero() -> float:
    """Cached I1(0)."""
    return _integrate_richardson(0.0)


def energy_of_estar(estar: float, lam: float) -> float:
    """E(E*) = E* + lam^2 I1(E*), the inverse of the self-energy map."""
    if estar < 0:
        raise ValueError("estar must be >= 0")
    if lam == 0.0:
        return estar
    return estar + lam**2 * torus_integral_I1(estar)


def threshold_E_eps(lam: float, epsilon: float = 1.0) -> float:
    """Lower edge of the admissible energy window: lam^2 I1(0) + lam^(4-eps)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not (0 < epsilon < 4):
        raise ValueError("epsilon must be in (0, 4)")
    if lam == 0.0:
        return 0.0
    return lam**2 * i1_zero() + lam ** (4.0 - epsilon)


@dataclass(frozen=True)
class EnergyContext:
    """Consistent (lam, E, E*, sigma) tuple solving the self-energy equation.

    Invariants: sigma == E - estar exactly; sigma == lam^2 I1(estar) within
    the solver tolerance; 0 <= sigma <= lam^2 I1(0).
    """

    lam: float
    energy: float
    estar: float
    sigma: float

    def __post_init__(self):
        if self.lam < 0 or self.energy <= 0 or self.estar <= 0:
            raise ValueError("need lam >= 0, E > 0, estar > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if abs(self.sigma - (self.energy - self.estar)) > 1e-12 * max(1.0, self.energy):
            raise ValueError("sigma must equal E - estar")

    def residual(self) -> float:
        """|sigma - lam^2 I1(estar)| of the fixed point."""
        if self.lam == 0.0:
            return abs(self.sigma)
        return abs(self.sigma - self.lam**2 * torus_integral_I1(self.estar))

    @classmethod
    def from_estar(cls, lam: float, estar: float) -> "EnergyContext":
        """Context pinned at (lam, E*): sigma = lam^2 I1(E*), E = E* + sigma."""
        sigma = lam**2 * torus_integral_I1(estar) if lam else 0.0
        return cls(lam=lam, energy=estar + sigma, estar=estar, sigma=sigma)


def solve_self_energy(energy: float, lam: float, epsilon: float = 1.0) -> EnergyContext:
    """Invert E(E*) = E on its increasing branch and return the solved context.

    Bisection brackets the root, a safeguarded Newton iteration polishes it;
    the fixed-point residual is driven below 1e-11 * max(1, E).
    """
    if energy <= 0:
        raise ValueError("energy must be > 0")
    if not (0 < epsilon < 4):
        raise ValueError("epsilon must be in (0, 4)")
    if lam == 0.0:
        return EnergyContext(lam=0.0, energy=energy, estar=energy, sigma=0.0)
    thresh = threshold_E_eps(lam, epsilon)
    if energy < thresh * (1.0 - 1e-12):
        raise BelowLifshitzWindowError(
            f"E={energy:g} below the admissible window edge E_eps={thresh:g} "
            f"(lam={lam:g}, eps={epsilon:g})"
        )

    i10 = i1_zero()
    # E >= E_eps guarantees the root lies on the increasing branch above
    # lo = 4 (lam^2 I1(0))^2, and f(hi) > 0 holds for hi >= E since I1 > 0.
    lo = 4.0 * (lam**2 * i10) ** 2
    hi = max(6.0, energy)

    def f(t):
        return energy_of_estar(t, lam) - energy

    # initial guess from E(E*) ~ E* + lam^2 (I1(0) - (sqrt(2)/2pi) sqrt(E*))
    beta = math.sqrt(2.0) / (2.0 * math.pi) * lam**2
    disc = beta**2 + 4.0 * (energy - lam**2 * i10)
    x = ((beta + math.sqrt(disc)) / 2.0) ** 2 if disc > 0 else 0.5 * (lo + hi)
    x = min(max(x, lo), hi)

    tol = 1e-11 * max(1.0, energy)  # above the quadrature jitter scale
    for _ in range(200):
        fx = f(x)
        if fx > 0:
            hi = x
        else:
            lo = x
        if abs(fx) < tol:
            break
        deriv = 1.0 - lam**2 * torus_integral_I2(x)
        xn = x - fx / deriv if deriv > 0 else None
        if xn is None or not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        x = xn
    else:
        raise NonConvergenceError("self-energy Newton/bisection did not converge",
                                  achieved=abs(f(x)))

    return EnergyContext(lam=lam, energy=energy, estar=x, sigma=energy - x)
