"""Dispersion, torus integrals, and the self-energy fixed point.

The lattice dispersion is e(p) = 2 sum_a sin^2(pi p_a) on the torus
T^3 = [-1/2, 1/2]^3, so the free operator -Delta/2 has spectrum [0, 6].
The self-energy sigma at coupling lam and energy E > 0 solves

    sigma = lam^2 * I1(E - sigma),    I1(s) = int_T3 d^3p / (e(p) + s),

which we invert through the strictly increasing branch of
E(E*) = E* + lam^2 I1(E*).  E is convex in E* (I1'' > 0) with its minimum at
the branch point E*_c where lam^2 I2(E*_c) = 1, so Newton started right of
E*_c reaches the root in one step from the right and then descends to it:
no bracket is needed.

The torus integrals are the free Green function at the origin.  By the
Laplace identity 1/(e + s)^(p+1) = int_0^inf t^p e^{-(e+s)t} dt / p! and
int_T3 e^{-e(p) t} d^3p = (e^{-t} I_0(t))^3,

    I1(s) = int_0^inf e^{-s t} ive(0, t)^3 dt,
    I2(s) = int_0^inf t e^{-s t} ive(0, t)^3 dt = -dI1/ds,

which `green._trapezoid`, the one heat-kernel provider, evaluates by the
ln-t trapezoid rule held to QUAD_TOL = 1e-12 relative, reading the ive(0, t)
row it keeps per process (scipy's ive runs once per node, not once per call).
Below s ~ 5e-8 the grid reaches t >= 2^30, where its Hankel expansion stands
in for scipy's ive; at s = 0 it ends at T_FAR.  I1(0) is checked against
Watson's closed form.  A non-finite E*, E or lam is a ValueError before any
quadrature.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma

from .errors import BelowLifshitzWindowError, NonConvergenceError
from .green import _trapezoid

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


QUAD_TOL = 1e-12  # relative error contract of the torus integrals
NEWTON_TOL = 1e-14  # Newton stop on |E(E*) - E|, relative to max(1, E)


def dispersion(p):
    """Lattice dispersion e(p) = 2 sum_a sin^2(pi p_a), in [0, 6].

    `p` may be a 3-vector or an (..., 3) array.
    """
    p = np.asarray(p, dtype=float)
    return 2.0 * np.sum(np.sin(np.pi * p) ** 2, axis=-1)


def _origin_moment(estar: float, power: int) -> float:
    """int_T3 d^3p / (e(p) + estar)^(power+1) from the heat-kernel provider."""
    return float(_trapezoid((0,), estar, 0.0, QUAD_TOL, power,
                            lambda tab, w: (tab[0] ** 3 @ w, 0.0),
                            lambda i: f"origin, power {power}"))


def torus_integral_I1(estar: float) -> float:
    """int_T3 d^3p / (e(p) + estar); finite for all estar >= 0."""
    if not (math.isfinite(estar) and estar >= 0):
        raise ValueError("estar must be >= 0 and finite")
    return _origin_moment(estar, 0)


def torus_integral_I2(estar: float) -> float:
    """int_T3 d^3p / (e(p) + estar)^2 = -d I1 / d estar; needs estar > 0."""
    if not (math.isfinite(estar) and estar > 0):
        raise ValueError("estar must be > 0 and finite")
    return _origin_moment(estar, 1)


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
    return _origin_moment(0.0, 0)


def energy_of_estar(estar: float, lam: float) -> float:
    """E(E*) = E* + lam^2 I1(E*), the inverse of the self-energy map."""
    if not (math.isfinite(estar) and estar >= 0):
        raise ValueError("estar must be >= 0 and finite")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be >= 0 and finite")
    return estar + lam**2 * torus_integral_I1(estar)


def threshold_E_eps(lam: float, epsilon: float = 1.0) -> float:
    """Lower edge of the admissible energy window: lam^2 I1(0) + lam^(4-eps)."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be >= 0 and finite")
    if not (0 < epsilon < 4):
        raise ValueError("epsilon must be in (0, 4)")
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
        if not all(map(math.isfinite, (self.lam, self.energy, self.estar, self.sigma))):
            raise ValueError("need finite lam, E, estar and sigma")
        if self.lam < 0 or self.energy <= 0 or self.estar <= 0:
            raise ValueError("need lam >= 0, E > 0, estar > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if abs(self.sigma - (self.energy - self.estar)) > 1e-12 * max(1.0, self.energy):
            raise ValueError("sigma must equal E - estar")

    def residual(self) -> float:
        """|sigma - lam^2 I1(estar)| of the fixed point."""
        return abs(self.sigma - self.lam**2 * torus_integral_I1(self.estar))

    @classmethod
    def from_estar(cls, lam: float, estar: float) -> "EnergyContext":
        """Context pinned at (lam, E*): sigma = lam^2 I1(E*), E = E* + sigma."""
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError("lam must be >= 0 and finite")
        sigma = lam**2 * torus_integral_I1(estar) if lam else 0.0
        return cls(lam=lam, energy=estar + sigma, estar=estar, sigma=sigma)


def solve_self_energy(energy: float, lam: float, epsilon: float = 1.0) -> EnergyContext:
    """Invert E(E*) = E on its increasing branch and return the solved context.

    Plain Newton steps from a clamped guess drive the fixed-point residual
    below NEWTON_TOL * max(1, E).
    """
    if not (math.isfinite(energy) and energy > 0):
        raise ValueError("energy must be > 0 and finite")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be >= 0 and finite")
    if not (0 < epsilon < 4):
        raise ValueError("epsilon must be in (0, 4)")
    if lam == 0.0:  # the guess below, (sqrt(E))^2, may round above E
        return EnergyContext(lam=0.0, energy=energy, estar=energy, sigma=0.0)
    thresh = threshold_E_eps(lam, epsilon)
    if energy < thresh * (1.0 - 1e-12):
        raise BelowLifshitzWindowError(
            f"E={energy:g} below the admissible window edge E_eps={thresh:g} "
            f"(lam={lam:g}, eps={epsilon:g})"
        )

    i10 = i1_zero()
    # f(E*) = E(E*) - E is convex (I1'' = 2 int (e + E*)^-3 > 0) with its
    # minimum at the branch point E*_c, where lam^2 I2(E*_c) = 1.  E >= E_eps
    # > lam^2 I1(0) = E(0) puts the root right of E*_c, and I2(s) <= 0.436/sqrt(s),
    # I2(s) <= 1/s^2 give E*_c <= min(0.19 lam^4, lam), below both lo and
    # max(6, E).  So the clamped start lies right of E*_c, the first Newton
    # step lands at or right of the root and every later step descends to it.
    lo = 4.0 * (lam**2 * i10) ** 2
    hi = max(6.0, energy)

    # initial guess from E(E*) ~ E* + lam^2 (I1(0) - (sqrt(2)/2pi) sqrt(E*))
    beta = math.sqrt(2.0) / (2.0 * math.pi) * lam**2
    disc = beta**2 + 4.0 * (energy - lam**2 * i10)
    x = ((beta + math.sqrt(disc)) / 2.0) ** 2 if disc > 0 else 0.5 * (lo + hi)
    x = min(max(x, lo), hi)

    tol = NEWTON_TOL * max(1.0, energy)
    for _ in range(200):
        fx = energy_of_estar(x, lam) - energy
        if abs(fx) < tol:
            break
        x = x - fx / (1.0 - lam**2 * torus_integral_I2(x))
    else:
        raise NonConvergenceError("self-energy Newton iteration did not converge",
                                  achieved=abs(fx))

    return EnergyContext(lam=lam, energy=energy, estar=x, sigma=energy - x)
