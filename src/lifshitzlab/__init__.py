"""Desk-scale numerical laboratory for band-edge localization in the 3D Anderson model.

Modules:

* `selfenergy`: dispersion e(p), torus integrals I1 and I2 (the Green function
  at the origin), the self-energy fixed point
* `green`: free lattice Green function (the one heat-kernel provider, which
  also serves I1 and I2, and the FFT oracle)
* `diagrams`: even-block partitions, Feynman graphs, power counting
* `graphvalues`: Monte Carlo graph values, scaling checks, moment bounds
* `expansion`: renormalized resolvent expansion with the stopping rule
* `anderson`: finite boxes, matrix-free Krylov resolvent columns with an splu
  fallback, fractional-moment diagnostics
* `cli`: reproducible experiment runner
"""

__version__ = "0.1.0"

from .selfenergy import (EnergyContext, dispersion, energy_of_estar, solve_self_energy,
                         threshold_E_eps, torus_integral_I1, torus_integral_I2)

__all__ = [
    "__version__",
    "EnergyContext",
    "dispersion",
    "energy_of_estar",
    "solve_self_energy",
    "threshold_E_eps",
    "torus_integral_I1",
    "torus_integral_I2",
]
