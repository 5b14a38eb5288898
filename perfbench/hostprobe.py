"""Host speed probe: rescales the benchmark's pass times to a reference speed.

On a shared host other tenants slow all work, by a quarter or more, in
episodes that last from seconds to minutes.  Every pass of a run slows
together, so no statistic over one run's passes removes it, and runs made
minutes apart differ by as much.  CPU time rises with wall time, so this is
not stolen time.  The probe runs before every study of a timed pass, and the
pass's wall time is multiplied by `HostProbe.REF_S` over the probe's mean
time in that pass.  It calls no lifshitzlab code, so a change to the program
does not move it.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import ive


class HostProbe:
    """Fixed work whose time measures host speed.

    Three kinds of work, about equal in time, because the workloads weigh
    them differently: a Python loop, NumPy streaming over 16 MB with small
    matrix products, and scalar adaptive quadrature of a Bessel integrand.
    Each alone tracks some workloads' slowdowns and misses others'.
    """

    REF_S = 0.05  # probe seconds that define the reference host speed

    def __init__(self):
        self._vec = np.ones(2_000_000)
        self._out = np.empty_like(self._vec)
        self._mat = np.random.default_rng(0).random((120, 120))

    @staticmethod
    def _integrand(t):
        return ive(0, t) * math.exp(-0.3 * t)

    def __call__(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        for _ in range(8):
            np.multiply(self._vec, 1.0001, out=self._out)
        for _ in range(10):
            self._mat @ self._mat
        for k in range(50):
            quad(self._integrand, 0.0, 40.0 + k, epsrel=1e-12, limit=200)
        return time.perf_counter() - t0
