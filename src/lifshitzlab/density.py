"""The single-site disorder density.

The paper's potential is bounded, zero-mean and i.i.d.; lifshitzlab fixes one
law for it, uniform on [-sqrt(3), sqrt(3)]: even, bounded, compactly
supported, unit variance.  Its even moments are available in closed form
(m_4 = 9/5); they fix the cumulant coefficients of `diagrams`, and a test
checks that the cumulants reproduce them, by the partition sum and by
quadrature against the density.
"""

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class DensitySpec:
    """Uniform density on [-sqrt(3), sqrt(3)]: even, bounded, variance 1."""

    def moment(self, order: int) -> float:
        """Raw moment E[V^order]; odd moments vanish by evenness."""
        if order < 0:
            raise ValueError("moment order must be nonnegative")
        if order % 2 == 1:
            return 0.0
        # uniform on [-a, a]: E V^{2l} = a^{2l} / (2l + 1), with a^2 = 3
        return 3.0 ** (order // 2) / (order + 1)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.uniform(-SQRT3, SQRT3, size=size)
