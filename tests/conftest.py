import math

import pytest

from lifshitzlab import selfenergy as se


@pytest.fixture(scope="session")
def context_factory():
    """Build a consistent EnergyContext directly from (lam, estar)."""

    return se.EnergyContext.from_estar


def combined_stderr(*errs):
    return math.sqrt(sum(e * e for e in errs))
