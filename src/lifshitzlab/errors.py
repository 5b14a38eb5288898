"""Exception types shared across the package."""


class LifshitzLabError(Exception):
    """Base class for all package errors."""


class NonConvergenceError(LifshitzLabError):
    """A quadrature failed to reach the requested tolerance within its budget."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class TailDepthError(NonConvergenceError):
    """A point lies deeper in the exponential tail than the quadrature resolves.

    `depth` is sqrt(2E*)|x|. Past `green.TRAPEZOID_DEPTH` the heat-kernel
    integrand's peak in ln t is narrower than the fixed trapezoid grid holds to
    its tolerance, and deeper still the value underflows to 0.
    """

    def __init__(self, message, achieved=None, depth=None):
        super().__init__(message, achieved=achieved)
        self.depth = depth


class BelowLifshitzWindowError(LifshitzLabError):
    """Requested energy lies below the admissible window E >= E_eps(lambda)."""


class OutsideLifshitzWindowError(LifshitzLabError):
    """The expansion gains nothing: C(E*) lambda^2 / sqrt(E*) >= 1."""


class PeriodizationError(LifshitzLabError):
    """FFT grid too small for the requested radius at this energy."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class SingularSolveError(LifshitzLabError):
    """Linear solve failed its residual contract; retry with a larger eta."""

    def __init__(self, message, suggested_eta=None):
        super().__init__(message)
        self.suggested_eta = suggested_eta


class TruncationError(LifshitzLabError):
    """Lattice-sum truncation error above tolerance; enlarge the summation box."""


class CombinatorialBudgetError(LifshitzLabError):
    """Enumeration refused: input size exceeds the configured guard."""


class NonIntegrableError(LifshitzLabError):
    """Graph fails superficial convergence; its momentum integral diverges."""


class ConfigError(LifshitzLabError):
    """Invalid experiment configuration (unknown key, bad value, missing field)."""
