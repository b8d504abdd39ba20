"""Exception hierarchy shared by all solver and engine modules."""
from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SimulationError):
    """Malformed configuration file, key, or value."""


class ParameterError(SimulationError, ValueError):
    """A physical or numerical parameter is outside its admissible range."""


class CorruptFieldError(SimulationError):
    """A scalar field contains NaN or Inf and must not be used further."""


class DegeneracyError(SimulationError):
    """The chemical field dropped below its positivity floor (min v < v_floor)."""

    def __init__(self, message: str, min_v: float):
        super().__init__(message)
        self.min_v = min_v


class FieldOverflowError(SimulationError):
    """The cell density exceeded its ceiling (max u > u_ceiling)."""

    def __init__(self, message: str, max_u: float = float("nan")):
        super().__init__(message)
        self.max_u = max_u


class TimestepCollapseError(SimulationError):
    """The stable timestep fell below dt_min; treated as numerical blow-up evidence."""


class SolverFailureError(SimulationError):
    """The elliptic solver failed to reach its residual tolerance."""


class ThresholdNotMetError(ParameterError):
    """A regime construction requires a rate above the boundedness threshold."""


class InfeasiblePlanError(SimulationError):
    """The exponent-window construction found no admissible parameter tuple.

    Carries the window endpoints of the first attempt so callers can report
    how far from feasible the construction starts.
    """

    def __init__(self, message: str, p_star: float, p_star_upper: float):
        super().__init__(message)
        self.p_star = p_star
        self.p_star_upper = p_star_upper
