"""Shared exception types."""


class EndspecError(Exception):
    """Base class for errors raised by this package."""


class EvaluationError(EndspecError):
    """A geometric or potential quantity failed to evaluate (non-finite)."""


class ContractError(EndspecError):
    """An operation was called outside its documented preconditions."""


class BranchError(EndspecError):
    """Complex square root was evaluated on its cut where the phase needs it."""


class ResolutionError(EndspecError):
    """Grid too coarse for the requested spectral parameter."""


class AbsorptionError(EndspecError):
    """Complex-shift solve requested on a domain too short to absorb the wave."""


class ConditioningError(EndspecError):
    """Linear system too close to singular to solve reliably."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConfigError(EndspecError):
    """Invalid run configuration; carries every violation found, not just the first."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
