"""Exception hierarchy shared by all subdecay modules."""


class SubdecayError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SubdecayError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedRangeError(DomainError):
    """Parameters are structurally valid but outside the validated accuracy
    envelope; refusing to return a silently degraded value."""


class ConfigError(SubdecayError, ValueError):
    """A run configuration failed validation. ``problems`` lists every
    violated field."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NumericalError(SubdecayError, RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


class QuadratureError(NumericalError):
    """A fixed Bromwich sum (frac_ode._bromwich_sum) was refused: its error
    estimate, from the 43- against the 64-node rule, exceeded the tolerance,
    or the sum left float64's normal range; the message names the entry and
    the estimate, the overflow or the underflow."""


class SolverError(NumericalError):
    """A linear solve failed (singular or numerically unusable system)."""
