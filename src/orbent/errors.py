"""Exception types shared across the package."""


class OrbentError(Exception):
    """Base class for all package errors."""


class ParameterError(OrbentError, ValueError):
    """An argument violates a documented precondition."""


class MetricTypeError(OrbentError, TypeError):
    """A semimetric was applied to points of the wrong kind."""


class HorizonError(OrbentError, ValueError):
    """A symbolic orbit was iterated past the stored horizon."""


class SizeError(OrbentError, ValueError):
    """An input is too small or too large for the requested operation."""


class InfeasibleError(OrbentError, RuntimeError):
    """A numerical subproblem admits no solution within its constraints."""


class ConfigError(ParameterError):
    """An invalid JSON field or command-line argument; remembers its name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
