"""Exception hierarchy shared by all modules.

Two broad families matter for the CLI exit codes: configuration/validation
problems (exit 1) and numeric/resource problems (exit 2).
"""


class DeepGpError(Exception):
    """Base class for all package errors."""


class ValidationError(DeepGpError):
    """Invalid configuration, graph, or argument."""


class SpaceTooLargeError(DeepGpError):
    """Structure enumeration would exceed the configured count limit."""


class NumericError(DeepGpError):
    """Numerical failure (e.g. Cholesky breakdown after jitter escalation)."""


class ConditioningError(NumericError):
    """Rejection sampling exhausted its attempt budget."""


class BudgetExceededError(NumericError):
    """A brute-force search exceeded its resource budget."""
