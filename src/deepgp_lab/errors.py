"""Exception hierarchy shared by all modules.

The CLI's exit codes: configuration/validation problems exit 1, numeric and
resource problems exit 2, and any other exception, a program bug, exits 3.
"""


class DeepGpError(Exception):
    """Base class for all package errors."""


class ValidationError(DeepGpError):
    """Invalid configuration, graph, or argument."""


class SpaceTooLargeError(ValidationError):
    """Structure enumeration would exceed the configured count limit."""


class NumericError(DeepGpError):
    """Numerical failure (e.g. Cholesky breakdown after jitter escalation)."""


class ConditioningError(NumericError):
    """Rejection sampling exhausted its attempt budget."""
