"""Exception hierarchy shared by all modules, and the integer check of their records.

The CLI's exit codes: configuration/validation problems exit 1, numeric and
resource problems exit 2, and any other exception, a program bug, exits 3.
"""

import operator


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


def check_int(value, name):
    """value as a Python int: an int or a numpy integer, but not a bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")
