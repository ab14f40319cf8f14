"""Exception types shared across the package.

Invalid arguments raise plain ``ValueError``; the classes below mark
failures of numerical preconditions or external inputs.
"""

__all__ = [
    "StabilityError",
    "NumericError",
    "ConditioningError",
    "GenerationError",
    "IngestionError",
    "UsageError",
]


class StabilityError(RuntimeError):
    """A drift matrix has an eigenvalue with non-positive real part."""


class NumericError(RuntimeError):
    """A numerical routine failed (factorization, eigensolver, ...)."""


class ConditioningError(NumericError):
    """A linear system is too ill-conditioned to solve reliably."""


class GenerationError(RuntimeError):
    """Random model generation could not produce a valid instance."""


class IngestionError(RuntimeError):
    """An input file could not be parsed into a usable dataset."""


class UsageError(ValueError):
    """A command-line flag or experiment setting is invalid; the CLI exits with code 2."""
