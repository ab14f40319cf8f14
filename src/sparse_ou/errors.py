"""Exception types shared across the package.

A value that a command-line flag can supply is rejected with
:class:`UsageError` by the code that uses it, also when a library caller
passes it ill-typed (``ExperimentConfig(reps="2")``); the CLI exits with
code 2 for it and with code 1 for any other error.  An argument no flag can
supply, such as a wrongly shaped array, raises plain ``ValueError``; the
other classes mark failures of numerical preconditions or external inputs.
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
    """A setting is invalid; raised where the setting is used, and the CLI exits with code 2."""
