"""Exception types shared across the package.

ValueError (and subclasses) marks bad inputs or malformed data; the
RuntimeError family marks numerical failures discovered mid-computation.
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""


class FormatError(ValueError):
    """Malformed serialized payload (bad magic, truncation, bad header)."""


class NumericError(RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


class ConvergenceError(NumericError):
    """Iteration/subdivision budget exhausted before tolerances were met."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class BudgetError(NumericError):
    """A march ran past its declared wall-time budget."""


class DivergenceError(NumericError):
    """Non-finite values appeared during time integration."""


class TrackingError(NumericError):
    """Front tracking could not bracket the requested level."""
