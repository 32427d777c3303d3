"""Exception hierarchy shared by all emisim modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes (2 = validation, 3 = I/O, 4 = numeric).
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class EmisimError(Exception):
    """Base class for all emisim errors."""

    exit_code = EXIT_VALIDATION


class EmptyInputError(EmisimError):
    """An operation received an empty collection."""


class UnitMismatchError(EmisimError):
    """Series with different units were combined."""


class DisjointYearRangesError(EmisimError):
    """Input series share no common year."""


class UnknownScenarioNameError(EmisimError):
    """A scenario name is not in the fixed alignment dictionary."""

    def __init__(self, names):
        if isinstance(names, str):
            names = [names]
        self.names = list(names)
        super().__init__(f"unknown scenario name(s): {', '.join(self.names)}")


class DriverTableError(EmisimError):
    """Base class for driver-table validation failures.

    ``violations`` lists every violated row, not just the first one.
    """

    def __init__(self, message, violations=None):
        self.violations = list(violations or [])
        if self.violations:
            message = message + "\n  " + "\n  ".join(self.violations)
        super().__init__(message)


class GapInYearsError(DriverTableError):
    """Driver-table years are not contiguous."""


class FractionOutOfRangeError(DriverTableError):
    """A fraction column left its admissible interval."""


class NonPositiveValueError(DriverTableError):
    """A strictly positive column holds a zero or negative value."""


class InvalidLevelError(EmisimError):
    """Confidence level outside (0, 1)."""


class MissingHalfwidthError(EmisimError):
    """No halfwidth configured for a driver variable."""


class HalfwidthTooWideError(EmisimError):
    """A halfwidth gives a fraction variable a sigma above its [0, 1] range."""


class EmptyEnsembleError(EmisimError):
    """Percentile bands requested from an empty ensemble."""


class SchemaError(EmisimError):
    """Input file violates its schema; points at line and column."""

    def __init__(self, line, column, reason):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


class NegativeInputError(EmisimError):
    """A non-negative quantity was given a negative value."""


class UnknownTaskError(EmisimError):
    """Task name not present in the inference-energy table."""


class YearOutsideFitError(EmisimError):
    """Prediction requested for a year the intensity model was not fitted on."""


class NumericError(EmisimError):
    """Base class for numerical failures (exit code 4)."""

    exit_code = EXIT_NUMERIC


class DegenerateRowError(NumericError):
    """A driver row has a zero product denominator; intensity is undefined."""


class RankDeficientDesignError(NumericError):
    """Regression design matrix is rank deficient (collinear inputs)."""
