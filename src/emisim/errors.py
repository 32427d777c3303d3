"""Exit codes, and the two exceptions that carry data.

A failure's kind is its type, and the CLI maps each kind to its exit code:
a rejected value or input is a ``ValueError`` (exit 2), a numeric failure
an ``ArithmeticError`` such as ``OverflowError`` or ``ZeroDivisionError``
(exit 4), and a failed read or write an ``OSError`` (exit 3). The package
defines only the two exceptions whose data a caller reads: a
:class:`SchemaError` points at a line and column of its file, and a
:class:`DriverTableError` lists every violated row. Both end with exit 2.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class EmisimError(Exception):
    """Base of the exceptions that carry data; not a ``ValueError``, so no
    ``except ValueError`` that rewords a bad value rewords these."""


class DriverTableError(EmisimError):
    """A driver table broke its invariants; ``violations`` lists every
    violated row, not just the first one."""

    def __init__(self, message, violations=None):
        self.violations = list(violations or [])
        if self.violations:
            message = message + "\n  " + "\n  ".join(self.violations)
        super().__init__(message)


class SchemaError(EmisimError):
    """Input file violates its schema; points at line and column."""

    def __init__(self, line, column, reason):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")
