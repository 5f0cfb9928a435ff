"""Exception taxonomy; ``code`` is the machine-readable error code the CLI emits."""

from __future__ import annotations


class CenterwalkError(Exception):
    code = "error"
    exit_code = 1


class InputParseError(CenterwalkError):
    """Malformed input text or file; message carries the position when known."""

    code = "parse_error"
    exit_code = 2


class StructuralError(CenterwalkError):
    """Ill-formed object: cycle edge outside the window, nonpositive weight, ..."""

    code = "structural_error"
    exit_code = 3


class PreconditionError(CenterwalkError):
    """An operation's precondition fails (detailed balance, circulation, ...)."""

    code = "validation_error"
    exit_code = 3


class BudgetExhaustedError(CenterwalkError):
    code = "budget_exhausted"
    exit_code = 4


class SupportOverflowError(CenterwalkError):
    code = "support_overflow"
    exit_code = 5


class OutOfMemoryError(CenterwalkError):
    """A command ran out of memory; the CLI reports it once the data the command held is released."""

    code = "out_of_memory"
    exit_code = 6
