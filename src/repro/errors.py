"""Exception hierarchy shared across the CAESURA reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A table, column, or datatype was used inconsistently."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the table."""

    def __init__(self, column: str, available: list[str] | None = None):
        self.column = column
        self.available = list(available or [])
        hint = f" (available: {', '.join(self.available)})" if self.available else ""
        super().__init__(f"unknown column {column!r}{hint}")


class UnknownTableError(SchemaError):
    """A referenced table does not exist in the data lake / context."""

    def __init__(self, table: str, available: list[str] | None = None):
        self.table = table
        self.available = list(available or [])
        hint = f" (available: {', '.join(self.available)})" if self.available else ""
        super().__init__(f"unknown table {table!r}{hint}")


class TypeMismatchError(SchemaError):
    """An operator received a column of an unsupported datatype."""


class SQLGuardError(ReproError):
    """Generated SQL was rejected by the SELECT-only security guard."""


class SQLExecutionError(ReproError):
    """sqlite3 failed to execute generated SQL."""


class SandboxViolationError(ReproError):
    """Generated Python UDF code used a forbidden construct."""


class CodeGenerationError(ReproError):
    """The UDF code generator could not produce code for a description."""


class OperatorError(ReproError):
    """A physical operator failed during execution.

    Attributes:
        operator: name of the failing operator (``"Visual Question Answering"``).
        step_index: 0-based index of the logical step being executed, if known.
    """

    def __init__(self, message: str, operator: str | None = None,
                 step_index: int | None = None):
        super().__init__(message)
        self.operator = operator
        self.step_index = step_index


class PlanParseError(ReproError):
    """An LLM response could not be parsed into a plan / operator choice."""


class LLMError(ReproError):
    """The (simulated) language model could not answer a prompt."""
