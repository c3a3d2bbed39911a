"""Diagnostics for the IDL compiler."""

from __future__ import annotations


class IdlError(Exception):
    """Base of all IDL compilation failures."""

    def __init__(
        self, message: str, line: int | None = None, column: int | None = None
    ) -> None:
        location = ""
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            location = f" ({location})"
        super().__init__(f"{message}{location}")
        self.message = message
        self.line = line
        self.column = column


class IdlSyntaxError(IdlError):
    """Lexical or grammatical error in the IDL source."""


class IdlSemanticError(IdlError):
    """The source parses but violates IDL rules (unknown names,
    duplicates, bad inheritance, invalid constants, …).

    ``rule`` is the ``repro.lint`` rule the error belongs to: PD100
    for plain IDL errors, or the PARDIS/CORBA rule it breaks, with
    ``hint`` saying how to fix it.
    """

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        *,
        rule: str = "PD100",
        hint: str = "",
    ) -> None:
        super().__init__(message, line, column)
        self.rule = rule
        self.hint = hint
