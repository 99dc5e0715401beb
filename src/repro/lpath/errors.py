"""Exceptions raised by the LPath language implementation."""

from __future__ import annotations


class LPathError(Exception):
    """Base class for all LPath errors."""


class LPathSyntaxError(LPathError):
    """A query failed to tokenize or parse."""

    def __init__(self, message: str, query: str, position: int) -> None:
        pointer = " " * position + "^"
        super().__init__(f"{message}\n  {query}\n  {pointer}")
        self.query = query
        self.position = position


class LPathCompileError(LPathError):
    """A parsed query cannot be compiled for the selected backend."""


class LPathEvaluationError(LPathError):
    """A query failed during evaluation."""
