"""Exception types and the budget default shared across the package."""

from __future__ import annotations


class TreecaError(Exception):
    """Base class for all errors raised by this package."""


class BudgetError(TreecaError):
    """An enumeration or subset construction exceeded its item budget."""


DEFAULT_STATE_BUDGET = 2**16  # subsets a construction may intern


class AddressError(TreecaError):
    """A node address does not lie in the domain of the tree."""


class MalformedContextError(TreecaError):
    """A tree used as a context does not contain exactly one hole."""


class NotWellRankedError(TreecaError):
    """A tree uses a symbol outside the alphabet or with the wrong arity."""


class NotDeterministicError(TreecaError):
    """An operation that requires a deterministic automaton got a nondeterministic one."""


class NotPathClosedError(TreecaError):
    """An operation that requires a path-closed language got one that is not."""


class ParseError(TreecaError):
    """A term or automaton file failed to parse; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
