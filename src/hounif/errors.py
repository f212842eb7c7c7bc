"""Exception types shared across the library."""


class HounifError(Exception):
    """Base class for all errors raised by this package."""


class IllTyped(HounifError):
    """A term does not type-check (e.g. an application of a base-type head)."""


class TypeMismatch(HounifError):
    """Two terms that were required to share a type do not."""


class IdempotenceViolation(HounifError):
    """A substitution composition would break the idempotence invariant."""


class InternalError(HounifError):
    """An internal invariant failed; indicates a bug, not bad input."""


class ParseError(HounifError):
    """Syntax error in textual input, with 1-based line/column when the
    input has positions."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line = line
        self.col = col


class DeclError(HounifError):
    """Semantic error in a problem file: undeclared or ill-typed symbol,
    or a declaration that violates the naming conventions."""
