"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all algebra-level errors."""


class PresentationError(AlgebraError):
    """Bad presentation data, unknown generators, or mixed presentations."""


class NonTerminationError(AlgebraError):
    """The rules rewrite a product back into itself: a rewriting cycle."""


class DegreeBudgetError(AlgebraError):
    """A degree-bounded computation needs more degree than it was given."""


class UnsupportedFieldError(AlgebraError):
    """A computation left the rational field (e.g. an irrational eigenvalue)."""


class ParseError(AlgebraError):
    """Expression or definition-file syntax error, with a position if one
    names the place."""

    unit = "position"
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None
                         else f"{message} (at {self.unit} {position})")
        self.message = message
        self.position = position


class LineError(ParseError):
    """A definition-file error whose ``position`` is a line number."""
    unit = "line"
