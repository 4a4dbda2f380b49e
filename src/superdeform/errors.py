"""Shared exception types."""


class ContextMismatchError(ValueError):
    """Operands were built over different algebra contexts."""


class NotIntegrableError(ValueError):
    """The function has a term the Gaussian-class integral cannot handle."""


class ArityError(ValueError):
    """A multilinear form received the wrong number of arguments."""


class DeformationError(ValueError):
    """A context or parameter precondition failed.

    ``relation`` names the violated clause so callers can report it.
    """

    def __init__(self, message, relation=None):
        super().__init__(message)
        self.relation = relation


class ParseError(ValueError):
    """Syntax error with position and expected-token information."""

    def __init__(self, message, pos, expected=None):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos
        self.expected = expected
