"""Shared exception types."""


class CtseqError(Exception):
    """Base class for errors raised by this package."""


class RingMismatchError(CtseqError, ValueError):
    """Operands disagree on variable count or coefficient ring."""


class ParseError(CtseqError, ValueError):
    """Rejected polynomial expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class ResourceLimitError(CtseqError, RuntimeError):
    """A configured guard (term count, window size, state cap) was exceeded.

    ``states`` is the number of states interned when a state cap
    tripped, and None for every other guard.
    """

    def __init__(self, message, states=None):
        super().__init__(message)
        self.states = states
