"""Shared exception types and the default enumeration budget.

Everything in this package that claims exactness gets it by enumerating a
finite space (keys, message pairs, wire messages, the outcome space of a
composed run).  DEFAULT_BUDGET caps how many cells such a space may have
before the exact path refuses and the caller has to ask for sampling
explicitly.
"""

DEFAULT_BUDGET = 2 ** 24


class DomainError(ValueError):
    """A key, message, tag, or descriptor lies outside the declared space."""


class BudgetExceeded(RuntimeError):
    """The requested exact enumeration does not fit the cell budget.

    Raised instead of silently degrading; callers who can live with an
    estimate must request sampling mode explicitly.
    """


class SchemaMismatch(ValueError):
    """Two distributions with different outcome fields were compared."""


class PadExhausted(RuntimeError):
    """A key stream ran out of one-time pads; pads are never reused."""


class VerificationFailed(RuntimeError):
    """An exact result disagrees with its independent re-computation.

    Raised, never asserted, so the check survives `python -O`.
    """
