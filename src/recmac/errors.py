"""Shared exception types, the default enumeration budget and its one gate.

Everything in this package that claims exactness gets it by enumerating a
finite space (keys, message pairs, wire messages, the outcome space of a
composed run).  Every entry point that enumerates, samples or simulates
counts its cells from the sizes of its inputs and passes them to
check_budget before it builds anything.  The size caps of the family
constructors and of the field tables are fixed limits, not budgets.
"""

DEFAULT_BUDGET = 2 ** 24


class DomainError(ValueError):
    """A key, message, tag, or descriptor lies outside the declared space."""


class BudgetExceeded(RuntimeError):
    """The requested exact enumeration does not fit the cell budget.

    Raised instead of silently degrading; callers who can live with an
    estimate must request sampling mode explicitly.
    """


def check_budget(work: int, budget: int, what: str) -> None:
    """Refuse `what` unless its `work` cells fit the `budget`."""
    if work > budget:
        raise BudgetExceeded(f"{what} needs {work} cells, budget is {budget}")


class SchemaMismatch(ValueError):
    """Two distributions with different outcome fields were compared."""


class PadExhausted(RuntimeError):
    """A key stream ran out of one-time pads; pads are never reused."""


class VerificationFailed(RuntimeError):
    """An exact result disagrees with its independent re-computation.

    Raised, never asserted, so the check survives `python -O`.
    """
