"""Shared exception types, the default enumeration budget and its one gate.

Everything in this package that claims exactness gets it by enumerating a
finite space (keys, message pairs, wire messages, the outcome space of a
composed run).  Every entry point that enumerates, samples or simulates
counts its cells from the sizes of its inputs and passes them to
check_budget before it builds anything.  The size caps of the family
constructors and of the field tables are fixed limits, not budgets.

Every integer argument (a key, tag, pad, message of a range family, field
element or degree, count of rounds, trials, pairs or blocks, out_bits, a
budget) is an `int` that is not a `bool`, and check_int is its one check.
Anything else is a DomainError, even a float equal to an integer.  A
non-family passed where a family is expected is left to Python's own
TypeError or AttributeError.

Record is the one base of the package's frozen value classes (measurements,
reports, ledgers, environment strategies).  It lives here because every
module that defines one already imports this one, and it stands in for
frozen dataclasses, whose module would load inspect, ast, dis and tokenize
and compile source for each class at start-up.
"""

DEFAULT_BUDGET = 2 ** 24


class DomainError(ValueError):
    """A key, message, tag, or descriptor lies outside the declared space."""


class BudgetExceeded(RuntimeError):
    """The requested exact enumeration does not fit the cell budget.

    Raised instead of silently degrading; callers who can live with an
    estimate must request sampling mode explicitly.
    """


def check_int(v, lo: int, hi: int | None, what: str, of=None) -> int:
    """v if it is an int, not a bool, in lo..hi (no upper end if hi is None).

    Else a DomainError naming `what` and the family `of`, built only then.
    """
    if type(v) is int and lo <= v and (hi is None or v <= hi):
        return v
    name = what if of is None else f"{what} of {of.descriptor()}"
    span = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
    raise DomainError(f"{name} must be {span}; {v!r} is out of range")


def check_budget(work: int, budget: int, what: str) -> None:
    """Refuse `what` unless its `work` cells fit the `budget`, itself checked first."""
    if work > check_int(budget, 0, None, "budget"):
        raise BudgetExceeded(f"{what} needs {work} cells, budget is {budget}")


class SchemaMismatch(ValueError):
    """Two distributions with different outcome fields were compared."""


class PadExhausted(RuntimeError):
    """A key stream ran out of one-time pads; pads are never reused."""


class VerificationFailed(RuntimeError):
    """An exact result disagrees with its independent re-computation.

    Raised, never asserted, so the check survives `python -O`.
    """


class Record:
    """A frozen value with named fields: the base of every value class here.

    A subclass lists its fields in `__slots__`, in order, and may give
    `_defaults` by field name (a type there is called, so each instance
    gets a fresh value) and a `_check` hook that validates a new instance.
    Instances are equal only within one class, hash as the tuple of their
    fields, print as `Name(field=value, ...)`, and cannot be changed.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__qualname__} got an unknown or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__qualname__} is missing field {name!r}")
                default = cls._defaults[name]
                values[name] = default() if isinstance(default, type) else default
            object.__setattr__(self, name, values[name])
        self._check()

    def _check(self) -> None:
        """Validate a new instance; the base accepts every one."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values()
