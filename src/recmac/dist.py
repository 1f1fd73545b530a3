"""Exact finite probability distributions over labeled tuples.

A Dist pairs a tuple of field names with a map from outcome tuples to
Fraction weights.  Weights must be non-negative rationals summing to exactly
1, summed as integers over their least common denominator; construction
raises ValueError otherwise, so every Dist that escapes this module is
normalized, under python -O too.  Comparing distributions with different
field schemas is a bug in the caller, not a distance of 1: it raises.

Distances between a real and an ideal execution are total variation:
half the L1 difference over the union of supports.  Marginalization is an
explicit projection onto a subset of the fields, never implicit.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import SchemaMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def outcome_sort_key(v):
    """Total order over the values outcomes are built from.

    Handles None (rejection), ints, strings, and nested tuples, so mixed
    outcome columns sort deterministically.
    """
    if v is None:
        return (0,)
    if isinstance(v, bool):
        return (1, int(v))
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, tuple):
        return (3, tuple(outcome_sort_key(x) for x in v))
    raise TypeError(f"unorderable outcome component {v!r}")


class Dist:
    """An exact distribution over tuples labeled by `fields`."""

    __slots__ = ("fields", "weights")

    def __init__(self, fields: Iterable[str], weights: Mapping[tuple, Fraction]):
        self.fields = tuple(fields)
        clean: dict[tuple, Fraction] = {}
        numerators: dict[int, int] = defaultdict(int)  # summed per denominator
        for outcome, w in weights.items():
            if not isinstance(outcome, tuple) or len(outcome) != len(self.fields):
                raise ValueError(f"outcome {outcome!r} does not match fields {self.fields}")
            w = w if type(w) is Fraction else Fraction(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight {w} at {outcome!r}")
            if w:
                clean[outcome] = w
                numerators[w.denominator] += w.numerator
        denom = lcm(*numerators)
        total = sum(n * (denom // d) for d, n in numerators.items())
        if total != denom:
            raise ValueError(f"weights sum to {Fraction(total, denom)}, not 1")
        self.weights = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def point(cls, fields: Iterable[str], outcome: tuple) -> "Dist":
        return cls(fields, {outcome: ONE})

    @classmethod
    def uniform(cls, fields: Iterable[str], outcomes: Iterable[tuple]) -> "Dist":
        outcomes = list(outcomes)
        w = Fraction(1, len(outcomes))
        acc: dict[tuple, Fraction] = {}
        for o in outcomes:
            acc[o] = acc.get(o, ZERO) + w
        return cls(fields, acc)

    # -- queries -------------------------------------------------------------

    def p(self, outcome: tuple) -> Fraction:
        return self.weights.get(outcome, ZERO)

    def support(self) -> list[tuple]:
        return sorted(self.weights, key=outcome_sort_key)

    def items(self):
        return self.weights.items()

    def __len__(self) -> int:
        return len(self.weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dist)
            and self.fields == other.fields
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"Dist(fields={self.fields}, support={len(self.weights)})"

    # -- transforms ----------------------------------------------------------

    def project(self, fields: Iterable[str]) -> "Dist":
        """Marginal over a subset of fields, in the order given."""
        fields = tuple(fields)
        try:
            idx = [self.fields.index(f) for f in fields]
        except ValueError as exc:
            raise SchemaMismatch(f"{exc}; have fields {self.fields}") from None
        denom = lcm(*(w.denominator for w in self.weights.values()))
        acc: dict[tuple, int] = defaultdict(int)
        for outcome, w in self.weights.items():
            acc[tuple([outcome[i] for i in idx])] += w.numerator * (denom // w.denominator)
        return Dist(fields, {o: Fraction(c, denom) for o, c in acc.items()})


def statistical_distance(p: Dist, q: Dist) -> Fraction:
    """Total variation distance; requires identical outcome schemas."""
    if p.fields != q.fields:
        raise SchemaMismatch(f"cannot compare fields {p.fields} with {q.fields}")
    total = ZERO
    for outcome in p.weights.keys() | q.weights.keys():
        total += abs(p.p(outcome) - q.p(outcome))
    return total / 2
