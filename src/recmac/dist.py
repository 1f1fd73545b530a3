"""Exact finite probability distributions over labeled tuples.

A Dist pairs a tuple of field names with integer counts over one
denominator, in lowest terms: outcome o has probability counts[o] / denom,
and p, items and weights give it as a Fraction.  The constructor takes
weights (ints or any rationals) over a given denominator, 1 by default, and
raises ValueError unless they are non-negative and sum to exactly that
denominator, so every Dist that escapes this module is normalized, under
python -O too.  Comparing distributions with different field schemas is a
bug in the caller, not a distance of 1: it raises.

Distances between a real and an ideal execution are total variation:
half the L1 difference over the union of supports, summed as integers over
the two denominators' least common multiple.  Marginalization is an
explicit projection onto a subset of the fields, never implicit.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import SchemaMismatch


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

    __slots__ = ("fields", "counts", "denom")

    def __init__(self, fields: Iterable[str], weights: Mapping[tuple, object], denom: int = 1):
        self.fields = tuple(fields)
        if type(denom) is not int or denom < 1:
            raise ValueError(f"denominator {denom!r} is not an int >= 1")
        clean: dict[tuple, object] = {}
        for outcome, w in weights.items():
            if not isinstance(outcome, tuple) or len(outcome) != len(self.fields):
                raise ValueError(f"outcome {outcome!r} does not match fields {self.fields}")
            w = w if type(w) is int else Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight {w} at {outcome!r}")
            if w:
                clean[outcome] = w
        scale = lcm(*{w.denominator for w in clean.values()})
        counts = {o: w.numerator * (scale // w.denominator) for o, w in clean.items()}
        total = sum(counts.values())
        if total != denom * scale:
            raise ValueError(f"weights sum to {Fraction(total, scale)}, not {denom}")
        denom *= scale
        g = gcd(denom, *counts.values())  # lowest terms, so == compares counts
        self.counts = {o: c // g for o, c in counts.items()}
        self.denom = denom // g

    # -- constructors --------------------------------------------------------

    @classmethod
    def point(cls, fields: Iterable[str], outcome: tuple) -> "Dist":
        return cls(fields, {outcome: 1})

    @classmethod
    def uniform(cls, fields: Iterable[str], outcomes: Iterable[tuple]) -> "Dist":
        counts = Counter(outcomes)
        return cls(fields, counts, counts.total())

    # -- queries -------------------------------------------------------------

    @property
    def weights(self) -> dict[tuple, Fraction]:
        return {o: Fraction(c, self.denom) for o, c in self.counts.items()}

    def p(self, outcome: tuple) -> Fraction:
        return Fraction(self.counts.get(outcome, 0), self.denom)

    def support(self) -> list[tuple]:
        return sorted(self.counts, key=outcome_sort_key)

    def items(self):
        return self.weights.items()

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dist) and (self.fields, self.denom, self.counts) == (
            other.fields, other.denom, other.counts)

    def __repr__(self) -> str:
        return f"Dist(fields={self.fields}, support={len(self.counts)})"

    # -- transforms ----------------------------------------------------------

    def project(self, fields: Iterable[str]) -> "Dist":
        """Marginal over a subset of fields, in the order given."""
        fields = tuple(fields)
        try:
            idx = [self.fields.index(f) for f in fields]
        except ValueError as exc:
            raise SchemaMismatch(f"{exc}; have fields {self.fields}") from None
        acc: Counter = Counter()
        for outcome, c in self.counts.items():
            acc[tuple([outcome[i] for i in idx])] += c
        return Dist(fields, acc, self.denom)


def statistical_distance(p: Dist, q: Dist) -> Fraction:
    """Total variation distance; requires identical outcome schemas."""
    if p.fields != q.fields:
        raise SchemaMismatch(f"cannot compare fields {p.fields} with {q.fields}")
    denom = lcm(p.denom, q.denom)
    a, b = denom // p.denom, denom // q.denom
    pc, qc = p.counts, q.counts
    total = sum(abs(pc.get(o, 0) * a - qc.get(o, 0) * b) for o in pc.keys() | qc.keys())
    return Fraction(total, 2 * denom)
