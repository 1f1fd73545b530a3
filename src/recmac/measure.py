"""Exact two-point collision measures for hash families.

measure_axu2 computes

    max over x1 != x2, t  of  Pr_k[h_k(x1) ^ h_k(x2) = t]

and measure_asu2 computes

    max over x1 != x2, t1, t2  of  |T| * Pr_k[h_k(x1) = t1 and h_k(x2) = t2]

by counting keys, as exact rationals, together with a witness attaining the
maximum.  Families with a single message get 0 by convention: there is no
pair to attack.  The one-point tag marginal Pr_k[h_k(x) = t] is measurable
too (tag_marginal) but nothing here requires it to be uniform; two-point
bounds are the security-relevant quantity.

Everything is counted over tag columns, the tags of one message (or one
difference) under every key, with C-level counting (Counter over a map or
zip of two columns) instead of a Python loop over keys.  One rule,
_first_max, picks every maximum and its witness from (rank, pair, values)
candidates: the top count wins, a tie goes to the lower rank (the earlier
candidate on equal ranks), and the smallest value with the top count,
looked for only when the maximum moves, completes the witness.  The pair
scans yield every column pair of the tag table in pair order, and
sample_axu2 its drawn pairs in draw order, all at rank 0, so the witness is
the first maximizing pair in message-pair (or draw) order with its first
tag, or tag pair.  The scans build the table only after their budget check
has admitted the call; it has K * |X| cells, at most twice the
K * |X| * (|X| - 1) / 2 cells the check counts.

For XOR-linear families over a full message space the pair maximum equals
the difference maximum

    max over d != 0, t  of  Pr_k[h_k(d) = t],

because h_k(x1) ^ h_k(x2) = h_k(x1 ^ x2) and every nonzero d is realized by
a pair, the first of them in pair order being (0, d).  That collapses |X|^2
pair work to |X| difference work with no loss of exactness; the tests hold
the shortcut to the naive pair loop.  Only the zero message's column and
the message_bits basis columns h_k(e_b) are evaluated.  The walk starts from
an all-zero column, so it first checks that h_k(0) = 0 under every key, as
linearity forces.  It visits every nonzero d in Gray-code order, so
consecutive differences differ in one bit b and each step is one XOR of the
running column with basis column b: K * (message_bits + 1) tag evaluations
and O(K * message_bits) memory, never the K * |X| table.  Each d has rank
d, so a tie goes to the smallest d, the one the message-order scan reports.

The strong bound never exceeds the XOR bound: keys that agree on both tags,
h_k(x1) = t1 and h_k(x2) = t2, agree on h_k(x1) ^ h_k(x2) = t1 ^ t2, so no
(t1, t2) cell of a pair holds more keys than the pair's top difference cell,
and no pair beats K * eps_axu2.  On two kinds of family a cell meets that
ceiling at a pair known in advance, and measure_asu2 reads it from
measure_axu2's witness (x1, x2, t) instead of scanning the tag table:

  * XOR-linear families over a full message space.  h_k(x0) = 0 under every
    key (the walk checks it), so the cells (0, t) of the pair (x0, x_d)
    hold exactly the keys with h_k(d) = t.  Pairs (x0, x_d) come first in
    pair order, so the first pair to reach the ceiling is (x0, x_d*) with
    tags (0, t*): the axu2 witness.
  * Lifted families g_(k1,k2)(x) = h_k1(x) ^ k2.  Cell (t1, t2) holds one
    key (k1, k2) per k1 with h_k1(x1) ^ h_k1(x2) = t1 ^ t2, k2 being forced
    to h_k1(x1) ^ t1.  So every pair's top cell count is the base's top
    difference count for that pair, the first maximum is the base axu2
    witness's pair with tags (0, t), and the scaled bound |T| * c / (K |T|)
    is eps_axu2 of the base, whatever the base is.

Either way the witness cell is then counted again on the family's own
columns, 2 K tag evaluations, and must hold K * eps_axu2 keys (K of the
base for a lift), or the call raises VerificationFailed: a family flagged
linear whose basis columns do not add up is caught there.  The budget check
counts those cells, the axu2 work plus 2 K, and no tag table is built.

Enumerations refuse to start if they would exceed the cell budget; sampling
is a separate entry point (sample_axu2) that must be requested explicitly,
is held to the same budget, and reports a certified lower bound with its
coverage.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, repeat
from operator import xor

from .errors import (DomainError, Record, VerificationFailed, DEFAULT_BUDGET, check_budget,
                     check_int)
from .families import HashFamily, LiftedFamily


class Measurement(Record):
    __slots__ = ("kind", "epsilon", "witness")
    kind: str            # "axu2" or "asu2"
    epsilon: Fraction
    witness: tuple | None


class SampledMeasurement(Record):
    __slots__ = ("kind", "epsilon_estimate", "interval", "pairs_sampled", "pair_coverage",
                 "seed", "witness")
    kind: str
    epsilon_estimate: Fraction   # certified lower bound: exact for the witness pair
    interval: tuple[float, float]
    pairs_sampled: int
    pair_coverage: Fraction      # sampled pairs / all pairs
    seed: int
    witness: tuple | None


def _column(fam: HashFamily, x) -> list[int]:
    """h_k(x) for every key k, in key order."""
    return list(map(fam._tag, fam.keys(), repeat(x)))


def _difference_column(fam: HashFamily, x1, x2) -> list[int]:
    """h_k(x1) ^ h_k(x2) for every key k, in key order."""
    return list(map(xor, _column(fam, x1), _column(fam, x2)))


def _attack_pair(fam: HashFamily):
    """The canonical pair (x, x_sub): the first two messages."""
    if len(fam.messages) < 2:
        raise DomainError("the attack needs at least two messages")
    return fam.messages[0], fam.messages[1]


def _eliminated(fam: HashFamily) -> list[int]:
    """Per tag i, the number of keys with h_k(x) ^ h_k(x_sub) = i on the canonical pair.

    Guess i of the attack is accepted under exactly these keys, so the first
    n guesses cover sum(_eliminated(fam)[:n]) keys: the attack and the
    composed distance read that share.
    """
    counts = Counter(_difference_column(fam, *_attack_pair(fam)))
    return [counts[t] for t in fam.tags()]


def _first_max(candidates) -> tuple[int, tuple, object]:
    """(top count, pair, value) over (rank, pair, values) candidates: the module's witness rule."""
    best, best_rank = -1, None
    for rank, pair, values in candidates:
        counts = Counter(values)
        c = max(counts.values())
        if c > best or c == best and rank < best_rank:
            best, best_rank, best_pair = c, rank, pair
            value = min(v for v, n in counts.items() if n == c)
    return best, best_pair, value


def _difference_walk(fam: HashFamily):
    """(d, (x0, x_d), h_k(d) for every key) for every nonzero d, in Gray-code order."""
    msgs = fam.messages
    if any(_column(fam, msgs[0])):
        raise VerificationFailed(f"difference walk needs h_k({msgs[0]!r}) = 0 "
                                 f"under every key of {fam.descriptor()}")
    basis = [_column(fam, msgs[1 << b]) for b in range(fam.message_bits)]
    col = [0] * fam.key_count
    for i in range(1, 1 << fam.message_bits):
        col = list(map(xor, col, basis[(i & -i).bit_length() - 1]))
        d = i ^ (i >> 1)
        yield d, (msgs[0], msgs[d]), col


def _table_pairs(fam: HashFamily, values):
    """(0, (x1, x2), values(column x1, column x2)) for every pair of the tag table."""
    msgs = fam.messages
    cols = list(zip(*fam._tag_table()))
    for i, j in combinations(range(len(msgs)), 2):
        yield 0, (msgs[i], msgs[j]), values(cols[i], cols[j])


def _linear_ok(fam: HashFamily) -> bool:
    return fam.xor_linear and len(fam.messages) == (1 << fam.message_bits)


def _axu2_work(fam: HashFamily) -> int:
    nx = len(fam.messages)
    if _linear_ok(fam):
        return fam.key_count * max(nx - 1, 0)
    return fam.key_count * nx * (nx - 1) // 2


def measure_axu2(fam: HashFamily, budget: int = DEFAULT_BUDGET) -> Measurement:
    """Exact two-point XOR-collision bound with witness (x1, x2, t).

    Each call checks the budget and counts afresh; no result is kept on the
    family, only a table scan's tag table.
    """
    if len(fam.messages) < 2:
        return Measurement("axu2", Fraction(0), None)
    check_budget(_axu2_work(fam), budget,
                 f"exact axu2 for {fam.descriptor()} (or sample it with sample_axu2)")
    scan = _difference_walk(fam) if _linear_ok(fam) else _table_pairs(fam, partial(map, xor))
    best, pair, t = _first_max(scan)
    return Measurement("axu2", Fraction(best, fam.key_count), (*pair, t))


def measure_asu2(fam: HashFamily, budget: int = DEFAULT_BUDGET) -> Measurement:
    """Exact two-point strong bound, scaled by |T|, with witness (x1, x2, t1, t2).

    On XOR-linear and lifted families the bound and its witness are read
    from measure_axu2 (of the base, for a lift) and the witness cell is
    counted again on this family's columns, as the module docstring proves;
    the budget check counts that axu2 work plus the recount's 2 K cells.
    Every other family scans the column pairs of its tag table, and the
    check counts the scan's K * |X| * (|X| - 1) / 2 cells.
    """
    msgs = fam.messages
    nx = len(msgs)
    if nx < 2:
        return Measurement("asu2", Fraction(0), None)
    what = f"exact asu2 for {fam.descriptor()}"
    if _linear_ok(fam) or isinstance(fam, LiftedFamily):
        src = fam.base if isinstance(fam, LiftedFamily) else fam
        check_budget(_axu2_work(src) + 2 * fam.key_count, budget, what)
        axu2 = measure_axu2(src, budget)
        x1, x2, t = axu2.witness
        c = list(zip(_column(fam, x1), _column(fam, x2))).count((0, t))
        if c != axu2.epsilon * src.key_count:
            raise VerificationFailed(
                f"asu2 witness cell ({x1!r}, {x2!r}, 0, {t}) of {fam.descriptor()} holds {c} "
                f"keys, not the {axu2.epsilon * src.key_count} of its axu2 witness")
        return Measurement("asu2", Fraction(fam.tag_count * c, fam.key_count), (x1, x2, 0, t))
    check_budget(fam.key_count * nx * (nx - 1) // 2, budget, what)
    best, pair, t = _first_max(_table_pairs(fam, zip))
    return Measurement("asu2", Fraction(fam.tag_count * best, fam.key_count), (*pair, *t))


def tag_marginal(fam: HashFamily, x) -> dict[int, Fraction]:
    """One-point marginal Pr_k[h_k(x) = t] for every tag t."""
    fam.message_index(x)
    counts = Counter(_column(fam, x))
    return {t: Fraction(counts[t], fam.key_count) for t in fam.tags()}


def _three_sigma(p: float, n: int) -> tuple[float, float]:
    """p widened by 3 binomial sigmas of n draws, clipped to [0, 1]."""
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return max(0.0, p - 3 * sigma), min(1.0, p + 3 * sigma)


def sample_axu2(fam: HashFamily, pairs: int = 1000, seed: int = 0,
                budget: int = DEFAULT_BUDGET) -> SampledMeasurement:
    """Randomized lower-bound estimate of the axu2 measure.

    Samples message pairs; for each sampled pair the collision probability is
    computed exactly over the full key space, so the reported maximum is a
    certified lower bound on epsilon and reaches it once the sampled pairs
    happen to include a maximizing one.  The interval widens the point value
    by the binomial 3-sigma width it would carry if the keys had been sampled
    rather than enumerated; it is advisory, the bound itself is exact.
    Each sampled pair costs one cell per key, and the total is held to the
    budget like every exact enumeration.
    """
    check_int(pairs, 1, None, "sampled pairs")
    check_budget(pairs * fam.key_count, budget, f"sampling {pairs} pairs of {fam.descriptor()}")
    if len(fam.messages) < 2:
        return SampledMeasurement("axu2", Fraction(0), (0.0, 0.0), 0, Fraction(1), seed, None)
    rng = random.Random(seed)
    msgs = fam.messages
    nx = len(msgs)
    draws = ((rng.randrange(nx), rng.randrange(nx - 1)) for _ in range(pairs))
    drawn = ((msgs[i], msgs[j + (j >= i)]) for i, j in draws)   # j skips i
    best, pair, t = _first_max((0, p, _difference_column(fam, *p)) for p in drawn)
    est = Fraction(best, fam.key_count)
    total = nx * (nx - 1) // 2
    return SampledMeasurement("axu2", est, _three_sigma(float(est), fam.key_count), pairs,
                              Fraction(min(pairs, total), total), seed, (*pair, t))
