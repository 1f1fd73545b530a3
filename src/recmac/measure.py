"""Exact two-point collision measures for hash families.

measure_axu2 computes

    max over x1 != x2, t  of  Pr_k[h_k(x1) ^ h_k(x2) = t]

and measure_asu2 computes

    max over x1 != x2, t1, t2  of  |T| * Pr_k[h_k(x1) = t1 and h_k(x2) = t2]

by counting keys, as exact rationals, together with a witness attaining the
maximum: the first maximizing pair in message-pair order, and within it the
first tag (or tag pair) in tag order.  Families with a single message get 0
by convention: there is no pair to attack.  The one-point tag marginal
Pr_k[h_k(x) = t] is measurable too (tag_marginal) but nothing here requires
it to be uniform; two-point bounds are the security-relevant quantity.

Everything is counted over tag columns, the tags of one message (or one
difference) under every key, with C-level counting (Counter over a map or
zip of two columns) instead of a Python loop over keys.  The pair scans
read their columns from the family's tag table, which they build only after
their own budget check has admitted the call; the table has K * |X| cells,
at most twice the K * |X| * (|X| - 1) / 2 cells the check counts.

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
and O(K * message_bits) memory, never the K * |X| table.  The Gray order is
not message order, so among differences with equal counts the walk keeps
the smallest d, which is the one the message-order scan would report.

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
from itertools import repeat
from operator import xor

from .errors import DomainError, Record, VerificationFailed, DEFAULT_BUDGET, check_budget
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
    n guesses cover sum(_eliminated(fam)[:n]) keys: the attack, its Monte
    Carlo's expected rate and the composed distance all read that share.
    """
    counts = Counter(_difference_column(fam, *_attack_pair(fam)))
    return [counts[t] for t in fam.tags()]


def _tally(values, beat: int = -1) -> tuple[int, object, Counter]:
    """Count the values: the top count, the smallest value with it, the counts.

    The smallest value is looked for only when the top count exceeds `beat`
    and is None otherwise, so a scan that keeps the first maximum pays for
    it only when the maximum moves.
    """
    counts = Counter(values)
    best = max(counts.values())
    if best <= beat:
        return best, None, counts
    return best, min(v for v, c in counts.items() if c == best), counts


def _linear_ok(fam: HashFamily) -> bool:
    return fam.xor_linear and len(fam.messages) == (1 << fam.message_bits)


def _axu2_work(fam: HashFamily) -> int:
    nx = len(fam.messages)
    if _linear_ok(fam):
        return fam.key_count * max(nx - 1, 0)
    return fam.key_count * nx * (nx - 1) // 2


def measure_axu2(fam: HashFamily, budget: int = DEFAULT_BUDGET) -> Measurement:
    """Exact two-point XOR-collision bound with witness (x1, x2, t).

    The result is computed once per family instance and cached on it, next
    to its tag table.  The budget check runs on every call before the cache
    is read, so whether a call refuses never depends on earlier calls.
    """
    if len(fam.messages) < 2:
        return Measurement("axu2", Fraction(0), None)
    check_budget(_axu2_work(fam), budget,
                 f"exact axu2 for {fam.descriptor()} (or sample it with sample_axu2)")
    if fam._axu2 is None:
        fam._axu2 = _axu2(fam)
    return fam._axu2


def _axu2(fam: HashFamily) -> Measurement:
    msgs = fam.messages
    if _linear_ok(fam):
        bits = fam.message_bits
        if any(_column(fam, msgs[0])):
            raise VerificationFailed(f"difference walk needs h_k({msgs[0]!r}) = 0 "
                                     f"under every key of {fam.descriptor()}")
        basis = [_column(fam, msgs[1 << b]) for b in range(bits)]
        col = [0] * fam.key_count
        best, best_d = -1, 1 << bits
        for i in range(1, 1 << bits):
            col = list(map(xor, col, basis[(i & -i).bit_length() - 1]))
            d = i ^ (i >> 1)
            # the top tag is looked for only if d can be the witness: a smaller d
            # wins a tie, a larger one must beat the best count
            c, t, _ = _tally(col, best - (d < best_d))
            if t is not None:
                best, best_d, best_t = c, d, t
        witness = (msgs[0], msgs[best_d], best_t)
    else:
        cols = list(zip(*fam._tag_table()))
        best = -1
        for i, x1 in enumerate(msgs):
            for j in range(i + 1, len(msgs)):
                c, t, _ = _tally(map(xor, cols[i], cols[j]), best)
                if t is not None:
                    best, witness = c, (x1, msgs[j], t)
    return Measurement("axu2", Fraction(best, fam.key_count), witness)


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
    cols = list(zip(*fam._tag_table()))
    best = -1
    for i, x1 in enumerate(msgs):
        for j in range(i + 1, nx):
            c, t, _ = _tally(zip(cols[i], cols[j]), best)
            if t is not None:
                best, witness = c, (x1, msgs[j], *t)
    return Measurement("asu2", Fraction(fam.tag_count * best, fam.key_count), witness)


def tag_marginal(fam: HashFamily, x) -> dict[int, Fraction]:
    """One-point marginal Pr_k[h_k(x) = t] for every tag t."""
    fam.message_index(x)
    counts = _tally(_column(fam, x))[2]
    return {t: Fraction(counts[t], fam.key_count) for t in fam.tags()}


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
    if pairs < 1:
        raise DomainError(f"need at least one sampled pair, got {pairs}")
    check_budget(pairs * fam.key_count, budget, f"sampling {pairs} pairs of {fam.descriptor()}")
    if len(fam.messages) < 2:
        return SampledMeasurement("axu2", Fraction(0), (0.0, 0.0), 0, Fraction(1), seed, None)
    rng = random.Random(seed)
    msgs = list(fam.messages)
    nx = len(msgs)
    total_pairs = nx * (nx - 1) // 2
    best = -1
    witness = None
    for _ in range(pairs):
        i = rng.randrange(nx)
        j = rng.randrange(nx - 1)
        if j >= i:
            j += 1
        x1, x2 = msgs[i], msgs[j]
        c, t, _ = _tally(_difference_column(fam, x1, x2), best)
        if t is not None:
            best, witness = c, (x1, x2, t)
    est = Fraction(best, fam.key_count)
    p = float(est)
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / fam.key_count)
    interval = (max(0.0, p - 3 * sigma), min(1.0, p + 3 * sigma))
    coverage = Fraction(min(pairs, total_pairs), total_pairs)
    return SampledMeasurement("axu2", est, interval, pairs, coverage, seed, witness)
