"""The optimal key-extraction attack against tag-masked authentication.

The attacker fixes two messages x != x_sub, asks for x every round, and
replaces the observed (x, t) with (x_sub, t ^ c_i), where c_i runs through
the tag space in a fixed order.  The forgery is accepted in round i exactly
when c_i equals the key's hash difference c(k1) = h_{k1}(x) ^ h_{k1}(x_sub);
a rejection eliminates one candidate for good.  The one-time pads cancel out
of every acceptance event, so the exact engine enumerates k1 only and
integrates the pads away analytically: it reads measure._eliminated, the
number of keys at each value of c(k1), and builds every round's report in
one pass over those counts.  The Monte Carlo engine samples k1 instead:
a trial hits iff c(k1) is below the number of rounds, read from one column
of |K| flags built once from measure._difference_column, and the expected
rate is the share of flags set.  It still draws every pad, as
sample_transcript does, bit for bit as randrange would, straight from the
generator's 32-bit words, and reads none of them; when |K| is a power of
two up to 2^28 (|T| = 2^tag_bits always is one) the words come in bulk
from getrandbits and k1 is every (rounds + 1)-th kept word.
sample_transcript is the explicit-pad play: it calls randrange and runs
every round through authenticate and verify, and the tests hold the two to
the same hit count on every seed; it alone imports protocol.

For a family whose two-point XOR bound is exactly 1/|T| the difference
c(k1) is uniform over the tag space, which pins everything down:

    success within L rounds     = L / |T|
    round i success given prior failures = 1 / (|T| - i + 1)
    H(K1 | transcript after L)  = (L/|T|) log2(|K|/|T|)
                                  + (1 - L/|T|) log2((|K|/|T|)(|T| - L))

k1 fixes its acceptance pattern, so the entropy is computed as
log2|K| - H(pattern) from the actual class sizes and compared with that
closed form *exactly*: values are kept as q0 + sum q_p log2(p) over odd
primes, where unique factorization makes the representation canonical, so
structural equality is value equality.

Only the acceptance bits leak: conditioned on the tagged messages alone the
posterior of k1 is exactly uniform (the pads are a perfect mask), which the
tests check by brute-force enumeration over all pad vectors.
"""

from __future__ import annotations

import math
import random
import struct
from collections import Counter
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DomainError, Record, DEFAULT_BUDGET, check_budget
from .families import HashFamily
from .measure import _attack_pair, _difference_column, _eliminated, _three_sigma, measure_axu2


def _factor(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class ExactEntropy(Record):
    """A value q0 + sum q_p * log2(p) over odd primes p, exactly.

    log2 of any positive rational lands in this set, and by unique
    factorization the representation is unique, so equality of the two
    fields is equality of real numbers.  Only bits (base-2 logs) appear
    here.  ExactEntropy() is zero.
    """

    __slots__ = ("rational", "terms")
    _defaults = {"rational": Fraction(0), "terms": ()}
    rational: Fraction
    terms: tuple[tuple[int, Fraction], ...]

    @classmethod
    def _make(cls, rational: Fraction, coeffs: dict[int, Fraction]) -> "ExactEntropy":
        terms = tuple(sorted((p, c) for p, c in coeffs.items() if c != 0))
        return cls(Fraction(rational), terms)

    @classmethod
    def log2(cls, q) -> "ExactEntropy":
        q = Fraction(q)
        if q <= 0:
            raise ValueError(f"log2 of non-positive value {q}")
        rational = Fraction(0)
        coeffs: dict[int, Fraction] = {}
        for n, sign in ((q.numerator, 1), (q.denominator, -1)):
            for p, e in _factor(n).items():
                if p == 2:
                    rational += sign * e
                else:
                    coeffs[p] = coeffs.get(p, Fraction(0)) + sign * e
        return cls._make(rational, coeffs)

    def __add__(self, other: "ExactEntropy") -> "ExactEntropy":
        coeffs = dict(self.terms)
        for p, c in other.terms:
            coeffs[p] = coeffs.get(p, Fraction(0)) + c
        return self._make(self.rational + other.rational, coeffs)

    def scaled(self, by) -> "ExactEntropy":
        by = Fraction(by)
        return self._make(self.rational * by, {p: c * by for p, c in self.terms})

    def __float__(self) -> float:
        return float(self.rational) + sum(float(c) * math.log2(p) for p, c in self.terms)


def entropy_of(probs: list[Fraction]) -> ExactEntropy:
    """Shannon entropy in bits of an explicit distribution, exactly.

    Equal masses are summed once, as count * p * log2(1/p); the
    representation is canonical, so this is the per-term sum.
    """
    if any(p < 0 for p in probs):
        raise ValueError("negative probability")
    total = ExactEntropy()
    for p, c in Counter(p for p in probs if p != 0).items():
        total = total + ExactEntropy.log2(1 / p).scaled(Fraction(p) * c)
    return total


class RoundRecord(NamedTuple):
    x: object
    t: int
    x_sub: object
    t_sub: int
    accepted: bool


class AttackReport(Record):
    __slots__ = ("rounds", "x", "x_sub", "success_prob", "success_formula",
                 "per_round_conditional", "entropy_bits", "entropy_formula_bits")
    rounds: int
    x: object
    x_sub: object
    success_prob: Fraction
    success_formula: Fraction
    per_round_conditional: tuple[Fraction, ...]
    entropy_bits: ExactEntropy
    entropy_formula_bits: ExactEntropy


class MonteCarloReport(Record):
    __slots__ = ("rounds", "trials", "hits", "rate", "expected", "interval", "within_3sigma",
                 "seed")
    rounds: int
    trials: int
    hits: int
    rate: Fraction
    expected: Fraction
    interval: tuple[float, float]   # rate +- 3 sigma-hat
    within_3sigma: bool             # of the expected value, theory sigma
    seed: int


def _check_rounds(fam: HashFamily, rounds: int, least: int = 1) -> None:
    if not least <= rounds <= fam.tag_count:
        raise DomainError(f"rounds must be in {least}..{fam.tag_count}")


def _difference_counts(fam: HashFamily, budget: int) -> list[int]:
    """_eliminated(fam), for families whose two-point bound is 1/|T| only.

    The per-round analysis rests on the difference being uniform.
    """
    eps = measure_axu2(fam, budget=budget).epsilon
    want = Fraction(1, fam.tag_count)
    if eps != want:
        raise DomainError(
            f"{fam.descriptor()} has two-point bound {eps}, not 1/|T| = {want}; "
            "the per-round elimination analysis does not apply"
        )
    return _eliminated(fam)


def _reports(fam: HashFamily, counts: list[int], last: int,
             first: int = 0) -> Iterator[AttackReport]:
    """The reports after rounds first..last, from one pass over the counts.

    The pass keeps the keys covered (so the keys left, the next conditional's
    denominator) and the entropy of the classes settled so far, one entropy_of
    term a round.  k1 fixes its transcript class, so H(K1 | transcript) is
    log2|K| less that sum and the all-reject remainder's term.  Rounds before
    `first` build no report.
    """
    x, x_sub = _attack_pair(fam)
    nk, tc = fam.key_count, fam.tag_count
    log_nk, log_kt = ExactEntropy.log2(nk), ExactEntropy.log2(Fraction(nk, tc))
    covered, conditionals, settled = 0, [], ExactEntropy()
    for rounds in range(last + 1):
        if rounds:
            c = counts[rounds - 1]
            conditionals.append(Fraction(c, nk - covered))
            covered += c
            settled = settled + entropy_of([Fraction(c, nk)])
        if rounds < first:
            continue
        computed = log_nk + (settled + entropy_of([Fraction(nk - covered, nk)])).scaled(-1)
        formula = log_kt
        if rounds < tc:
            formula = formula + ExactEntropy.log2(tc - rounds).scaled(1 - Fraction(rounds, tc))
        yield AttackReport(rounds, x, x_sub, Fraction(covered, nk), Fraction(rounds, tc),
                           tuple(conditionals), computed, formula)


def run_attack_exact(fam: HashFamily, rounds: int,
                     budget: int = DEFAULT_BUDGET) -> AttackReport:
    """Exact success and leakage accounting; pads integrated out."""
    _check_rounds(fam, rounds)
    return next(_reports(fam, _difference_counts(fam, budget), rounds, rounds))


def _attack_reports(fam: HashFamily, max_rounds: int, budget: int,
                    first: int = 1) -> list[AttackReport]:
    """run_attack_exact for rounds first..max_rounds, from one pass.

    Row R holds R conditionals; the budget counts the rows' R(R+1)/2 first.
    """
    _check_rounds(fam, max_rounds)
    check_budget(max_rounds * (max_rounds + 1) // 2, budget,
                 f"exact attack rows for {fam.descriptor()}")
    return list(_reports(fam, _difference_counts(fam, budget), max_rounds, first))


def posterior_entropy(fam: HashFamily, rounds: int,
                      budget: int = DEFAULT_BUDGET) -> tuple[ExactEntropy, ExactEntropy]:
    """H(K1 | transcript) after `rounds` rounds: computed and closed form.

    Transcript classes: success in round j pins the difference to the j-th
    guess; total failure leaves the complement.  Within a class the posterior
    is uniform (the likelihood depends on k1 only through its difference
    value), and the pads add no information, so classes by acceptance
    pattern are exhaustive.  The computed value uses the actual posterior
    probabilities; the formula is exactly the two-branch closed form.
    """
    _check_rounds(fam, rounds, least=0)
    report = next(_reports(fam, _difference_counts(fam, budget), rounds, rounds))
    return report.entropy_bits, report.entropy_formula_bits


def success_recurrence(fam: HashFamily, l_max: int,
                       budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """Measured P(success in round L+1 | failure through round L), L=0..l_max.

    Requires l_max <= |T| - 1 so the conditioning event has positive
    probability throughout.
    """
    if not 0 <= l_max <= fam.tag_count - 1:
        raise DomainError(f"l_max must be in 0..{fam.tag_count - 1}")
    report = next(_reports(fam, _difference_counts(fam, budget), l_max + 1, l_max + 1))
    return list(report.per_round_conditional)


def sample_transcript(fam: HashFamily, rounds: int,
                      rng: random.Random) -> tuple[RoundRecord, ...]:
    """The rounds of one simulated run with real verify calls; round i substitutes guess i."""
    from .protocol import KeyStream, TaggedMessage, authenticate, verify

    x, x_sub = _attack_pair(fam)
    k1 = rng.randrange(fam.key_count)
    pads = tuple(rng.randrange(fam.tag_count) for _ in range(rounds))
    ks = KeyStream(k1, pads, fam)
    recs = []
    for i in range(rounds):
        key = ks.next_key()
        ym = authenticate(fam, key, x)
        forged = TaggedMessage(x_sub, ym.t ^ i)
        accepted = verify(fam, key, forged) is not None
        recs.append(RoundRecord(x, ym.t, x_sub, forged.t, accepted))
        if accepted:
            break
    return tuple(recs)


# The bulk path of run_attack_montecarlo; see its docstring.
_CHUNK_WORDS = 1 << 13       # Mersenne Twister words per getrandbits call
_BULK_COUNT_LIMIT = 1 << 28  # four 7-bit columns hold the value of any draw below it
_REJECTED = bytes(range(128, 256))   # bytes whose top bit is set


def _bulk_k1s(getrandbits, kbits: int, span: int, trials: int) -> Iterator[int]:
    """Each trial's k1 = randrange(2^kbits), when every draw is one 32-bit word.

    randrange(2^b) takes one word w, keeps it iff its top bit is clear and
    returns bits 30..31-b of it; getrandbits(32 W) is W words, least
    significant first.  So a trial is `span` kept words, k1 first.  Column c
    holds bits 30-7c..24-7c of each word in a byte whose top bit is the
    word's, and one translate drops the rejected words from every column
    alike; only the key's columns are kept.
    """
    used = max(1, -(-kbits // 7))
    widths = [7] * (used - 1) + [kbits - 7 * (used - 1)]
    drop = bytes(v >> 7 - widths[-1] for v in range(256))
    ones = int.from_bytes(b"\1\0\0\0" * _CHUNK_WORDS, "little")
    top, flags = ones * 0xFF000000, ones << 31   # column 0 is the word's top byte as it is
    masks = [ones * (0x7F << 24 - 8 * c) for c in range(1, used)]
    skip = 0   # kept words before the next k1
    while trials:
        word = getrandbits(32 * _CHUNK_WORDS)
        packed, flag = word & top, word & flags
        for c, mask in enumerate(masks, 1):
            packed |= word >> c & mask | flag >> 8 * c
        raw = packed.to_bytes(4 * _CHUNK_WORDS, "little")
        kept = [raw[3 - c::4].translate(None, _REJECTED) for c in range(used)]
        picked = [column[skip::span][:trials] for column in kept]
        picked[-1] = picked[-1].translate(drop)
        n = len(picked[0])
        skip += n * span - len(kept[0])
        k1s = 0
        for width, column in zip(widths, picked):
            spread = bytearray(4 * n)
            spread[::4] = column
            k1s = k1s << width | int.from_bytes(spread, "little")
        yield from struct.unpack(f"<{n}I", k1s.to_bytes(4 * n, "little"))
        trials -= n


def _drawn_k1s(getrandbits, kc: int, tc: int, rounds: int, trials: int) -> Iterator[int]:
    """Each trial's k1 = randrange(kc), one getrandbits call a draw."""
    kbits, tbits = kc.bit_length(), tc.bit_length()
    for _ in range(trials):
        # randrange(n) is Random._randbelow_with_getrandbits(n): redraw while >= n
        k1 = getrandbits(kbits)
        while k1 >= kc:
            k1 = getrandbits(kbits)
        yield k1
        for _ in range(rounds):   # the pads, drawn and dropped
            while getrandbits(tbits) >= tc:
                pass


def run_attack_montecarlo(fam: HashFamily, rounds: int, trials: int,
                          seed: int = 0, budget: int = DEFAULT_BUDGET) -> MonteCarloReport:
    """Simulate the attack with pseudorandom keys and pads.

    A cross-check of the exact engine on sampled keys.  Round i sends
    t = h_{k1}(x) ^ pad, and the forgery (x_sub, t ^ i) is accepted iff
    h_{k1}(x_sub) ^ pad == t ^ i: the pad cancels, so a trial hits iff
    c(k1) = h_{k1}(x) ^ h_{k1}(x_sub) is below `rounds`.  Each trial draws k1
    and then all of its pads, one per round, as sample_transcript does, bit
    for bit as random.Random.randrange draws them, so a seed gives the hits
    of that many sample_transcript runs on random.Random(seed); the pads are
    drawn only to keep that stream, and only k1 is read, as an index into
    one column of flags c(k1) < rounds over all |K| keys.  sample_transcript
    plays the pads through authenticate and verify.

    randrange(n) is getrandbits(n.bit_length()) redrawn while >= n, and
    getrandbits(k <= 32) is the top k bits of one 32-bit word.  So for
    n = 2^b a draw is one word, kept iff its top bit is clear, with value
    bits 30..31-b.  |T| = 2^tag_bits is always such an n, since FieldCtx caps
    tag_bits at 16, so only |K| picks the engine.  When |K| is a power of two
    up to 2^28 the trials take words 2^13 at a time from one getrandbits call
    and k1 is every (rounds + 1)-th kept word.  Other families, with |K| not
    a power of two or above 2^28, make one getrandbits call a draw.

    Each round of each trial is a cell of the budget, and the column's |K|
    flags are the cells of a second check.  Apart from a chunk of words of
    fixed size, that column is all the memory.  The expected rate is the
    share of its flags set: the keys the first `rounds` guesses cover.
    """
    _check_rounds(fam, rounds)
    if trials < 1:
        raise DomainError("need at least one trial")
    check_budget(trials * rounds, budget, "Monte Carlo attack")
    check_budget(fam.key_count, budget, "exact expected rate of the Monte Carlo attack")
    getrandbits = random.Random(seed).getrandbits
    kc = fam.key_count
    if kc & kc - 1 == 0 and kc <= _BULK_COUNT_LIMIT:
        k1s = _bulk_k1s(getrandbits, kc.bit_length() - 1, rounds + 1, trials)
    else:
        k1s = _drawn_k1s(getrandbits, kc, fam.tag_count, rounds, trials)
    hit = [c < rounds for c in _difference_column(fam, *_attack_pair(fam))]
    hits = sum(map(hit.__getitem__, k1s))
    rate = Fraction(hits, trials)
    expected = Fraction(sum(hit), kc)
    p = float(rate)
    pe = float(expected)
    sig = math.sqrt(pe * (1 - pe) / trials)
    return MonteCarloReport(
        rounds=rounds,
        trials=trials,
        hits=hits,
        rate=rate,
        expected=expected,
        interval=_three_sigma(p, trials),
        within_3sigma=abs(p - pe) <= 3 * sig,
        seed=seed,
    )
