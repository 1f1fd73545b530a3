"""The optimal key-extraction attack against tag-masked authentication.

The attacker fixes two messages x != x_sub, asks for x every round, and
replaces the observed (x, t) with (x_sub, t ^ c_i), where c_i runs through
the tag space in a fixed order.  The forgery is accepted in round i exactly
when c_i equals the key's hash difference c(k1) = h_{k1}(x) ^ h_{k1}(x_sub);
a rejection eliminates one candidate for good.  The one-time pads cancel out
of every acceptance event, so the exact engine enumerates k1 only and
integrates the pads away analytically: it reads measure._eliminated, the
number of keys at each value of c(k1), and builds every round's report in
one pass over those counts.  The Monte Carlo engine keeps the pads
explicit: per trial it draws k1 and one pad per round, and plays the rounds
on the masked tags; h_{k1} is evaluated on x and x_sub once per distinct key
drawn, and the expected rate is the exact share from the same count.  It
draws what sample_transcript draws, bit for bit as randrange would, straight
from the generator's 32-bit words.  When |K| and |T| are powers of two up to
2^28 every draw is one word, kept iff its top bit is clear: the words come
in bulk from getrandbits, the rejected ones drop out of byte columns, and
each (trial, round) is checked on packed integer lanes.  Other families take
one getrandbits call a draw.  sample_transcript itself calls randrange and
runs every round through authenticate and verify, and the tests hold the
two to the same hit count on every seed; it alone imports protocol.

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
from .measure import _attack_pair, _eliminated, _three_sigma, measure_axu2


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


class Transcript(Record):
    __slots__ = ("rounds", "guesses")
    rounds: tuple[RoundRecord, ...]
    guesses: tuple[int, ...]   # tag-difference candidates tried, in order

    def validate(self) -> None:
        if len(set(self.guesses)) != len(self.guesses):
            raise ValueError("eliminated guesses must be pairwise distinct")
        accepts = [i for i, r in enumerate(self.rounds) if r.accepted]
        if len(accepts) > 1:
            raise ValueError("a transcript accepts at most once")
        if accepts and accepts[0] != len(self.rounds) - 1:
            raise ValueError("the attack stops substituting after a success")


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


def sample_transcript(fam: HashFamily, rounds: int, rng: random.Random) -> Transcript:
    """One honestly simulated attack run: fresh pads, real verify calls."""
    from .protocol import KeyStream, TaggedMessage, authenticate, verify

    x, x_sub = _attack_pair(fam)
    k1 = rng.randrange(fam.key_count)
    pads = tuple(rng.randrange(fam.tag_count) for _ in range(rounds))
    ks = KeyStream(k1, pads, fam.tag_bits)
    recs = []
    guesses = []
    for i in range(rounds):
        key = ks.next_key()
        ym = authenticate(fam, key, x)
        forged = TaggedMessage(x_sub, ym.t ^ i)
        accepted = verify(fam, key, forged) is not None
        recs.append(RoundRecord(x, ym.t, x_sub, forged.t, accepted))
        guesses.append(i)
        if accepted:
            break
    return Transcript(tuple(recs), tuple(guesses))


# The lane engine of run_attack_montecarlo; see its docstring.
_CHUNK_WORDS = 1 << 13       # Mersenne Twister words per getrandbits call
_WINDOW_LANES = 1 << 15      # (trial, round) lanes checked per pass
_LANE_COUNT_LIMIT = 1 << 28  # four 7-bit columns hold the value of any draw below it
_REJECTED = bytes(range(128, 256))                             # bytes whose top bit is set
_DROP = [bytes(v >> d for v in range(256)) for d in range(7)]  # byte -> byte >> d


class _Draws:
    """The stream of randrange(2^b) draws of one generator, in 7-bit columns.

    randrange(2^b) takes one 32-bit word w, keeps it iff its top bit is clear
    and returns bits 30..31-b of it; getrandbits(32 W) is W words, least
    significant first.  So every power-of-two draw, whatever its b, keeps the
    same words.  Column c holds bits 30-7c..24-7c of each kept word: a chunk's
    column bytes carry the word's top bit as their own, and one translate
    drops the rejected words from every column alike.
    """

    def __init__(self, getrandbits, columns: int):
        self.getrandbits = getrandbits
        self.columns = [bytearray() for _ in range(columns)]
        ones = int.from_bytes(b"\1\0\0\0" * _CHUNK_WORDS, "little")
        self.top = ones * 0xFF000000      # column 0 is the word's top byte as it is
        self.flags = ones << 31
        self.masks = [ones * (0x7F << 24 - 8 * c) for c in range(1, columns)]

    def take(self, n: int) -> list[bytearray]:
        """The next n kept words, one byte string per column."""
        while len(self.columns[0]) < n:
            word = self.getrandbits(32 * _CHUNK_WORDS)
            packed, flags = word & self.top, word & self.flags
            for c, mask in enumerate(self.masks, 1):
                packed |= word >> c & mask | flags >> 8 * c
            raw = packed.to_bytes(4 * _CHUNK_WORDS, "little")
            for c, column in enumerate(self.columns):
                column += raw[3 - c::4].translate(None, _REJECTED)
        out = [column[:n] for column in self.columns]
        for column in self.columns:
            del column[:n]
        return out


def _lanes(columns: list[bytes], bits: int, size: int) -> int:
    """Each draw of `columns` read as a b-bit draw, one `size`-byte lane each."""
    used = -(-bits // 7)
    lanes = 0
    for c, column in enumerate(columns[:used]):
        width = 7 if c < used - 1 else bits - 7 * c
        spread = bytearray(size * len(column))
        spread[::size] = column.translate(_DROP[7 - width]) if width < 7 else column
        lanes = lanes << width | int.from_bytes(spread, "little")
    return lanes


def _accepted(pad: int, hx: bytes, hs: bytes, index: int, size: int) -> int:
    """The forgeries accepted over one window of `size`-byte lanes, a lane a (trial, round).

    Lane by lane, the round sends t = h_{k1}(x) ^ pad for x and the forgery
    (x_sub, t ^ i) is accepted iff h_{k1}(x_sub) ^ pad == t ^ i, that is iff
    the lane of the difference is zero; folding a lane's bytes onto its
    first byte lets bytes.count find those lanes.
    """
    t = int.from_bytes(hx, "little") ^ pad
    forged = t ^ index
    difference = int.from_bytes(hs, "little") ^ pad ^ forged
    folded = difference
    for k in range(1, size):
        folded |= difference >> 8 * k
    return folded.to_bytes(len(hx), "little")[::size].count(0)


def _lane_hits(fam: HashFamily, rounds: int, trials: int, getrandbits) -> int:
    """run_attack_montecarlo's hits for |K| and |T| powers of two up to 2^28.

    A trial is rounds + 1 kept words: k1, then a pad a round.  While a window
    holds at least as many trials as a trial has words, it takes whole trials
    and its lanes run round by round, each round over the window's trials;
    a longer trial takes windows of its own, its rounds in order.
    """
    x, x_sub = _attack_pair(fam)
    kbits, tbits = fam.key_count.bit_length() - 1, fam.tag_count.bit_length() - 1
    size = 1 if tbits <= 8 else 2 if tbits <= 16 else 4
    code = {1: "B", 2: "H", 4: "I"}[size]
    draws = _Draws(getrandbits, max(1, -(-kbits // 7), -(-tbits // 7)))
    hx_of: dict[int, bytes] = {}
    hs_of: dict[int, bytes] = {}

    def hash_lanes(keys: list[bytes]) -> tuple[bytes, bytes]:
        """h_{k1}(x) and h_{k1}(x_sub), a lane per k1 drawn in `keys`."""
        n = len(keys[0])
        k1s = struct.unpack(f"<{n}I", _lanes(keys, kbits, 4).to_bytes(4 * n, "little"))
        for k1 in set(k1s).difference(hx_of):
            hx_of[k1] = fam.tag(k1, x).to_bytes(size, "little")
            hs_of[k1] = fam.tag(k1, x_sub).to_bytes(size, "little")
        return b"".join(map(hx_of.__getitem__, k1s)), b"".join(map(hs_of.__getitem__, k1s))

    span, hits = rounds + 1, 0
    per = _WINDOW_LANES // span
    if per >= span:
        indexed = None
        for done in range(0, trials, per):
            n = min(per, trials - done)
            columns = draws.take(n * span)
            hx, hs = hash_lanes([column[::span] for column in columns])
            pads = [b"".join([column[r::span] for r in range(1, span)]) for column in columns]
            if indexed != n:
                indexed = n
                index = int.from_bytes(b"".join([r.to_bytes(size, "little") * n
                                                 for r in range(rounds)]), "little")
            hits += _accepted(_lanes(pads, tbits, size), hx * rounds, hs * rounds, index, size)
        return hits
    for _ in range(trials):
        hx, hs = hash_lanes(draws.take(1))
        for first in range(0, rounds, _WINDOW_LANES):
            n = min(_WINDOW_LANES, rounds - first)
            index = int.from_bytes(struct.pack(f"<{n}{code}", *range(first, first + n)), "little")
            hits += _accepted(_lanes(draws.take(n), tbits, size), hx * n, hs * n, index, size)
    return hits


def _draw_hits(fam: HashFamily, rounds: int, trials: int, getrandbits) -> int:
    """run_attack_montecarlo's hits, one getrandbits call per draw."""
    x, x_sub = _attack_pair(fam)
    kc, tc = fam.key_count, fam.tag_count
    kbits, tbits = kc.bit_length(), tc.bit_length()
    hashes: dict[int, tuple[int, int]] = {}
    hits = 0
    for _ in range(trials):
        # randrange(n) is Random._randbelow_with_getrandbits(n): redraw while >= n
        k1 = getrandbits(kbits)
        while k1 >= kc:
            k1 = getrandbits(kbits)
        if k1 not in hashes:
            hashes[k1] = fam.tag(k1, x), fam.tag(k1, x_sub)
        hx, hs = hashes[k1]
        # every pad is drawn, after a hit too: sample_transcript draws them up front
        hit = False
        for i in range(rounds):
            pad = getrandbits(tbits)
            while pad >= tc:
                pad = getrandbits(tbits)
            t = hx ^ pad
            if not hit and hs ^ pad == t ^ i:
                hit = True
        hits += hit
    return hits


def run_attack_montecarlo(fam: HashFamily, rounds: int, trials: int,
                          seed: int = 0, budget: int = DEFAULT_BUDGET) -> MonteCarloReport:
    """Simulate the attack with pseudorandom keys and pads.

    A cross-check of the exact engine that keeps the pads explicit.  Each
    trial draws k1 and then all of its pads, one per round, as
    sample_transcript does, bit for bit as random.Random.randrange draws
    them, so a seed gives the hits of that many sample_transcript runs on
    random.Random(seed).  h_{k1}(x) and h_{k1}(x_sub) are evaluated once per
    distinct k1 drawn; round i sends t = h_{k1}(x) ^ pad and the forgery
    (x_sub, t ^ i) is accepted iff h_{k1}(x_sub) ^ pad == t ^ i.

    randrange(n) is getrandbits(n.bit_length()) redrawn while >= n, and
    getrandbits(k <= 32) is the top k bits of one 32-bit word.  So for
    n = 2^b a draw is one word, kept iff its top bit is clear, with value
    bits 30..31-b; and getrandbits(32 W) is W successive words, least
    significant first.  When |K| and |T| are powers of two up to 2^28 the
    trials take words 2^13 at a time from one getrandbits call.  Column c
    holds bits 30-7c..24-7c of every word in a byte whose top bit is the
    word's, and one bytes.translate per column drops the rejected words from
    all columns alike.  Up to 2^15 (trial, round) cells at a time are packed
    into integer lanes of a byte or more: t = hx ^ pad and t ^ i are computed
    on the lanes, and the cells where hs ^ pad equals t ^ i are counted.  The
    guesses i differ, so a trial accepts in at most one round, and the
    accepting cells are the hits.  Other families, with |K| or |T| not a
    power of two or above 2^28, make one getrandbits call a draw.

    Each round of each trial is a cell of the budget.  Apart from a chunk of
    words and a window of lanes, both of fixed size, memory is the key
    cache, which holds at most min(trials, |K|) entries, so those cells bound
    memory as well as time.  The expected rate is the exact share of keys
    the first `rounds` guesses cover, counted over all |K| keys, which the
    budget holds separately.
    """
    _check_rounds(fam, rounds)
    if trials < 1:
        raise DomainError("need at least one trial")
    check_budget(trials * rounds, budget, "Monte Carlo attack")
    check_budget(fam.key_count, budget, "exact expected rate of the Monte Carlo attack")
    getrandbits = random.Random(seed).getrandbits
    kc, tc = fam.key_count, fam.tag_count
    if kc & kc - 1 == 0 and tc & tc - 1 == 0 and max(kc, tc) <= _LANE_COUNT_LIMIT:
        hits = _lane_hits(fam, rounds, trials, getrandbits)
    else:
        hits = _draw_hits(fam, rounds, trials, getrandbits)
    rate = Fraction(hits, trials)
    expected = Fraction(sum(_eliminated(fam)[:rounds]), kc)
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
