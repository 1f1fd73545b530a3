"""The optimal key-extraction attack against tag-masked authentication.

The attacker fixes two messages x != x_sub, asks for x every round, and
replaces the observed (x, t) with (x_sub, t ^ c_i), where c_i runs through
the tag space in a fixed order.  The forgery is accepted in round i exactly
when c_i equals the key's hash difference c(k1) = h_{k1}(x) ^ h_{k1}(x_sub);
a rejection eliminates one candidate for good.  The one-time pads cancel out
of every acceptance event, so the exact engine enumerates k1 only and
integrates the pads away analytically.  The Monte Carlo engine keeps the pads
explicit: per trial it draws k1 and one pad per round, evaluates h_{k1} on x
and x_sub once, and plays the rounds on the masked tags.  It draws what
sample_transcript draws, which runs every round through authenticate and
verify, and the tests hold the two to the same hit count on every seed.

For a family whose two-point XOR bound is exactly 1/|T| the difference
c(k1) is uniform over the tag space, which pins everything down:

    success within L rounds     = L / |T|
    round i success given prior failures = 1 / (|T| - i + 1)
    H(K1 | transcript after L)  = (L/|T|) log2(|K|/|T|)
                                  + (1 - L/|T|) log2((|K|/|T|)(|T| - L))

The entropy is computed from the actual posteriors and compared with that
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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, DEFAULT_BUDGET, check_budget
from .families import HashFamily
from .measure import _difference_column, measure_axu2
from .protocol import KeyStream, TaggedMessage, authenticate, verify


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


@dataclass(frozen=True)
class ExactEntropy:
    """A value q0 + sum q_p * log2(p) over odd primes p, exactly.

    log2 of any positive rational lands in this set, and by unique
    factorization the representation is unique, so dataclass equality is
    equality of real numbers.  Only bits (base-2 logs) appear here.
    """

    rational: Fraction = Fraction(0)
    terms: tuple[tuple[int, Fraction], ...] = ()

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


@dataclass(frozen=True)
class Transcript:
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


@dataclass(frozen=True)
class AttackReport:
    rounds: int
    x: object
    x_sub: object
    success_prob: Fraction
    success_formula: Fraction
    per_round_conditional: tuple[Fraction, ...]
    entropy_bits: ExactEntropy
    entropy_formula_bits: ExactEntropy


@dataclass(frozen=True)
class MonteCarloReport:
    rounds: int
    trials: int
    hits: int
    rate: Fraction
    expected: Fraction
    interval: tuple[float, float]   # rate +- 3 sigma-hat
    within_3sigma: bool             # of the expected value, theory sigma
    seed: int


def _attack_pair(fam: HashFamily):
    if len(fam.messages) < 2:
        raise DomainError("the attack needs at least two messages")
    return fam.messages[0], fam.messages[1]


def _check_rounds(fam: HashFamily, rounds: int, least: int = 1) -> None:
    if not least <= rounds <= fam.tag_count:
        raise DomainError(f"rounds must be in {least}..{fam.tag_count}")


def _eliminated(fam: HashFamily) -> list[int]:
    """Keys that guess i accepts along the all-reject path, for every tag i.

    Guess i forges (x_sub, t ^ i), accepted under the keys whose hash
    difference on the canonical pair is i, so the first n guesses cover
    sum(_eliminated(fam)[:n]) keys.
    """
    counts = Counter(_difference_column(fam, *_attack_pair(fam)))
    return [counts[t] for t in fam.tags()]


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


def _conditionals(counts: list[int], nk: int, rounds: int) -> list[Fraction]:
    """P(success in round i+1 | failure through round i) for i < rounds."""
    out = []
    remaining = nk
    for c in counts[:rounds]:
        out.append(Fraction(c, remaining))
        remaining -= c
    return out


def run_attack_exact(fam: HashFamily, rounds: int,
                     budget: int = DEFAULT_BUDGET) -> AttackReport:
    """Exact success and leakage accounting; pads integrated out."""
    _check_rounds(fam, rounds)
    return _attack_report(fam, _difference_counts(fam, budget), rounds)


def _attack_reports(fam: HashFamily, max_rounds: int, budget: int) -> list[AttackReport]:
    """run_attack_exact for rounds 1..max_rounds, counting the differences once."""
    if max_rounds < 1:
        return []
    counts = _difference_counts(fam, budget)
    _check_rounds(fam, max_rounds)
    return [_attack_report(fam, counts, rounds) for rounds in range(1, max_rounds + 1)]


def _attack_report(fam: HashFamily, counts: list[int], rounds: int) -> AttackReport:
    x, xp = _attack_pair(fam)
    nk = fam.key_count
    computed, formula = _posterior_entropy(fam, counts, rounds)
    return AttackReport(
        rounds=rounds,
        x=x,
        x_sub=xp,
        success_prob=Fraction(sum(counts[:rounds]), nk),
        success_formula=Fraction(rounds, fam.tag_count),
        per_round_conditional=tuple(_conditionals(counts, nk, rounds)),
        entropy_bits=computed,
        entropy_formula_bits=formula,
    )


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
    return _posterior_entropy(fam, _difference_counts(fam, budget), rounds)


def _posterior_entropy(fam: HashFamily, counts: list[int],
                       rounds: int) -> tuple[ExactEntropy, ExactEntropy]:
    nk = fam.key_count
    tc = fam.tag_count
    computed = ExactEntropy()
    # A transcript class of c keys has a uniform posterior: entropy log2(c).
    for c in [*counts[:rounds], nk - sum(counts[:rounds])]:
        if c:
            computed = computed + ExactEntropy.log2(c).scaled(Fraction(c, nk))
    kt = Fraction(nk, tc)
    formula = ExactEntropy.log2(kt)
    if rounds < tc:
        formula = formula + ExactEntropy.log2(tc - rounds).scaled(1 - Fraction(rounds, tc))
    return computed, formula


def success_recurrence(fam: HashFamily, l_max: int,
                       budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """Measured P(success in round L+1 | failure through round L), L=0..l_max.

    Requires l_max <= |T| - 1 so the conditioning event has positive
    probability throughout.
    """
    counts = _difference_counts(fam, budget)
    if not 0 <= l_max <= fam.tag_count - 1:
        raise DomainError(f"l_max must be in 0..{fam.tag_count - 1}")
    return _conditionals(counts, fam.key_count, l_max + 1)


def sample_transcript(fam: HashFamily, rounds: int, rng: random.Random,
                      x=None, x_sub=None) -> Transcript:
    """One honestly simulated attack run: fresh pads, real verify calls."""
    if x is None or x_sub is None:
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


def run_attack_montecarlo(fam: HashFamily, rounds: int, trials: int,
                          seed: int = 0, budget: int = DEFAULT_BUDGET) -> MonteCarloReport:
    """Simulate the attack with pseudorandom keys and pads.

    A cross-check of the exact engine that keeps the pads explicit.  Each
    trial draws k1 and then one pad per round, as sample_transcript does, so
    a seed gives the hits of that many sample_transcript runs on
    random.Random(seed).  k1 is fixed within a trial, so h_{k1} is evaluated
    once per trial; round i sends t = h_{k1}(x) ^ pad and the forgery
    (x_sub, t ^ i) is accepted iff h_{k1}(x_sub) ^ pad == t ^ i.  Each round
    of each trial is a cell of the budget.
    """
    _check_rounds(fam, rounds)
    if trials < 1:
        raise DomainError("need at least one trial")
    check_budget(trials * rounds, budget, "Monte Carlo attack")
    rng = random.Random(seed)
    x, x_sub = _attack_pair(fam)
    kc, tc = fam.key_count, fam.tag_count
    hits = 0
    for _ in range(trials):
        k1 = rng.randrange(kc)
        pads = [rng.randrange(tc) for _ in range(rounds)]
        hx, hs = fam.tag(k1, x), fam.tag(k1, x_sub)
        for i, pad in enumerate(pads):
            t = hx ^ pad
            if hs ^ pad == t ^ i:
                hits += 1
                break
    rate = Fraction(hits, trials)
    expected = Fraction(rounds, tc)
    p = float(rate)
    sig_hat = math.sqrt(max(p * (1 - p), 0.0) / trials)
    pe = float(expected)
    sig = math.sqrt(pe * (1 - pe) / trials)
    return MonteCarloReport(
        rounds=rounds,
        trials=trials,
        hits=hits,
        rate=rate,
        expected=expected,
        interval=(max(0.0, p - 3 * sig_hat), min(1.0, p + 3 * sig_hat)),
        within_3sigma=abs(p - pe) <= 3 * sig,
        seed=seed,
    )
