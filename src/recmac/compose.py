"""Error accounting for many authentication rounds glued to a toy key source.

A run consists of r key-generation rounds; each round refreshes the pad
supply (modeled as an ideal functionality that is simply *declared* to be
eps'-close to ideal; nothing quantum is simulated here) and then performs
l authenticated transmissions that keep recycling the same hash key k1.
Failure probabilities compose additively, so the ledger reads one entry per
component and the total is exactly

    r * (l * eps + eps')

where eps is the measured two-point bound of the family.  The ledger is that
closed form: it keeps r, l, eps and eps' and lists its entries on demand.  Its
value is that the exact multi-round simulation below can be held against it.

simulate_composition() computes the exact distance between the multi-round
real execution (one k1 throughout, fresh uniform pads per round, the
list-elimination environment carrying its candidate list across all rounds
and across key-refresh boundaries) and the fully ideal execution.  The
distance is defined over outcomes (tag vector, receiver outputs, k1), but
the padded tags are uniform and independent of (outputs, k1) in both worlds,
so every tag vector carries the same weight on both sides and drops out:
the distance is the share of keys k1 whose real outputs differ from the
ideal ones.  In the ideal world no forgery is ever accepted, so these are
the keys that one of the environment's first min(n, |T|) guesses covers,
n = r*l: the attack's success count, read from measure._eliminated, so
composing loads neither the attack nor the protocol.  For a 1/|T|-bounded
family it comes out at exactly min(1, r*l/|T|): the additive ledger is
tight, up to the declared eps' terms, which the simulation treats as zero by
taking the key source ideal.

The environment substitutes every round until its first success, then turns
honest; in the ideal world it substitutes for as long as it has candidates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import (BudgetExceeded, DomainError, PadExhausted, Record, VerificationFailed,
                     DEFAULT_BUDGET, check_budget)
from .families import HashFamily
from .measure import _eliminated, measure_axu2

LIST_ELIMINATION = "list-elimination"
IDENTITY = "identity"


class ToyQkdFunctionality(Record):
    """A declared-quality key source: emits out_bits a round, promises eps_prime."""

    __slots__ = ("out_bits", "eps_prime")
    out_bits: int
    eps_prime: Fraction

    def _check(self):
        if self.out_bits < 0:
            raise DomainError("out_bits must be non-negative")
        if not 0 <= self.eps_prime <= 1:
            raise DomainError("eps_prime must be a probability")


class ErrorLedger(Record):
    """The ledger of r key-generation rounds of l authentications each.

    Each round reads eps' for the key source, then eps per authentication.
    No entry is stored: rows() yields them with their running sum.
    """

    __slots__ = ("qkd_rounds", "auths_per_round", "epsilon", "eps_prime")
    qkd_rounds: int
    auths_per_round: int
    epsilon: Fraction
    eps_prime: Fraction

    @property
    def total(self) -> Fraction:
        return self.qkd_rounds * (self.auths_per_round * self.epsilon + self.eps_prime)

    def rows(self) -> Iterator[tuple[int, str, Fraction, Fraction]]:
        """(round, component, epsilon, cumulative) per entry, in ledger order.

        Raises VerificationFailed once the last entry is out if the running sum
        misses the closed form.
        """
        acc = Fraction(0)
        for r in range(1, self.qkd_rounds + 1):
            acc += self.eps_prime
            yield r, "qkd", self.eps_prime, acc
            for _ in range(self.auths_per_round):
                acc += self.epsilon
                yield r, "auth", self.epsilon, acc
        if acc != self.total:
            raise VerificationFailed(f"ledger sums to {acc}, closed form gives {self.total}")


def _check_rounds(qkd_rounds: int, auths_per_round: int) -> None:
    if qkd_rounds < 1 or auths_per_round < 1:
        raise DomainError("need at least one round of each kind")


def compose_ledger(fam: HashFamily, qkd_rounds: int, auths_per_round: int,
                   qkd: ToyQkdFunctionality,
                   budget: int = DEFAULT_BUDGET) -> tuple[ErrorLedger, Fraction]:
    """The additive ledger and its closed-form total r*(l*eps + eps').

    Its r*(l + 1) rows, which the CLI renders, are counted against the budget
    before eps is measured.
    """
    _check_rounds(qkd_rounds, auths_per_round)
    check_budget(qkd_rounds * (auths_per_round + 1), budget, "error ledger")
    if qkd.out_bits < auths_per_round * fam.tag_bits:
        raise PadExhausted(f"the key source emits {qkd.out_bits} bits a round; {auths_per_round} "
                           f"pads of {fam.descriptor()} need {auths_per_round * fam.tag_bits}")
    ledger = ErrorLedger(qkd_rounds, auths_per_round, measure_axu2(fam, budget=budget).epsilon,
                         qkd.eps_prime)
    return ledger, ledger.total


def simulate_composition(fam: HashFamily, qkd_rounds: int, auths_per_round: int,
                         env: str = LIST_ELIMINATION,
                         budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact real-vs-ideal distance of the full multi-round execution.

    The distance is the share of keys covered by the first min(n, |T|)
    guesses, n = r*l (module docstring); identity never substitutes and
    is at 0.  The budget still counts the outcome space the distance is
    defined over, kc * tc**n cells, though only 2 * kc tags are evaluated:
    that threshold is where `recmac compose --simulate` refuses, and
    scripts/composition_budget.py and the perfbench refusal job rest on it.
    Once tag_bits * n reaches the budget's bit length, |T|^n alone is over
    budget, and the refusal writes |K|*|T|^n without building it.
    """
    if env not in (LIST_ELIMINATION, IDENTITY):
        raise DomainError(f"unknown environment {env!r}")
    _check_rounds(qkd_rounds, auths_per_round)
    n = qkd_rounds * auths_per_round
    if fam.tag_bits * n >= budget.bit_length():
        raise BudgetExceeded(f"multi-round outcome space needs {fam.key_count}*{fam.tag_count}^{n}"
                             f" cells, budget is {budget}")
    check_budget(fam.key_count * fam.tag_count ** n, budget, "multi-round outcome space")
    if len(fam.messages) < 2:
        raise DomainError("need two messages to substitute")
    if env == IDENTITY:
        return Fraction(0)
    return Fraction(sum(_eliminated(fam)[:n]), fam.key_count)
