"""Error accounting for many authentication rounds glued to a toy key source.

A run consists of r key-generation rounds; each round refreshes the pad
supply (modeled as an ideal functionality that is simply *declared* to be
eps'-close to ideal; nothing quantum is simulated here) and then performs
l authenticated transmissions that keep recycling the same hash key k1.
Failure probabilities compose additively, so the ledger holds one entry per
component and the total is exactly

    r * (l * eps + eps')

where eps is the measured two-point bound of the family.  The ledger never
does anything cleverer than that sum; its value is that the exact multi-round
simulation below can be held against it.

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
n = r*l: the same count as the attack's success probability, taken from
attack._eliminated.  For a 1/|T|-bounded family it comes out at exactly
min(1, r*l/|T|): the additive ledger is tight, up to the declared eps'
terms, which the simulation treats as zero by taking the key source ideal.

The environment substitutes every round until its first success, then turns
honest; in the ideal world it substitutes for as long as it has candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .attack import _eliminated
from .errors import DomainError, VerificationFailed, DEFAULT_BUDGET, check_budget
from .families import HashFamily
from .measure import measure_axu2

LIST_ELIMINATION = "list-elimination"
IDENTITY = "identity"


@dataclass(frozen=True)
class ToyQkdFunctionality:
    """A declared-quality key source: emits out_bits, promises eps_prime."""

    out_bits: int
    eps_prime: Fraction

    def __post_init__(self):
        if self.out_bits < 0:
            raise DomainError("out_bits must be non-negative")
        if not 0 <= self.eps_prime <= 1:
            raise DomainError("eps_prime must be a probability")


@dataclass(frozen=True)
class LedgerEntry:
    round: int        # key-generation round, 1-based
    component: str    # "auth" or "qkd"
    epsilon: Fraction


@dataclass(frozen=True)
class ErrorLedger:
    entries: tuple[LedgerEntry, ...]

    @property
    def total(self) -> Fraction:
        return sum((e.epsilon for e in self.entries), Fraction(0))

    def cumulative(self) -> list[Fraction]:
        acc = Fraction(0)
        out = []
        for e in self.entries:
            acc += e.epsilon
            out.append(acc)
        return out


def compose_ledger(fam: HashFamily, qkd_rounds: int, auths_per_round: int,
                   qkd: ToyQkdFunctionality,
                   budget: int = DEFAULT_BUDGET) -> tuple[ErrorLedger, Fraction]:
    """The additive ledger and its closed-form total r*(l*eps + eps')."""
    if qkd_rounds < 1 or auths_per_round < 1:
        raise DomainError("need at least one round of each kind")
    eps = measure_axu2(fam, budget=budget).epsilon
    entries = []
    for r in range(1, qkd_rounds + 1):
        entries.append(LedgerEntry(r, "qkd", qkd.eps_prime))
        for _ in range(auths_per_round):
            entries.append(LedgerEntry(r, "auth", eps))
    ledger = ErrorLedger(tuple(entries))
    bound = qkd_rounds * (auths_per_round * eps + qkd.eps_prime)
    if ledger.total != bound:
        raise VerificationFailed(f"ledger sums to {ledger.total}, closed form gives {bound}")
    return ledger, bound


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
    """
    if env not in (LIST_ELIMINATION, IDENTITY):
        raise DomainError(f"unknown environment {env!r}")
    if qkd_rounds < 1 or auths_per_round < 1:
        raise DomainError("need at least one round of each kind")
    n = qkd_rounds * auths_per_round
    check_budget(fam.key_count * fam.tag_count ** n, budget, "multi-round outcome space")
    if len(fam.messages) < 2:
        raise DomainError("need two messages to substitute")
    if env == IDENTITY:
        return Fraction(0)
    return Fraction(sum(_eliminated(fam)[:n]), fam.key_count)
