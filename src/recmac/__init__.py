"""Exact security accounting for pad-masked authentication with key recycling.

Everything here computes with `fractions.Fraction`: measured hash bounds,
real/ideal distinguishing distances, attack success probabilities, and
composed error budgets are exact rationals, never floats, so equalities in
the test suite are equalities.
"""

from .errors import (BudgetExceeded, DomainError, PadExhausted, SchemaMismatch,
                     VerificationFailed, DEFAULT_BUDGET)
from .gf2m import FieldCtx, is_irreducible, DEFAULT_MODULUS
from .families import (
    HashFamily,
    MulFamily,
    PolyFamily,
    ToeplitzFamily,
    TableFamily,
    CounterexampleFamily,
    LiftedFamily,
    lift_to_asu2,
    parse_family,
)
from .measure import Measurement, SampledMeasurement, measure_axu2, measure_asu2, sample_axu2, tag_marginal
from .dist import Dist, statistical_distance, outcome_sort_key
from .protocol import (
    AuthKey,
    TaggedMessage,
    KeyStream,
    authenticate,
    verify,
    pack_tagged,
    unpack_tagged,
)
from .ucsim import (
    EnvStrategy,
    WcProtocol,
    CounterexampleProtocol,
    run_real,
    run_ideal,
    uc_distance,
    impersonation_distance,
    worst_case_substitution,
    worst_case_impersonation,
    worst_case_distance,
)
from .attack import (
    ExactEntropy,
    AttackReport,
    MonteCarloReport,
    Transcript,
    RoundRecord,
    run_attack_exact,
    run_attack_montecarlo,
    posterior_entropy,
    success_recurrence,
    sample_transcript,
    entropy_of,
)
from .compose import (
    ToyQkdFunctionality,
    LedgerEntry,
    ErrorLedger,
    compose_ledger,
    simulate_composition,
    LIST_ELIMINATION,
    IDENTITY,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DomainError",
    "PadExhausted",
    "SchemaMismatch",
    "VerificationFailed",
    "DEFAULT_BUDGET",
    "FieldCtx",
    "is_irreducible",
    "DEFAULT_MODULUS",
    "HashFamily",
    "MulFamily",
    "PolyFamily",
    "ToeplitzFamily",
    "TableFamily",
    "CounterexampleFamily",
    "LiftedFamily",
    "lift_to_asu2",
    "parse_family",
    "Measurement",
    "SampledMeasurement",
    "measure_axu2",
    "measure_asu2",
    "sample_axu2",
    "tag_marginal",
    "Dist",
    "statistical_distance",
    "outcome_sort_key",
    "AuthKey",
    "TaggedMessage",
    "KeyStream",
    "authenticate",
    "verify",
    "pack_tagged",
    "unpack_tagged",
    "EnvStrategy",
    "WcProtocol",
    "CounterexampleProtocol",
    "run_real",
    "run_ideal",
    "uc_distance",
    "impersonation_distance",
    "worst_case_substitution",
    "worst_case_impersonation",
    "worst_case_distance",
    "ExactEntropy",
    "AttackReport",
    "MonteCarloReport",
    "Transcript",
    "RoundRecord",
    "run_attack_exact",
    "run_attack_montecarlo",
    "posterior_entropy",
    "success_recurrence",
    "sample_transcript",
    "entropy_of",
    "ToyQkdFunctionality",
    "LedgerEntry",
    "ErrorLedger",
    "compose_ledger",
    "simulate_composition",
    "LIST_ELIMINATION",
    "IDENTITY",
]
