"""Exact security accounting for pad-masked authentication with key recycling.

Everything here computes with `fractions.Fraction`: measured hash bounds,
real/ideal distinguishing distances, attack success probabilities, and
composed error budgets are exact rationals, never floats, so equalities in
the test suite are equalities.

The exports are lazy (PEP 562): `import recmac` loads no submodule, and
reading a name imports only its home module.  A name is looked up in its
home module on every read, never cached here, so a patched attribute of the
home module is what `recmac.<name>` returns.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BudgetExceeded", "DomainError", "PadExhausted", "SchemaMismatch",
               "VerificationFailed", "DEFAULT_BUDGET"),
    "gf2m": ("FieldCtx", "is_irreducible", "DEFAULT_MODULUS"),
    "families": ("HashFamily", "MulFamily", "PolyFamily", "ToeplitzFamily", "TableFamily",
                 "CounterexampleFamily", "LiftedFamily", "lift_to_asu2", "parse_family"),
    "measure": ("Measurement", "SampledMeasurement", "measure_axu2", "measure_asu2",
                "sample_axu2", "tag_marginal"),
    "dist": ("Dist", "statistical_distance", "outcome_sort_key"),
    "protocol": ("AuthKey", "TaggedMessage", "KeyStream", "authenticate", "verify",
                 "pack_tagged", "unpack_tagged"),
    "ucsim": ("EnvStrategy", "WcProtocol", "CounterexampleProtocol", "run_real", "run_ideal",
              "uc_distance", "impersonation_distance", "worst_case_substitution",
              "worst_case_impersonation", "worst_case_distance"),
    "attack": ("ExactEntropy", "AttackReport", "MonteCarloReport", "RoundRecord",
               "run_attack_exact", "run_attack_montecarlo",
               "posterior_entropy", "success_recurrence", "sample_transcript", "entropy_of"),
    "compose": ("ToyQkdFunctionality", "ErrorLedger", "compose_ledger",
                "simulate_composition", "LIST_ELIMINATION", "IDENTITY"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
