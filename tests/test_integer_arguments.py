"""One rule for every integer argument: an int that is not a bool, or a DomainError.

Each entry of ARGUMENTS feeds one drawn value into one integer parameter of
an export and holds every other argument valid, so the refusal can only be
that parameter's.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recmac import (
    AuthKey,
    BudgetExceeded,
    CounterexampleFamily,
    DomainError,
    EnvStrategy,
    FieldCtx,
    KeyStream,
    MulFamily,
    PolyFamily,
    TaggedMessage,
    ToeplitzFamily,
    ToyQkdFunctionality,
    authenticate,
    compose_ledger,
    lift_to_asu2,
    measure_axu2,
    parse_family,
    posterior_entropy,
    run_attack_exact,
    run_attack_montecarlo,
    sample_axu2,
    simulate_composition,
    success_recurrence,
    uc_distance,
    verify,
    worst_case_distance,
)

FAM = MulFamily(2)
QKD = ToyQkdFunctionality(8, Fraction(0))

# the families whose messages are a range, so a message is its own index
RANGE_FAMILIES = {"mul": MulFamily(2), "toeplitz": ToeplitzFamily(2, 2),
                  "counterexample": CounterexampleFamily(2), "lift-mul": lift_to_asu2(MulFamily(2))}


def _on_each_range_family():
    for name, fam in RANGE_FAMILIES.items():
        yield f"{name} key", lambda v, fam=fam: authenticate(fam, AuthKey(v, 0), 0)
        yield f"{name} pad", lambda v, fam=fam: authenticate(fam, AuthKey(0, v), 0)
        yield f"{name} tag", lambda v, fam=fam: verify(fam, AuthKey(0, 0), TaggedMessage(0, v))
        yield f"{name} message", lambda v, fam=fam: fam.tag(0, v)
        yield f"{name} message index", lambda v, fam=fam: fam.message_index(v)


ARGUMENTS = {
    **dict(_on_each_range_family()),
    "message_from_int": lambda v: FAM.message_from_int(v),
    "FieldCtx degree": lambda v: FieldCtx(v),
    "field element": lambda v: FieldCtx(3).mul(v, 1),
    "MulFamily m": lambda v: MulFamily(v),
    "PolyFamily m": lambda v: PolyFamily(v, 1),
    "PolyFamily L": lambda v: PolyFamily(2, v),
    "ToeplitzFamily n": lambda v: ToeplitzFamily(v, 2),
    "ToeplitzFamily m": lambda v: ToeplitzFamily(2, v),
    "KeyStream k1": lambda v: KeyStream(v, (0,), FAM),
    "KeyStream pad": lambda v: KeyStream(0, (0, v), FAM),
    "run_attack_exact rounds": lambda v: run_attack_exact(FAM, v),
    "posterior_entropy rounds": lambda v: posterior_entropy(FAM, v),
    "run_attack_montecarlo rounds": lambda v: run_attack_montecarlo(FAM, v, 10),
    "run_attack_montecarlo trials": lambda v: run_attack_montecarlo(FAM, 1, v),
    "success_recurrence l_max": lambda v: success_recurrence(FAM, v),
    "sample_axu2 pairs": lambda v: sample_axu2(FAM, v),
    "compose_ledger r": lambda v: compose_ledger(FAM, v, 1, QKD),
    "compose_ledger l": lambda v: compose_ledger(FAM, 1, v, QKD),
    "simulate_composition r": lambda v: simulate_composition(FAM, v, 1),
    "simulate_composition l": lambda v: simulate_composition(FAM, 1, v),
    "out_bits": lambda v: ToyQkdFunctionality(v, Fraction(0)),
    "measure_axu2 budget": lambda v: measure_axu2(FAM, budget=v),
    "uc_distance budget": lambda v: uc_distance(FAM, EnvStrategy.substitute(0, {}), budget=v),
    "worst_case_distance budget": lambda v: worst_case_distance(FAM, budget=v),
    "tag_table budget": lambda v: FAM.tag_table(v),
    "simulate_composition budget": lambda v: simulate_composition(FAM, 1, 1, budget=v),
}

NOT_AN_INT = st.one_of(
    st.booleans(),
    st.integers(min_value=-2, max_value=40).map(float),   # a float equal to an integer
    st.floats(),
    st.sampled_from([None, "1", Fraction(1)]),
)


@pytest.mark.parametrize("call", ARGUMENTS.values(), ids=ARGUMENTS.keys())
@settings(max_examples=30, deadline=None)
@given(v=NOT_AN_INT)
def test_every_integer_argument_refuses_anything_but_an_int(call, v):
    with pytest.raises(DomainError):
        call(v)


@pytest.mark.parametrize("call", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_every_integer_argument_table_entry_takes_an_int(call):
    # the table's other arguments are valid: the same call with 1 is no DomainError
    try:
        call(1)
    except BudgetExceeded:   # a budget of one cell is an int, refused for its size
        pass


@pytest.mark.parametrize("call", [
    lambda: FAM.tag(1, True),
    lambda: FAM.tag(1, 2.0),
    lambda: FAM.message_index(1.0),
    lambda: parse_family("counterexample:m=2").tag(1, 1.0),
    lambda: run_attack_exact(FAM, 2.0),
    lambda: run_attack_montecarlo(FAM, 2.0, 10),
    lambda: posterior_entropy(FAM, False),
    lambda: measure_axu2(FAM, budget=None),
    lambda: simulate_composition(FAM, 1, 1, budget=None),
    lambda: simulate_composition(FAM, 1, 1, budget=2.0),
], ids=["tag True", "tag 2.0", "message_index 1.0", "counterexample tag 1.0",
        "exact rounds 2.0", "montecarlo rounds 2.0", "posterior_entropy False",
        "measure_axu2 budget None", "simulate budget None", "simulate budget 2.0"])
def test_odd_arguments_that_once_passed_or_raised_type_errors(call):
    with pytest.raises(DomainError):
        call()
