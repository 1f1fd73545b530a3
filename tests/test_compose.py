"""Multi-round error ledger and the exact composed simulation."""

import inspect
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import recmac
from recmac import (
    BudgetExceeded,
    DomainError,
    ErrorLedger,
    IDENTITY,
    LIST_ELIMINATION,
    MulFamily,
    PadExhausted,
    PolyFamily,
    TableFamily,
    ToeplitzFamily,
    ToyQkdFunctionality,
    VerificationFailed,
    compose_ledger,
    measure_axu2,
    run_attack_exact,
    simulate_composition,
)
from recmac.cli import main as cli_main

from conftest import build_table16, composition_tv_oracle, record_contract


def test_ledger_frozen_example():
    qkd = ToyQkdFunctionality(8, F(1, 100))
    ledger, bound = compose_ledger(MulFamily(4), 3, 2, qkd)
    assert bound == F(81, 200)
    assert ledger.total == bound


def test_ledger_structure():
    qkd = ToyQkdFunctionality(6, F(1, 10))
    ledger, bound = compose_ledger(MulFamily(2), 2, 3, qkd)
    assert ledger == ErrorLedger(2, 3, F(1, 4), F(1, 10))
    rows = list(ledger.rows())
    assert len(rows) == 2 * (3 + 1)
    for r in (1, 2):
        per_round = [row for row in rows if row[0] == r]
        assert [row[1] for row in per_round] == ["qkd", "auth", "auth", "auth"]
        assert per_round[0][2] == F(1, 10)
        assert all(row[2] == F(1, 4) for row in per_round[1:])
    cum = [row[3] for row in rows]
    assert cum == sorted(cum)
    assert cum[-1] == ledger.total == bound


def test_ledger_refuses_a_short_pad_supply():
    # a round spends l pads of tag_bits each: 3 pads of mul:m=2 need 6 bits
    with pytest.raises(PadExhausted, match="emits 5 bits a round; 3 pads of mul:m=2 need 6"):
        compose_ledger(MulFamily(2), 1, 3, ToyQkdFunctionality(5, F(0)))
    assert compose_ledger(MulFamily(2), 1, 3, ToyQkdFunctionality(6, F(0)))[1] == F(3, 4)


def test_ledger_closed_form_randomized():
    rng = random.Random(20240817)
    fams = [MulFamily(2), MulFamily(3), MulFamily(4), ToeplitzFamily(3, 2),
            PolyFamily(3, 2)]
    for _ in range(30):
        fam = rng.choice(fams)
        r = rng.randint(1, 6)
        l = rng.randint(1, 6)
        eps_prime = F(rng.randint(0, 50), rng.randint(51, 1000))
        qkd = ToyQkdFunctionality(l * fam.tag_bits, eps_prime)
        ledger, bound = compose_ledger(fam, r, l, qkd)
        eps = measure_axu2(fam).epsilon
        assert bound == r * (l * eps + eps_prime)
        assert ledger.total == bound
        rows = list(ledger.rows())
        assert len(rows) == r * (l + 1)
        assert rows[-1][3] == bound


def test_ledger_raises_when_entries_miss_the_closed_form(monkeypatch):
    ledger, _ = compose_ledger(MulFamily(2), 1, 1, ToyQkdFunctionality(2, F(1, 10)))
    monkeypatch.setattr(ErrorLedger, "total", property(lambda self: F(0)))
    rows = ledger.rows()
    assert list(itertools.islice(rows, 2)) == \
        [(1, "qkd", F(1, 10), F(1, 10)), (1, "auth", F(1, 4), F(7, 20))]
    with pytest.raises(VerificationFailed, match="ledger sums to 7/20, closed form gives 0"):
        next(rows)


def test_qkd_functionality_validation():
    for bad in ((-1, 0), (4, F(3, 2)), (4, -F(1, 10))):
        with pytest.raises(DomainError):
            ToyQkdFunctionality(*bad)
        with pytest.raises(DomainError):
            ToyQkdFunctionality(out_bits=bad[0], eps_prime=bad[1])
    with pytest.raises(DomainError):
        compose_ledger(MulFamily(2), 0, 1, ToyQkdFunctionality(2, F(0)))


def test_simulation_identity_environment_is_zero():
    for r, l in ((1, 1), (2, 1), (1, 3), (2, 2)):
        assert simulate_composition(MulFamily(2), r, l, env=IDENTITY) == 0


def test_simulation_matches_min_formula():
    for r, l in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)):
        d = simulate_composition(MulFamily(2), r, l, env=LIST_ELIMINATION)
        assert d == min(F(1), F(r * l, 4)), (r, l)


def test_simulation_equals_attack_success():
    # on 1/|T| families, past saturation too: n = r*l runs up to |T| + 2
    for fam in (MulFamily(1), MulFamily(2), MulFamily(3), ToeplitzFamily(3, 2)):
        tc = fam.tag_count
        for r, l in pairs_up_to(tc + 2):
            budget = fam.key_count * tc ** (r * l)
            assert simulate_composition(fam, r, l, env=LIST_ELIMINATION, budget=budget) == \
                run_attack_exact(fam, min(r * l, tc)).success_prob, (fam, r, l)


def test_simulation_bounded_by_ledger():
    fam = MulFamily(2)
    zero = ToyQkdFunctionality(4, F(0))
    for r, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        _, bound = compose_ledger(fam, r, l, zero)
        assert simulate_composition(fam, r, l, env=LIST_ELIMINATION) <= bound


def test_simulation_guards():
    fam = MulFamily(2)
    with pytest.raises(DomainError):
        simulate_composition(fam, 1, 1, env="clairvoyance")
    with pytest.raises(DomainError):
        simulate_composition(fam, 0, 1)
    with pytest.raises(BudgetExceeded):
        simulate_composition(MulFamily(4), 3, 2)
    with pytest.raises(DomainError):
        simulate_composition(TableFamily([7], [[0], [1]]), 1, 1)


def test_simulation_refusal_line_at_the_bit_length_gate():
    # mul:m=2, n = 3: tag_bits * n = 6.  Budget 63 has bit length 6, so the
    # gate refuses and writes |K|*|T|^n unbuilt; budget 64 has bit length 7,
    # so check_budget counts the 256 cells
    fam = MulFamily(2)
    with pytest.raises(BudgetExceeded) as refused:
        simulate_composition(fam, 1, 3, budget=63)
    assert str(refused.value) == "multi-round outcome space needs 4*4^3 cells, budget is 63"
    with pytest.raises(BudgetExceeded) as refused:
        simulate_composition(fam, 1, 3, budget=64)
    assert str(refused.value) == "multi-round outcome space needs 256 cells, budget is 64"


def test_ledger_holds_four_numbers():
    led = ErrorLedger(qkd_rounds=1, auths_per_round=1, epsilon=F(1, 4), eps_prime=F(1, 10))
    assert led.total == F(7, 20)
    assert [row[3] for row in led.rows()] == [F(1, 10), F(7, 20)]


def test_ledger_rows_are_built_on_demand():
    # checked first, so a ledger that stores its rows fails here instead of
    # hanging on the 10**12 rows below
    assert ErrorLedger.__slots__ == ("qkd_rounds", "auths_per_round", "epsilon", "eps_prime")
    assert inspect.isgeneratorfunction(ErrorLedger.rows)
    qkd = ToyQkdFunctionality(2 * 10**6, F(1, 10))
    ledger, bound = compose_ledger(MulFamily(2), 10**6, 10**6, qkd, budget=10**13)
    assert bound == ledger.total == 10**6 * (10**6 * F(1, 4) + F(1, 10))
    assert list(itertools.islice(ledger.rows(), 3)) == [
        (1, "qkd", F(1, 10), F(1, 10)),
        (1, "auth", F(1, 4), F(7, 20)),
        (1, "auth", F(1, 4), F(3, 5)),
    ]


# the full stdout of two compose runs, recorded before the ledger kept only its
# closed form
COMPOSE_CSV = """\
round,component,epsilon,cumulative
1,qkd,1/50,1/50
1,auth,1/4,27/100
1,auth,1/4,13/25
2,qkd,1/50,27/50
2,auth,1/4,79/100
2,auth,1/4,26/25
,total-bound,26/25,26/25
,simulated-distance,1/1,1/1
"""

COMPOSE_JSON = """\
{
  "auths_per_round": 1,
  "bound": "3/8",
  "family": "mul:m=3",
  "ledger": [
    {
      "component": "qkd",
      "epsilon": "0/1",
      "round": 1
    },
    {
      "component": "auth",
      "epsilon": "1/8",
      "round": 1
    },
    {
      "component": "qkd",
      "epsilon": "0/1",
      "round": 2
    },
    {
      "component": "auth",
      "epsilon": "1/8",
      "round": 2
    },
    {
      "component": "qkd",
      "epsilon": "0/1",
      "round": 3
    },
    {
      "component": "auth",
      "epsilon": "1/8",
      "round": 3
    }
  ],
  "qkd_eps": "0/1",
  "qkd_rounds": 3
}
"""


@pytest.mark.parametrize("argv, expected", [
    (["--family", "mul:m=2", "--r", "2", "--rounds", "2", "--qkd-eps", "1/50", "--simulate"],
     COMPOSE_CSV),
    (["--family", "mul:m=3", "--r", "3", "--rounds", "1", "--format", "json"], COMPOSE_JSON),
], ids=["csv-simulate", "json"])
def test_compose_stdout_is_the_recorded_bytes(capsys, argv, expected):
    assert cli_main(["compose", *argv]) == 0
    assert capsys.readouterr().out == expected


# -- the simulation against the explicit-pad oracle -----------------------------


def pairs_up_to(n_max):
    return [(r, l) for r in range(1, n_max + 1) for l in range(1, n_max + 1)
            if r * l <= n_max]


@pytest.mark.parametrize("fam, n_max", [
    (MulFamily(1), 6), (MulFamily(2), 4), (ToeplitzFamily(3, 2), 3),
    (build_table16(), 2),
], ids=["mul:m=1", "mul:m=2", "toeplitz:n=3,m=2", "table16"])
def test_simulation_matches_explicit_pad_oracle(fam, n_max):
    for r, l in pairs_up_to(n_max):
        for env in (LIST_ELIMINATION, IDENTITY):
            assert simulate_composition(fam, r, l, env=env) == \
                composition_tv_oracle(fam, r, l, env), (r, l, env)


@st.composite
def small_tables(draw):
    """TableFamily with at most 4 keys, 2 or 3 messages and 2-bit tags."""
    m = draw(st.integers(1, 2))
    nx = draw(st.integers(2, 3))
    kc = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, (1 << m) - 1), min_size=nx, max_size=nx),
                         min_size=kc, max_size=kc))
    return TableFamily(list(range(nx)), rows, m=m)


@settings(max_examples=60, deadline=None)
@given(fam=small_tables(), rl=st.sampled_from(pairs_up_to(3)),
       env=st.sampled_from([LIST_ELIMINATION, IDENTITY]))
def test_simulation_matches_oracle_on_random_tables(fam, rl, env):
    r, l = rl
    assert simulate_composition(fam, r, l, env=env) == composition_tv_oracle(fam, r, l, env)


# -- budget and memory ----------------------------------------------------------


def test_simulation_budget_counts_the_outcome_space():
    fam = MulFamily(2)
    assert simulate_composition(fam, 2, 6, budget=4 * 4 ** 12) == 1
    with pytest.raises(BudgetExceeded):
        simulate_composition(fam, 2, 6, budget=4 * 4 ** 12 - 1)


def test_simulation_refuses_exactly_where_the_outcome_space_exceeds_the_budget():
    # the refusal compares exponents before it counts kc * tc**n, and that
    # moves no threshold: it refuses iff the exact count exceeds the budget
    for fam in (MulFamily(1), MulFamily(2), ToeplitzFamily(2, 1)):
        for n in range(1, 7):
            cells = fam.key_count * fam.tag_count ** n
            for budget in {0, 1, cells - 1, cells, cells + 1, 2 * cells}:
                if cells > budget:
                    with pytest.raises(BudgetExceeded, match="multi-round outcome space"):
                        simulate_composition(fam, 1, n, budget=budget)
                else:
                    simulate_composition(fam, 1, n, budget=budget)


def test_simulation_refusal_names_a_huge_count_without_building_it():
    with pytest.raises(BudgetExceeded) as info:
        simulate_composition(MulFamily(2), 1, 8000)
    assert str(info.value) == \
        "multi-round outcome space needs 4*4^8000 cells, budget is 16777216"
    with pytest.raises(BudgetExceeded, match="needs 67108864 cells"):
        simulate_composition(MulFamily(2), 2, 6)   # below the cut-over: the exact count


def test_compose_simulate_over_budget_is_one_refusal_line(capsys):
    assert cli_main(["compose", "--family", "mul:m=2", "--r", "2", "--rounds", "6",
                     "--simulate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("recmac: budget refusal: ") and err.count("\n") == 1


@pytest.mark.parametrize("rounds", ["2000", "8000"])
def test_compose_simulate_far_over_budget_is_one_short_refusal_line(capsys, rounds):
    # written out, kc * tc**n has 1200 digits at 2000 rounds, and at 8000 it
    # is past int-to-str's 4300-digit limit
    assert cli_main(["compose", "--family", "mul:m=2", "--r", "1", "--rounds", rounds,
                     "--simulate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("recmac: budget refusal: ") and err.count("\n") == 1
    assert len(err) < 200


def test_ledger_budget_counts_its_entries(capsys):
    qkd = ToyQkdFunctionality(2, F(0))
    ledger, _ = compose_ledger(MulFamily(1), 2, 2, qkd, budget=6)
    assert len(list(ledger.rows())) == 6
    with pytest.raises(BudgetExceeded, match="error ledger needs 6 cells, budget is 5"):
        compose_ledger(MulFamily(1), 2, 2, qkd, budget=5)
    assert cli_main(["compose", "--family", "mul:m=1", "--r", "2", "--rounds", "2",
                     "--budget", "5"]) == 1
    assert capsys.readouterr().err == \
        "recmac: budget refusal: error ledger needs 6 cells, budget is 5\n"


def test_simulation_memory_does_not_grow_with_tag_vectors():
    # the outcome space has 4 * 4**8 = 262144 cells; none of them is built
    fam = MulFamily(2)
    tracemalloc.start()
    try:
        d = simulate_composition(fam, 1, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d == 1
    assert peak < 1 << 20


def test_composition_budget_script_runs():
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(recmac.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, str(repo / "scripts" / "composition_budget.py")],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert "over budget" in r.stdout


# -- the value classes -------------------------------------------------------------


@pytest.mark.parametrize("cls, fields, changed", [
    (ToyQkdFunctionality, {"out_bits": 4, "eps_prime": F(1, 10)}, ("out_bits", 5)),
    (ErrorLedger, {"qkd_rounds": 2, "auths_per_round": 3, "epsilon": F(1, 4),
                   "eps_prime": F(1, 10)}, ("auths_per_round", 4)),
], ids=["ToyQkdFunctionality", "ErrorLedger"])
def test_value_classes_keep_the_frozen_dataclass_contract(cls, fields, changed):
    record_contract(cls, fields, changed)