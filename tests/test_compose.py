"""Multi-round error ledger and the exact composed simulation."""

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
    LedgerEntry,
    MulFamily,
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

from conftest import build_table16, composition_tv_oracle


def test_ledger_frozen_example():
    qkd = ToyQkdFunctionality(8, F(1, 100))
    ledger, bound = compose_ledger(MulFamily(4), 3, 2, qkd)
    assert bound == F(81, 200)
    assert ledger.total == bound


def test_ledger_structure():
    qkd = ToyQkdFunctionality(4, F(1, 10))
    ledger, bound = compose_ledger(MulFamily(2), 2, 3, qkd)
    assert len(ledger.entries) == 2 * (3 + 1)
    for r in (1, 2):
        per_round = [e for e in ledger.entries if e.round == r]
        assert [e.component for e in per_round] == ["qkd", "auth", "auth", "auth"]
        assert per_round[0].epsilon == F(1, 10)
        assert all(e.epsilon == F(1, 4) for e in per_round[1:])
    cum = ledger.cumulative()
    assert cum == sorted(cum)
    assert cum[-1] == ledger.total == bound


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
        assert len(ledger.entries) == r * (l + 1)


def test_ledger_raises_when_entries_miss_the_closed_form(monkeypatch):
    monkeypatch.setattr(ErrorLedger, "total", property(lambda self: F(0)))
    with pytest.raises(VerificationFailed):
        compose_ledger(MulFamily(2), 1, 1, ToyQkdFunctionality(2, F(0)))


def test_qkd_functionality_validation():
    with pytest.raises(DomainError):
        ToyQkdFunctionality(-1, F(0))
    with pytest.raises(DomainError):
        ToyQkdFunctionality(4, F(3, 2))
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


def test_ledger_entry_container():
    entries = (LedgerEntry(1, "qkd", F(1, 10)), LedgerEntry(1, "auth", F(1, 4)))
    led = ErrorLedger(entries)
    assert led.total == F(7, 20)
    assert led.cumulative() == [F(1, 10), F(7, 20)]


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


def test_compose_simulate_over_budget_is_one_refusal_line(capsys):
    assert cli_main(["compose", "--family", "mul:m=2", "--r", "2", "--rounds", "6",
                     "--simulate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("recmac: budget refusal: ") and err.count("\n") == 1


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
