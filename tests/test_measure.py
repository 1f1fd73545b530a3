"""Collision measures against the naive pair-loop oracle and frozen values."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import recmac
from recmac import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CounterexampleFamily,
    DomainError,
    Measurement,
    SampledMeasurement,
    MulFamily,
    PolyFamily,
    TableFamily,
    ToeplitzFamily,
    VerificationFailed,
    lift_to_asu2,
    measure_asu2,
    measure_axu2,
    sample_axu2,
    tag_marginal,
)

from conftest import (
    asu2_oracle, asu2_witness_oracle, axu2_oracle, axu2_witness_oracle, linear_axu2_oracle,
    record_contract, sample_axu2_oracle,
)

SMALL_FAMILIES = [
    MulFamily(2),
    MulFamily(3),
    PolyFamily(2, 2),
    PolyFamily(3, 2),
    ToeplitzFamily(3, 2),
    CounterexampleFamily(2),
    CounterexampleFamily(3),
    lift_to_asu2(MulFamily(2)),
    TableFamily([0, 1, 2], [[0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]]),
]


WITNESS_FAMILIES = SMALL_FAMILIES + [
    PolyFamily(2, 3),
    ToeplitzFamily(4, 3),
    lift_to_asu2(MulFamily(3)),
]


@pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=lambda f: f.descriptor())
def test_axu2_matches_pair_loop_oracle(fam):
    assert measure_axu2(fam).epsilon == axu2_oracle(fam)


@pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=lambda f: f.descriptor())
def test_asu2_matches_pair_loop_oracle(fam):
    assert measure_asu2(fam).epsilon == asu2_oracle(fam)


def test_mul_axu2_frozen():
    for m in range(2, 9):
        assert measure_axu2(MulFamily(m)).epsilon == F(1, 2 ** m)


def test_poly_axu2_frozen():
    assert measure_axu2(PolyFamily(4, 2)).epsilon == F(1, 8)
    assert measure_axu2(PolyFamily(4, 3)).epsilon == F(3, 16)


def test_toeplitz_axu2_frozen():
    assert measure_axu2(ToeplitzFamily(4, 3)).epsilon == F(1, 8)


def test_counterexample_axu2_frozen():
    for m in (2, 3, 4):
        assert measure_axu2(CounterexampleFamily(m)).epsilon == F(1, 2 ** m - 1)


KEY_LINEAR_FAMILIES = (
    [MulFamily(m) for m in range(1, 11)]
    + [ToeplitzFamily(n, m) for n, m in ((3, 2), (4, 3), (6, 6), (8, 4), (5, 7), (10, 3))]
    + [PolyFamily(m, 2) for m in range(2, 6)])


@pytest.mark.parametrize("fam", KEY_LINEAR_FAMILIES, ids=lambda f: f.descriptor())
def test_axu2_equals_the_rank_of_the_key_map(fam):
    # mul, Toeplitz and poly with L <= 2 are linear in the key bits too (k -> k^2 is)
    m = measure_axu2(fam)
    assert (m.epsilon, m.witness) == linear_axu2_oracle(fam)


def test_single_message_family_is_trivially_safe():
    fam = TableFamily([7], [[0], [1]])
    assert measure_axu2(fam).epsilon == 0
    assert measure_axu2(fam).witness is None
    assert measure_asu2(fam).epsilon == 0


def test_constant_rows_are_maximally_bad():
    fam = TableFamily([0, 1], [[1, 1], [2, 2]])
    assert measure_axu2(fam).epsilon == 1
    m = measure_asu2(fam)
    assert m.epsilon == F(4, 2) * 1   # |T| * max cell probability = 4 * 1/2


def test_lift_asu2_equals_base_axu2():
    # the library reads the base's axu2 by construction, so hold both to the oracle too
    for base in (MulFamily(2), MulFamily(3), ToeplitzFamily(3, 2),
                 CounterexampleFamily(2)):
        lifted = lift_to_asu2(base)
        assert measure_asu2(lifted).epsilon == measure_axu2(base).epsilon \
            == asu2_oracle(lifted)


def test_axu2_witness_attains_epsilon():
    for fam in SMALL_FAMILIES:
        meas = measure_axu2(fam)
        x1, x2, t = meas.witness
        assert x1 != x2
        hits = sum(1 for k in fam.keys() if fam.tag(k, x1) ^ fam.tag(k, x2) == t)
        assert F(hits, fam.key_count) == meas.epsilon


def test_asu2_witness_attains_epsilon():
    for fam in SMALL_FAMILIES:
        meas = measure_asu2(fam)
        x1, x2, t1, t2 = meas.witness
        assert x1 != x2
        hits = sum(
            1 for k in fam.keys()
            if fam.tag(k, x1) == t1 and fam.tag(k, x2) == t2
        )
        assert F(fam.tag_count * hits, fam.key_count) == meas.epsilon


def test_budget_refusal_names_sampling():
    fam = ToeplitzFamily(12, 12)
    with pytest.raises(BudgetExceeded, match="sample_axu2"):
        measure_axu2(fam)
    with pytest.raises(BudgetExceeded):
        measure_asu2(fam)
    with pytest.raises(BudgetExceeded):
        measure_axu2(MulFamily(4), budget=10)


def test_sampling_is_deterministic_and_below_exact():
    fam = MulFamily(6)
    exact = measure_axu2(fam).epsilon
    a = sample_axu2(fam, pairs=200, seed=9)
    b = sample_axu2(fam, pairs=200, seed=9)
    assert a == b
    assert a.epsilon_estimate <= exact
    assert 0 < a.pair_coverage <= 1
    assert a.interval[0] <= float(a.epsilon_estimate) <= a.interval[1]
    x1, x2, t = a.witness
    hits = sum(1 for k in fam.keys() if fam.tag(k, x1) ^ fam.tag(k, x2) == t)
    assert F(hits, fam.key_count) == a.epsilon_estimate


def test_axu2_is_the_same_on_every_call():
    fam = MulFamily(3)
    first = measure_axu2(fam)
    assert measure_axu2(fam) == first == measure_axu2(MulFamily(3))


def test_axu2_checks_the_budget_on_every_call():
    fam = MulFamily(4)
    measure_axu2(fam)
    with pytest.raises(BudgetExceeded, match="sample_axu2"):
        measure_axu2(fam, budget=10)


def test_measures_store_nothing_on_the_family():
    # no result is kept on the family, and the walk and the asu2 recount build no table
    fam = MulFamily(3)
    state = dict(vars(fam))
    measure_axu2(fam)
    measure_asu2(fam)
    assert vars(fam) == state


def test_sampling_is_held_to_the_budget():
    fam = MulFamily(3)   # 8 keys: one cell per key per sampled pair
    assert sample_axu2(fam, pairs=3, budget=24).pairs_sampled == 3
    with pytest.raises(BudgetExceeded):
        sample_axu2(fam, pairs=3, budget=23)


@pytest.mark.parametrize("pairs", [0, -3])
def test_sampling_needs_at_least_one_pair(pairs):
    with pytest.raises(DomainError):
        sample_axu2(MulFamily(3), pairs=pairs)


class ReorderedMul(MulFamily):
    """GF(2^m) multiplication with messages 0 and 1 swapped: message 0 is not zero."""

    def __init__(self, m):
        super().__init__(m)
        self.messages = [1, 0, *range(2, 1 << m)]


def test_difference_shortcut_checks_zero_message():
    # the walk reads message 0 as the zero difference, so it must hash to 0
    with pytest.raises(VerificationFailed):
        measure_axu2(ReorderedMul(2))


def test_sampling_finds_maximum_on_tiny_family():
    fam = MulFamily(2)
    s = sample_axu2(fam, pairs=500, seed=0)
    assert s.epsilon_estimate == measure_axu2(fam).epsilon


def test_tag_marginal():
    fam = MulFamily(3)
    assert tag_marginal(fam, 0) == {t: F(1 if t == 0 else 0) for t in fam.tags()}
    for x in range(1, 8):
        marg = tag_marginal(fam, x)
        assert all(p == F(1, 8) for p in marg.values())
    lifted = lift_to_asu2(CounterexampleFamily(2))
    for x in lifted.messages:
        marg = tag_marginal(lifted, x)
        assert all(p == F(1, 4) for p in marg.values())


# -- witnesses, budgets and memory of the column counting ----------------------


def as_pair(meas):
    return meas.epsilon, meas.witness


@pytest.mark.parametrize("fam", WITNESS_FAMILIES, ids=lambda f: f.descriptor())
def test_axu2_witness_is_the_first_maximum(fam):
    assert as_pair(measure_axu2(fam)) == axu2_witness_oracle(fam)


@pytest.mark.parametrize("fam", WITNESS_FAMILIES, ids=lambda f: f.descriptor())
def test_asu2_witness_is_the_first_maximum(fam):
    assert as_pair(measure_asu2(fam)) == asu2_witness_oracle(fam)


@st.composite
def tied_tables(draw):
    """TableFamily with at most 6 keys, 5 messages and 1-2-bit tags: ties everywhere."""
    m = draw(st.integers(1, 2))
    nx = draw(st.integers(1, 5))
    kc = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, (1 << m) - 1), min_size=nx, max_size=nx),
                         min_size=kc, max_size=kc))
    return TableFamily(list(range(nx)), rows, m=m)


@settings(max_examples=150, deadline=None)
@given(fam=tied_tables())
def test_witnesses_on_tied_tables(fam):
    assert as_pair(measure_axu2(fam)) == axu2_witness_oracle(fam)
    assert as_pair(measure_asu2(fam)) == asu2_witness_oracle(fam)


@settings(max_examples=150, deadline=None)
@given(fam=tied_tables(), pairs=st.integers(1, 12), seed=st.integers(0, 2 ** 32))
def test_sampled_witness_is_the_first_maximum_in_draw_order(fam, pairs, seed):
    s = sample_axu2(fam, pairs=pairs, seed=seed)
    assert (s.epsilon_estimate, s.witness) == sample_axu2_oracle(fam, pairs, seed)


@pytest.mark.parametrize("measure, build, work", [
    (measure_axu2, lambda: MulFamily(3), 8 * 7),                        # difference walk
    (measure_axu2, lambda: ToeplitzFamily(3, 2), 16 * 7),               # difference walk
    (measure_axu2, lambda: lift_to_asu2(MulFamily(2)), 16 * 4 * 3 // 2),  # pair loop
    (measure_axu2, lambda: TableFamily([0, 1, 2], [[0, 1, 1], [1, 0, 0]]), 2 * 3 * 2 // 2),
    (measure_asu2, lambda: MulFamily(3), 8 * 7 + 2 * 8),                # walk, recount
    (measure_asu2, lambda: PolyFamily(2, 2), 4 * 15 + 2 * 4),           # walk, recount
    (measure_asu2, lambda: ToeplitzFamily(3, 2), 16 * 7 + 2 * 16),      # walk, recount
    (measure_asu2, lambda: lift_to_asu2(MulFamily(2)), 4 * 3 + 2 * 16),  # base walk, recount
    (measure_asu2, lambda: TableFamily([0, 1, 2], [[0, 1, 1], [1, 0, 0]]), 2 * 3 * 2 // 2),
], ids=["axu2-mul", "axu2-toeplitz", "axu2-lift", "axu2-table", "asu2-mul", "asu2-poly",
        "asu2-toeplitz", "asu2-lift", "asu2-table"])
def test_measure_budget_threshold_builds_nothing_when_refused(measure, build, work):
    fam = build()
    base = getattr(fam, "base", fam)
    state = dict(vars(fam)), dict(vars(base))
    with pytest.raises(BudgetExceeded):
        measure(fam, budget=work - 1)
    assert (vars(fam), vars(base)) == state   # no tag table, no result
    assert measure(fam, budget=work) == measure(build())


def test_linear_axu2_reads_basis_columns_only():
    fam = MulFamily(10)
    tracemalloc.start()
    try:
        meas = measure_axu2(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert meas == Measurement("axu2", F(1, 1024), (0, 1, 0))
    assert fam._table is None
    assert peak < 2 << 20   # the full 1024 x 1024 table would take about 8 MB


class OffsetMul(MulFamily):
    """Flagged linear, yet h_k(0) = k: a family the difference walk must refuse."""

    def _tag(self, k, x):
        return self.field.mul(k, x) if x else k


def test_difference_walk_checks_the_zero_column():
    fam = OffsetMul(2)
    assert axu2_oracle(fam) == 1   # the walk from an all-zero column would say 1/4
    with pytest.raises(VerificationFailed):
        measure_axu2(fam)
    with pytest.raises(VerificationFailed):   # the strong bound reads the same walk
        measure_asu2(fam)


class LyingLinear(MulFamily):
    """Flagged linear with h_k(1) = h_k(2) = k, so its basis columns say d = 3 is constant.

    The true h_k(3) = 3 * k in GF(4) is not the XOR of those columns.
    """

    def _tag(self, k, x):
        return k if x in (1, 2) else self.field.mul(k, x)


def test_asu2_recounts_the_witness_cell():
    fam = LyingLinear(2)
    assert measure_axu2(fam).witness == (0, 3, 0)   # the walk believes the basis
    assert asu2_oracle(fam) == 1                     # no cell holds more than one key
    with pytest.raises(VerificationFailed, match="holds 1 keys"):
        measure_asu2(fam)


class LinearTable(TableFamily):
    """A tag table built XOR-linear from basis columns, and flagged so."""

    xor_linear = True


@st.composite
def linear_tables(draw):
    """LinearTable over 1-3 message bits, at most 6 keys and 1-2-bit tags."""
    bits = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    kc = draw(st.integers(1, 6))
    basis = draw(st.lists(st.lists(st.integers(0, (1 << m) - 1), min_size=bits, max_size=bits),
                          min_size=kc, max_size=kc))
    rows = []
    for cols in basis:
        row = []
        for x in range(1 << bits):
            t = 0
            for b, col in enumerate(cols):
                if x >> b & 1:
                    t ^= col
            row.append(t)
        rows.append(row)
    return LinearTable(list(range(1 << bits)), rows, m=m)


@settings(max_examples=150, deadline=None)
@given(fam=linear_tables())
def test_asu2_closed_form_on_linear_tables(fam):
    assert as_pair(measure_asu2(fam)) == asu2_witness_oracle(fam)
    assert fam._table is None


@settings(max_examples=150, deadline=None)
@given(base=tied_tables())
def test_asu2_closed_form_on_lifted_tables(base):
    fam = lift_to_asu2(base)
    assert as_pair(measure_asu2(fam)) == asu2_witness_oracle(fam)
    assert fam._table is None


@pytest.mark.parametrize("build, budget, epsilon", [
    (lambda: PolyFamily(4, 2), DEFAULT_BUDGET, F(2)),          # 16 * 1/8
    (lambda: MulFamily(10), DEFAULT_BUDGET, F(1)),             # 1024 * 1023 + 2 * 1024 cells
    (lambda: lift_to_asu2(MulFamily(6)), DEFAULT_BUDGET, F(1, 64)),
], ids=["poly:m=4,L=2", "mul:m=10", "lift(mul:m=6)"])
def test_asu2_closed_form_builds_no_tag_table(build, budget, epsilon):
    fam = build()
    base = getattr(fam, "base", fam)
    tracemalloc.start()
    try:
        meas = measure_asu2(fam, budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert meas.epsilon == epsilon
    assert fam._table is None and base._table is None
    assert peak < 1 << 20   # mul:m=10's table would take about 8 MB, lift(mul:m=6)'s 2 MB


def test_epsilon_sweep_script_runs_under_O():
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(recmac.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-O", str(repo / "scripts" / "epsilon_sweep.py")],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert "poly:m=4,L=4" in r.stdout and "lifted asu2" in r.stdout


# -- the value classes -------------------------------------------------------------


@pytest.mark.parametrize("cls, fields, changed", [
    (Measurement, {"kind": "axu2", "epsilon": F(1, 4), "witness": ((0, 1), 2)},
     ("epsilon", F(1, 2))),
    (SampledMeasurement,
     {"kind": "axu2", "epsilon_estimate": F(1, 8), "interval": (0.1, 0.2), "pairs_sampled": 3,
      "pair_coverage": F(1, 2), "seed": 0, "witness": None},
     ("seed", 1)),
], ids=["Measurement", "SampledMeasurement"])
def test_value_classes_keep_the_frozen_dataclass_contract(cls, fields, changed):
    record_contract(cls, fields, changed)