"""Key-elimination attack accounting, held against honest full enumeration."""

import csv
import io
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import recmac
from recmac import attack, measure
from recmac import (
    DEFAULT_BUDGET,
    AuthKey,
    BudgetExceeded,
    CounterexampleFamily,
    AttackReport,
    DomainError,
    ExactEntropy,
    MonteCarloReport,
    MulFamily,
    PolyFamily,
    RoundRecord,
    TableFamily,
    ToeplitzFamily,
    authenticate,
    entropy_of,
    lift_to_asu2,
    parse_family,
    posterior_entropy,
    run_attack_exact,
    run_attack_montecarlo,
    sample_transcript,
    success_recurrence,
    verify,
)

from conftest import (
    attack_report_oracle, build_table16, difference_counts_oracle, montecarlo_hits_oracle,
    record_contract,
)


def attack_success_oracle(fam, rounds):
    """Success probability by enumerating every (k1, pad vector) honestly.

    Round i replaces the observed (x, t) with (x_sub, t ^ i) and runs the real
    verifier; the attack stops at the first acceptance.
    """
    x, x_sub = fam.messages[0], fam.messages[1]
    hits = 0
    total = 0
    for k1 in fam.keys():
        for pads in itertools.product(fam.tags(), repeat=rounds):
            total += 1
            for i, pad in enumerate(pads):
                key = AuthKey(k1, pad)
                ym = authenticate(fam, key, x)
                if verify(fam, key, ym._replace(x=x_sub, t=ym.t ^ i)) is not None:
                    hits += 1
                    break
    return F(hits, total)


def test_success_matches_honest_enumeration():
    m2 = MulFamily(2)
    for rounds in (1, 2, 3, 4):
        assert run_attack_exact(m2, rounds).success_prob == \
            attack_success_oracle(m2, rounds)
    m3 = MulFamily(3)
    for rounds in (1, 2):
        assert run_attack_exact(m3, rounds).success_prob == \
            attack_success_oracle(m3, rounds)


def test_success_and_conditionals_frozen():
    fam = MulFamily(2)
    for rounds in (1, 2, 3, 4):
        rep = run_attack_exact(fam, rounds)
        assert rep.success_prob == F(rounds, 4) == rep.success_formula
        assert rep.per_round_conditional == tuple(
            F(1, 4 - i) for i in range(rounds)
        )
        assert rep.x == 0 and rep.x_sub == 1


def test_success_recurrence_closed_form():
    for fam in (MulFamily(2), MulFamily(3), ToeplitzFamily(3, 2)):
        eps = F(1, fam.tag_count)
        rec = success_recurrence(fam, fam.tag_count - 1)
        assert list(rec) == [eps / (1 - l * eps) for l in range(fam.tag_count)]
    with pytest.raises(DomainError):
        success_recurrence(MulFamily(2), 4)
    with pytest.raises(DomainError, match="l_max"):
        success_recurrence(MulFamily(2), 4, budget=1)   # checked before the budget
    with pytest.raises(BudgetExceeded):
        success_recurrence(MulFamily(2), 3, budget=1)


def test_requires_uniform_difference():
    with pytest.raises(DomainError, match="1/\\|T\\|"):
        run_attack_exact(PolyFamily(4, 2), 1)
    with pytest.raises(DomainError):
        posterior_entropy(CounterexampleFamily(2), 1)
    with pytest.raises(DomainError):
        run_attack_exact(MulFamily(2), 0)
    with pytest.raises(DomainError):
        run_attack_exact(MulFamily(2), 5)
    with pytest.raises(DomainError):
        run_attack_exact(TableFamily([7], [[0], [1]]), 1)


@pytest.mark.parametrize("build", [lambda: MulFamily(3), lambda: ToeplitzFamily(3, 2),
                                   build_table16], ids=["mul3", "toeplitz3x2", "table16"])
def test_attack_rows_count_the_differences_once(build, monkeypatch):
    fam = build()
    rows = fam.tag_count
    counts = difference_counts_oracle(fam)
    expected = [attack_report_oracle(fam, counts, l) for l in range(1, rows + 1)]
    calls = []
    real = measure._difference_column
    monkeypatch.setattr(measure, "_difference_column",
                        lambda *a: calls.append(a) or real(*a))
    assert attack._attack_reports(fam, rows, DEFAULT_BUDGET) == expected
    assert len(calls) == 1
    with pytest.raises(DomainError, match=f"rounds must be in 1..{rows}"):
        attack._attack_reports(fam, 0, 1)
    with pytest.raises(DomainError, match=f"rounds must be in 1..{rows}"):
        attack._attack_reports(fam, rows + 1, DEFAULT_BUDGET)
    with pytest.raises(DomainError, match=f"rounds must be in 1..{rows}"):
        attack._attack_reports(fam, rows + 1, 1)   # checked before the budget
    with pytest.raises(BudgetExceeded):
        attack._attack_reports(build(), 1, 1)


# differences 1, 2, 0, 3, 0 on the attack pair: guess 0 covers 2 of the 5 keys
TABLE5 = TableFamily(["a", "b", "c"], [[0, 1, 2], [1, 3, 0], [2, 2, 1], [3, 0, 3], [1, 1, 2]])

# every family the attack tests use; the pass runs on any counts, the entry
# points only on families whose two-point bound is 1/|T|
ATTACK_FAMILIES = [MulFamily(1), MulFamily(2), MulFamily(3), MulFamily(4), ToeplitzFamily(3, 2),
                   build_table16(), CounterexampleFamily(2), CounterexampleFamily(3),
                   PolyFamily(2, 2), PolyFamily(4, 2), TableFamily([7], [[0], [1]]), TABLE5]
UNIFORM = [f for f in ATTACK_FAMILIES
           if measure.measure_axu2(f).epsilon == F(1, f.tag_count)]


def defined_rounds(nk, counts):
    """The last round whose conditionals all have a nonzero denominator."""
    last = 0
    while last < len(counts) and nk - sum(counts[:last]) > 0:
        last += 1
    return last


@pytest.mark.parametrize("fam", [f for f in ATTACK_FAMILIES if len(f.messages) > 1],
                         ids=lambda f: f.descriptor())
def test_the_pass_equals_the_per_round_oracle(fam):
    counts = difference_counts_oracle(fam)
    last = defined_rounds(fam.key_count, counts)
    assert list(attack._reports(fam, counts, last)) == \
        [attack_report_oracle(fam, counts, r) for r in range(last + 1)]
    assert list(attack._reports(fam, counts, last, last)) == \
        [attack_report_oracle(fam, counts, last)]


@pytest.mark.parametrize("fam", UNIFORM, ids=lambda f: f.descriptor())
def test_every_entry_point_reads_the_oracle_rows(fam):
    counts = difference_counts_oracle(fam)
    tc = fam.tag_count
    rows = [attack_report_oracle(fam, counts, r) for r in range(tc + 1)]
    assert attack._attack_reports(fam, tc, DEFAULT_BUDGET) == rows[1:]
    assert attack._attack_reports(fam, tc, DEFAULT_BUDGET, first=0) == rows
    for r, row in enumerate(rows):
        assert posterior_entropy(fam, r) == (row.entropy_bits, row.entropy_formula_bits)
        if r:
            assert run_attack_exact(fam, r) == row
    for l_max in range(tc):
        assert success_recurrence(fam, l_max) == list(rows[l_max + 1].per_round_conditional)


def test_rows_are_linear_in_the_rounds(monkeypatch):
    # 256 rows: one difference column, O(R) logarithms and O(R) masses handed
    # to entropy_of, where rebuilding each row handed it R(R+3)/2 masses
    fam = ToeplitzFamily(1, 8)
    rounds = fam.tag_count
    columns, logs, masses = [], [], []
    column, log2, entropy = measure._difference_column, ExactEntropy.log2, attack.entropy_of
    monkeypatch.setattr(measure, "_difference_column",
                        lambda *a: columns.append(a) or column(*a))
    monkeypatch.setattr(ExactEntropy, "log2",
                        classmethod(lambda cls, q: logs.append(q) or log2(q)))
    monkeypatch.setattr(attack, "entropy_of", lambda p: masses.extend(p) or entropy(p))
    reports = attack._attack_reports(fam, rounds, DEFAULT_BUDGET)
    assert [r.rounds for r in reports] == list(range(1, rounds + 1))
    assert reports[-1].success_prob == 1 and reports[-1].entropy_bits == ExactEntropy()
    assert len(columns) == 1
    assert len(logs) <= 3 * rounds + 3
    assert len(masses) == 2 * rounds


def test_rows_budget_counts_every_conditional(monkeypatch):
    # toeplitz:n=1,m=3: 8 rows hold 36 conditionals, more than its 8-cell axu2 walk
    measured, measure = [], attack.measure_axu2
    monkeypatch.setattr(attack, "measure_axu2",
                        lambda f, budget: measured.append(f) or measure(f, budget))
    fam = ToeplitzFamily(1, 3)
    for rounds in (4, 7, 8):
        cells = rounds * (rounds + 1) // 2
        assert len(attack._attack_reports(ToeplitzFamily(1, 3), rounds, cells)) == rounds
        with pytest.raises(BudgetExceeded,
                           match=f"exact attack rows for toeplitz:n=1,m=3 needs {cells} cells, "
                                 f"budget is {cells - 1}$"):
            attack._attack_reports(fam, rounds, cells - 1)
    assert len(measured) == 3 and fam not in measured   # a refused call measures nothing


# -- exact entropy arithmetic ---------------------------------------------------


def test_exact_entropy_is_canonical():
    assert ExactEntropy.log2(8) == ExactEntropy(F(3), ())
    assert ExactEntropy.log2(12) == ExactEntropy(F(2), ((3, F(1)),))
    assert ExactEntropy.log2(F(1, 3)) + ExactEntropy.log2(3) == ExactEntropy()
    assert ExactEntropy.log2(6) + ExactEntropy.log2(10) == ExactEntropy.log2(60)
    assert ExactEntropy.log2(5).scaled(F(1, 2)) == \
        ExactEntropy(F(0), ((5, F(1, 2)),))
    assert ExactEntropy.log2(3) != ExactEntropy(F(1585, 1000), ())
    with pytest.raises(ValueError):
        ExactEntropy.log2(0)
    with pytest.raises(ValueError):
        ExactEntropy.log2(-2)


def test_entropy_of_uniform_and_float_agreement():
    for n in (1, 2, 3, 4, 6, 12):
        h = entropy_of([F(1, n)] * n)
        assert h == ExactEntropy.log2(n)
        assert abs(float(h) - math.log2(n)) < 1e-12
    h = entropy_of([F(1, 2), F(1, 4), F(1, 4), F(0)])
    assert h == ExactEntropy(F(3, 2), ())
    with pytest.raises(ValueError):
        entropy_of([F(-1, 2), F(3, 2)])


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6))
def test_entropy_of_matches_float_formula(raw):
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    probs = [F(w, total) for w in raw]
    h = entropy_of(probs)
    want = -sum(float(p) * math.log2(float(p)) for p in probs if p)
    assert abs(float(h) - want) < 1e-9


@settings(max_examples=60)
@given(st.lists(st.sampled_from([0, 1, 1, 2, 3, 6]), min_size=1, max_size=12))
def test_entropy_of_equals_per_term_sum(raw):
    if sum(raw) == 0:
        raw[0] = 1
    probs = [F(w, sum(raw)) for w in raw]
    want = ExactEntropy()
    for p in probs:
        if p:
            want = want + ExactEntropy.log2(1 / p).scaled(p)
    assert entropy_of(probs) == want


# -- posterior entropy ----------------------------------------------------------


@settings(max_examples=80)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
       st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=4))
def test_grouped_class_entropy_equals_per_term_sum(counts, rounds, spare):
    # the pass adds one entropy term per class and the oracle groups classes of
    # equal size; unique factorization makes both the per-term sum
    nk = sum(counts) + spare
    if nk == 0:
        return
    rounds = min(rounds, defined_rounds(nk, counts))
    fam = SimpleNamespace(key_count=nk, tag_count=len(counts), messages=(0, 1))
    want = ExactEntropy()
    for c in [*counts[:rounds], nk - sum(counts[:rounds])]:
        if c:
            want = want + ExactEntropy.log2(c).scaled(F(c, nk))
    reports = list(attack._reports(fam, counts, rounds))
    assert reports[-1].entropy_bits == want
    assert reports == [attack_report_oracle(fam, counts, r) for r in range(rounds + 1)]


def entropy_oracle(fam, rounds):
    """H(K1 | transcript) by enumerating (k1, pads) and grouping transcripts.

    The transcript is the full view: tagged messages, substituted wires, and
    accept/reject bits.  Entropy is computed per transcript class from the
    empirical posterior over k1, all in exact arithmetic.
    """
    x, x_sub = fam.messages[0], fam.messages[1]
    groups: dict[tuple, dict[int, int]] = {}
    total = 0
    for k1 in fam.keys():
        for pads in itertools.product(fam.tags(), repeat=rounds):
            view = []
            for i, pad in enumerate(pads):
                key = AuthKey(k1, pad)
                ym = authenticate(fam, key, x)
                forged = ym._replace(x=x_sub, t=ym.t ^ i)
                ok = verify(fam, key, forged) is not None
                view.append((ym.t, forged.t, ok))
                if ok:
                    break
            z = tuple(view)
            groups.setdefault(z, {}).setdefault(k1, 0)
            groups[z][k1] += 1
            total += 1
    acc = ExactEntropy()
    for z, byk in groups.items():
        nz = sum(byk.values())
        post = [F(c, nz) for c in byk.values()]
        acc = acc + entropy_of(post).scaled(F(nz, total))
    return acc


def test_posterior_entropy_matches_transcript_oracle():
    fam = MulFamily(2)
    for rounds in (0, 1, 2, 3, 4):
        computed, formula = posterior_entropy(fam, rounds)
        assert computed == formula
        if rounds:
            assert computed == entropy_oracle(fam, rounds)
    assert float(posterior_entropy(fam, 0)[0]) == 2.0
    assert posterior_entropy(fam, 2)[0] == ExactEntropy(F(1, 2), ())


def test_posterior_entropy_closed_form_m3():
    fam = MulFamily(3)
    for rounds in range(0, 9):
        computed, formula = posterior_entropy(fam, rounds)
        assert computed == formula


def test_table16_entropy_frozen():
    fam = build_table16()
    computed, formula = posterior_entropy(fam, 2)
    assert computed == formula == ExactEntropy(F(5, 2), ())
    assert float(computed) == 2.5
    assert float(posterior_entropy(fam, 0)[0]) == 4.0


def test_tags_alone_leak_nothing():
    # Conditioned on the message-tag pairs only (acceptance bits withheld),
    # the posterior over k1 stays exactly uniform.
    fam = MulFamily(2)
    rounds = 2
    x = fam.messages[0]
    counts: dict[tuple, dict[int, int]] = {}
    for k1 in fam.keys():
        for pads in itertools.product(fam.tags(), repeat=rounds):
            tags = tuple(
                authenticate(fam, AuthKey(k1, pad), x).t for pad in pads
            )
            counts.setdefault(tags, {}).setdefault(k1, 0)
            counts[tags][k1] += 1
    for tags, byk in counts.items():
        nz = sum(byk.values())
        for k1 in fam.keys():
            assert F(byk.get(k1, 0), nz) == F(1, fam.key_count)


@pytest.mark.parametrize("desc", ["mul:m=3", "toeplitz:n=3,m=2"])
def test_key_leak_curve_script_prints_the_exact_curve(desc):
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(recmac.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, str(repo / "scripts" / "key_leak_curve.py"),
                        "--family", desc, "--format", "csv"],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                       timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
    fam = parse_family(desc)
    tc = fam.tag_count
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert [int(row["rounds"]) for row in rows] == list(range(tc + 1))
    for l, row in enumerate(rows):
        assert F(row["success"]) == F(l, tc)
        assert row["conditional"] == ("" if l == tc else str(F(1, tc - l)))
        assert float(row["entropy_bits"]) == float(posterior_entropy(fam, l)[0])


# -- sampled transcripts and Monte Carlo ------------------------------------------


def test_sample_transcript_shape():
    fam = MulFamily(2)
    rng = random.Random(11)
    for _ in range(50):
        rounds = sample_transcript(fam, 3, rng)
        assert type(rounds) is tuple and 1 <= len(rounds) <= 3
        # only the last round may accept, and a run stops short only on an accept
        accepted = [r.accepted for r in rounds]
        assert not any(accepted[:-1])
        assert accepted[-1] or len(rounds) == 3
        for i, rec in enumerate(rounds):
            assert type(rec) is RoundRecord and rec.x == 0 and rec.x_sub == 1
            assert rec.t_sub == rec.t ^ i   # round i substitutes with guess i


def test_montecarlo_deterministic_and_calibrated():
    fam = MulFamily(4)
    a = run_attack_montecarlo(fam, 3, trials=20000, seed=5)
    b = run_attack_montecarlo(fam, 3, trials=20000, seed=5)
    assert a == b
    assert a.rate == F(a.hits, a.trials)
    assert a.expected == F(3, 16)
    assert a.interval[0] <= float(a.rate) <= a.interval[1]
    assert a.within_3sigma
    with pytest.raises(DomainError):
        run_attack_montecarlo(fam, 0, trials=10)
    with pytest.raises(DomainError):
        run_attack_montecarlo(fam, 1, trials=0)


@pytest.mark.parametrize("fam, rounds", [(CounterexampleFamily(3), 1),
                                         (CounterexampleFamily(3), 3),
                                         (PolyFamily(2, 2), 2),
                                         (TABLE5, 1)],
                         ids=["counterexample-1", "counterexample-3", "poly-2", "table5-1"])
def test_montecarlo_expects_the_exact_prefix_share(fam, rounds):
    # the share of keys whose difference on the attack pair is below `rounds`,
    # not rounds/|T|: on the counterexample every difference is nonzero, so
    # guess 0 never wins
    x, x_sub = fam.messages[0], fam.messages[1]
    covered = sum(fam.tag(k, x) ^ fam.tag(k, x_sub) < rounds for k in fam.keys())
    rep = run_attack_montecarlo(fam, rounds, trials=2000, seed=0)
    assert rep.expected == F(covered, fam.key_count)
    assert rep.within_3sigma
    if isinstance(fam, CounterexampleFamily) and rounds == 1:
        assert rep.expected == rep.rate == 0


def test_montecarlo_budget_holds_the_exact_expected_rate():
    fam = MulFamily(4)   # 16 keys
    assert run_attack_montecarlo(fam, 1, trials=1, budget=16).expected == F(1, 16)
    with pytest.raises(BudgetExceeded, match="exact expected rate .* needs 16 cells"):
        run_attack_montecarlo(fam, 1, trials=1, budget=15)


def test_montecarlo_matches_exact_engine_loosely():
    fam = MulFamily(3)
    exact = run_attack_exact(fam, 2).success_prob
    mc = run_attack_montecarlo(fam, 2, trials=30000, seed=2)
    p = float(exact)
    sigma = math.sqrt(p * (1 - p) / mc.trials)
    assert abs(float(mc.rate) - p) <= 3 * sigma


def transcript_hits(fam, rounds, trials, seed):
    rng = random.Random(seed)
    return sum(any(r.accepted for r in sample_transcript(fam, rounds, rng))
               for _ in range(trials))


# 7 keys and a 5-key table: key counts that are not powers of two, so the k1
# draw is rejected and redrawn as often as the pads are
MC_FAMILIES = [MulFamily(1), MulFamily(2), MulFamily(3), CounterexampleFamily(3),
               TABLE5, build_table16()]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("fam", [MulFamily(2), MulFamily(3), build_table16()],
                         ids=lambda f: f.descriptor())
def test_montecarlo_hits_match_sample_transcript(fam, seed):
    # Both draw k1 and then one pad per round, so on the same seed every trial
    # of the per-trial engine replays one protocol-path transcript.
    trials = 400
    for rounds in sorted({1, 2, fam.tag_count - 1, fam.tag_count}):
        assert run_attack_montecarlo(fam, rounds, trials, seed).hits == \
            transcript_hits(fam, rounds, trials, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(MC_FAMILIES),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=120))
def test_montecarlo_hits_match_sample_transcript_on_any_seed(seed, fam, rounds, trials):
    rounds = min(rounds, fam.tag_count)
    hits = run_attack_montecarlo(fam, rounds, trials, seed).hits
    assert hits == transcript_hits(fam, rounds, trials, seed)
    assert hits == montecarlo_hits_oracle(fam, rounds, trials, seed)


# k1 and 16 pads a trial: 2^15 // 17 = 1927 trials of mul:m=8 fill about 2^15
# kept words, eight chunks of 2^13 drawn words, so the counts around it end
# inside a chunk and each case refills
MC_EDGE_CASES = [
    (MulFamily(8), 16, 1),
    (MulFamily(8), 16, 1926),
    (MulFamily(8), 16, 1927),
    (MulFamily(8), 16, 1928),
    (MulFamily(4), 16, 300),                          # rounds = |T|: every trial hits
    (MulFamily(8), 181, 40),                          # about 22 trials a chunk
    (MulFamily(8), 256, 30),                          # ... and rounds = |T|
    (MulFamily(16), 32773, 3),                        # a trial longer than a chunk
    (ToeplitzFamily(10, 7), 5, 300),                  # 2^16 keys, three key columns
    (lift_to_asu2(MulFamily(3)), 5, 500),             # 64 keys, 8 tags
    (TableFamily(["a", "b"], [[1, 3]]), 3, 300),      # one key, no key bits: every trial hits
]


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("fam, rounds, trials", MC_EDGE_CASES,
                         ids=lambda v: getattr(v, "descriptor", lambda: str(v))())
def test_montecarlo_hits_match_the_oracles_at_window_and_chunk_edges(fam, rounds, trials, seed):
    hits = run_attack_montecarlo(fam, rounds, trials, seed, budget=2**30).hits
    assert hits == montecarlo_hits_oracle(fam, rounds, trials, seed)
    assert hits == transcript_hits(fam, rounds, trials, seed)


@pytest.mark.parametrize("m", range(1, 17))
def test_montecarlo_hits_match_the_oracles_on_every_mul_size(m):
    # half the tag space in rounds, so hits and misses both occur; from m = 14
    # on a trial is longer than a chunk of words
    fam = MulFamily(m)
    rounds = max(1, fam.tag_count // 2)
    trials = max(2, 2000 // rounds)
    hits = run_attack_montecarlo(fam, rounds, trials, seed=m).hits
    assert hits == montecarlo_hits_oracle(fam, rounds, trials, m)
    assert hits == transcript_hits(fam, rounds, trials, m)


def test_montecarlo_pins_the_benchmark_hits():
    # the benchmark's game job, counted by the per-draw engine before the bulk path
    fam = MulFamily(8)
    assert run_attack_montecarlo(fam, 16, 100_000, seed=0).hits == 6304
    assert run_attack_montecarlo(fam, 16, 100_000, seed=1).hits == 6314


def test_montecarlo_keeps_the_per_draw_engine_off_power_of_two_counts(monkeypatch):
    # 7 keys: k1 is redrawn on its own rule, so which words a trial keeps
    # depends on what each word is drawn for, and the per-draw engine runs
    fam = CounterexampleFamily(3)
    calls = []
    real = attack._drawn_k1s
    monkeypatch.setattr(attack, "_drawn_k1s", lambda *a: calls.append(a[1:3]) or real(*a))
    run_attack_montecarlo(fam, 3, 50, seed=2)
    run_attack_montecarlo(MulFamily(3), 3, 50, seed=2)
    assert calls == [(7, 8)]


def replayed_k1s(seed, kc, tc, rounds, trials):
    """Each trial's k1 on random.Random(seed): randrange(kc), then `rounds` pads."""
    rng = random.Random(seed)
    k1s = []
    for _ in range(trials):
        k1s.append(rng.randrange(kc))
        for _ in range(rounds):
            rng.randrange(tc)
    return k1s


@pytest.mark.parametrize("kbits", range(29))
def test_bulk_k1s_replay_randrange_at_every_key_size(kbits):
    # one key column up to 7 bits, four from 22 on; any power-of-two tag count
    # up to 2^28 draws the same words.  3000 trials of 4 words cross chunks of
    # 2^13 words; a trial of 20001 words is longer than a chunk.
    for seed, (tbits, rounds, trials) in enumerate([(1, 3, 3000), (28, 3, 3000),
                                                    (kbits, 20000, 3)]):
        got = attack._bulk_k1s(random.Random(seed).getrandbits, kbits, rounds + 1, trials)
        assert list(got) == replayed_k1s(seed, 2**kbits, 2**tbits, rounds, trials)


@pytest.mark.parametrize("kc, tc", [(1, 3), (5, 4), (7, 8), (8, 7), (257, 2), (2**16 + 1, 257),
                                    (2**28, 2**29), (2**29, 2)])
def test_drawn_k1s_replay_randrange(kc, tc):
    for seed, (rounds, trials) in enumerate([(1, 500), (5, 200), (40, 30)]):
        got = attack._drawn_k1s(random.Random(seed).getrandbits, kc, tc, rounds, trials)
        assert list(got) == replayed_k1s(seed, kc, tc, rounds, trials)


def test_montecarlo_memory_does_not_grow_with_trials():
    # a chunk of words, whatever the trial count; the count of each k1 drawn
    # holds at most |K| = 256 entries here
    fam = MulFamily(8)
    run_attack_montecarlo(fam, 16, 1000)
    peaks = []
    for trials in (20_000, 200_000):
        tracemalloc.start()
        try:
            run_attack_montecarlo(fam, 16, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * 2**20
    assert peaks[1] <= peaks[0] + 64 * 1024


SIZES = (1, 2, 3, 7, 8, 255, 256, 257, 2**16, 2**16 + 1)


def test_randrange_is_getrandbits_rejection():
    # run_attack_montecarlo replays randrange(n) as getrandbits(n.bit_length())
    # redrawn while >= n; this pins that CPython contract
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits

    def below(getrandbits, n):
        r = getrandbits(n.bit_length())
        while r >= n:
            r = getrandbits(n.bit_length())
        return r

    for kc, tc in itertools.product(SIZES, repeat=2):
        for seed in range(8):
            rng, mirror = random.Random(seed), random.Random(seed).getrandbits
            for _ in range(6):   # one key-sized draw, then a trial's pads
                for n in (kc, tc, tc, tc):
                    assert below(mirror, n) == rng.randrange(n)


def test_getrandbits_is_words_least_significant_first():
    # run_attack_montecarlo's bulk path reads a draw below 2^b, b < 32, as one
    # 32-bit word and bulk draws as successive words; this pins both contracts
    for seed in range(6):
        for words in (1, 2, 3, 64, 1000):
            bulk, single = random.Random(seed), random.Random(seed)
            assert bulk.getrandbits(32 * words) == \
                sum(single.getrandbits(32) << 32 * i for i in range(words))
        short, whole = random.Random(seed), random.Random(seed)
        for _ in range(3):
            for k in range(1, 33):
                assert short.getrandbits(k) == whole.getrandbits(32) >> (32 - k)


def test_montecarlo_budget_counts_every_round():
    fam = MulFamily(4)
    assert run_attack_montecarlo(fam, 2, trials=10, budget=20).trials == 10
    with pytest.raises(BudgetExceeded, match="Monte Carlo"):
        run_attack_montecarlo(fam, 2, trials=10, budget=19)


# -- the value classes -------------------------------------------------------------


@pytest.mark.parametrize("cls, fields, changed", [
    (ExactEntropy, {"rational": F(1, 2), "terms": ((3, F(1)),)}, ("terms", ())),
    (AttackReport,
     {"rounds": 1, "x": 0, "x_sub": 1, "success_prob": F(1, 4), "success_formula": F(1, 4),
      "per_round_conditional": (F(1, 4),), "entropy_bits": ExactEntropy(F(2)),
      "entropy_formula_bits": ExactEntropy(F(2))},
     ("entropy_bits", ExactEntropy(F(1)))),
    (MonteCarloReport,
     {"rounds": 2, "trials": 10, "hits": 3, "rate": F(3, 10), "expected": F(1, 4),
      "interval": (0.0, 0.7), "within_3sigma": True, "seed": 0},
     ("hits", 4)),
], ids=["ExactEntropy", "AttackReport", "MonteCarloReport"])
def test_value_classes_keep_the_frozen_dataclass_contract(cls, fields, changed):
    record_contract(cls, fields, changed)


def test_exact_entropy_defaults_to_zero():
    zero = ExactEntropy()
    assert zero == ExactEntropy(F(0), ()) == ExactEntropy.log2(1) == entropy_of([F(1)])
    assert (zero.rational, zero.terms, float(zero)) == (0, (), 0.0)
    assert ExactEntropy(rational=F(3)) == ExactEntropy.log2(8)
