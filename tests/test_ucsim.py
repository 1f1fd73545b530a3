"""Real/ideal executions, held against a from-scratch counting oracle.

The headline test enumerates EVERY deterministic substitution strategy of
the smallest interesting instance and checks that the library's worst-case
search equals the true maximum.  Strategies only matter through their action
on wire messages the sender can actually emit, so "every strategy" means
every map from the reachable wire messages to arbitrary wire values.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from recmac import (
    BudgetExceeded,
    CounterexampleFamily,
    CounterexampleProtocol,
    Dist,
    DomainError,
    EnvStrategy,
    MulFamily,
    PolyFamily,
    SchemaMismatch,
    TableFamily,
    ToeplitzFamily,
    VerificationFailed,
    WcProtocol,
    impersonation_distance,
    lift_to_asu2,
    measure_asu2,
    measure_axu2,
    run_ideal,
    run_real,
    statistical_distance,
    uc_distance,
    worst_case_distance,
    worst_case_impersonation,
    worst_case_substitution,
)
from recmac import ucsim
from recmac.ucsim import FIELDS_IMP, FIELDS_SUB

from conftest import (
    build_table16, domain_error, impersonation_tv_oracle, record_contract, run_oracle,
    substitution_tv_oracle,
)


def all_wires(fam):
    return [(x, t) for x in fam.messages for t in fam.tags()]


def protocol_of(target, recycle):
    """The protocol a run or search plays on `target`: WcProtocol on a family."""
    return target if isinstance(target, ucsim.AuthProtocol) else WcProtocol(target, recycle)


# -- schemas and basic runs ---------------------------------------------------


def test_run_schemas():
    fam = MulFamily(2)
    env = EnvStrategy.substitute(0, {})
    assert run_real(fam, env, recycle=True).fields == FIELDS_SUB
    assert run_real(fam, env, recycle=False).fields == FIELDS_SUB[:-1]
    imp = EnvStrategy.impersonate((1, 2))
    assert run_real(fam, imp, recycle=True).fields == FIELDS_IMP
    assert run_ideal(fam, imp, recycle=False).fields == FIELDS_IMP[:-1]


def test_identity_environment_is_perfectly_simulated():
    for fam, recycle in [
        (MulFamily(2), True),
        (MulFamily(3), True),
        (ToeplitzFamily(3, 2), True),
        (lift_to_asu2(MulFamily(2)), False),
    ]:
        for x in fam.messages:
            env = EnvStrategy.substitute(x, {})
            assert uc_distance(fam, env, recycle=recycle) == 0
            assert run_real(fam, env, recycle=recycle) == \
                run_ideal(fam, env, recycle=recycle)


def test_fixed_substitution_frozen_value():
    fam = MulFamily(2)
    env = EnvStrategy.substitute(0, {(0, t): (1, t) for t in range(4)})
    assert uc_distance(fam, env, recycle=True) == F(1, 4)


def test_y_marginal_identical_in_both_worlds():
    fam = MulFamily(2)
    env = EnvStrategy.substitute(0, {(0, 0): (1, 3)})
    r = run_real(fam, env, recycle=True).project(("x", "y"))
    i = run_ideal(fam, env, recycle=True).project(("x", "y"))
    assert r == i


# -- exhaustive strategy enumeration (the oracle holds the maximum) -----------


def test_all_deterministic_strategies_mul2():
    fam = MulFamily(2)
    eps = measure_axu2(fam).epsilon
    wires = all_wires(fam)
    best = F(0)
    x = 0
    reachable = [(x, t) for t in fam.tags()]
    spot = 0
    for choice in itertools.product(wires, repeat=len(reachable)):
        subst = {y: yp for y, yp in zip(reachable, choice) if yp != y}
        d = substitution_tv_oracle(fam, x, subst, recycle=True)
        assert d <= eps
        best = max(best, d)
        spot += 1
        if spot % 997 == 0:   # cross-validate the library pipeline on a sample
            env = EnvStrategy.substitute(x, subst)
            assert uc_distance(fam, env, recycle=True) == d
    lib_best, lib_env = worst_case_substitution(fam, recycle=True)
    assert lib_best == best == eps
    # the witness strategy really attains the maximum, per the oracle
    (wx,) = next(iter(lib_env.msg_dist.weights))
    assert substitution_tv_oracle(fam, wx, dict(lib_env.subst), recycle=True) == best


def test_worst_case_matches_epsilon_with_verified_witness():
    for fam in (MulFamily(2), MulFamily(3), ToeplitzFamily(3, 2)):
        eps = measure_axu2(fam).epsilon
        d, env = worst_case_substitution(fam, recycle=True)
        assert d == eps
        (x,) = next(iter(env.msg_dist.weights))
        assert substitution_tv_oracle(fam, x, dict(env.subst), recycle=True) == d


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_strategies_never_beat_epsilon(data):
    fam = MulFamily(2)
    eps = measure_axu2(fam).epsilon
    wires = all_wires(fam)
    x = data.draw(st.sampled_from(list(fam.messages)))
    reachable = [(x, t) for t in fam.tags()]
    subst = {}
    for y in reachable:
        if data.draw(st.booleans()):
            subst[y] = data.draw(st.sampled_from(wires))
    env = EnvStrategy.substitute(x, subst)
    d = uc_distance(fam, env, recycle=True)
    assert d <= eps
    assert d == substitution_tv_oracle(fam, x, subst, recycle=True)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_strategies_standard_mode_oracle_agreement(data):
    fam = lift_to_asu2(MulFamily(2))
    eps = measure_asu2(fam).epsilon
    wires = all_wires(fam)
    x = data.draw(st.sampled_from(list(fam.messages)))
    subst = {}
    for t in fam.tags():
        if data.draw(st.booleans()):
            subst[(x, t)] = data.draw(st.sampled_from(wires))
    env = EnvStrategy.substitute(x, subst)
    d = uc_distance(fam, env, recycle=False)
    assert d <= eps
    assert d == substitution_tv_oracle(fam, x, subst, recycle=False)


def test_mixture_distance_is_average_of_point_distances():
    fam = MulFamily(2)
    subst = {(0, 0): (1, 0), (1, 2): (3, 2)}
    envs = [EnvStrategy.substitute(x, subst) for x in (0, 1)]
    parts = [uc_distance(fam, e, recycle=True) for e in envs]
    mix = EnvStrategy.substitute(
        Dist(("x",), {(0,): F(1, 2), (1,): F(1, 2)}), subst
    )
    assert uc_distance(fam, mix, recycle=True) == (parts[0] + parts[1]) / 2


# -- impersonation ------------------------------------------------------------


def test_impersonation_with_recycling_is_inverse_tag_count_everywhere():
    for fam in (MulFamily(2), MulFamily(3), ToeplitzFamily(3, 2)):
        want = F(1, fam.tag_count)
        for wire in all_wires(fam):
            assert impersonation_distance(fam, wire, recycle=True) == want
            assert impersonation_tv_oracle(fam, wire, recycle=True) == want
        d, env = worst_case_impersonation(fam, recycle=True)
        assert d == want and env.mode == "impersonation"


def test_impersonation_never_beats_substitution_for_tagged_message_schemes():
    fams = [MulFamily(2), MulFamily(3), ToeplitzFamily(3, 2)]
    for fam in fams:
        di, _ = worst_case_impersonation(fam, recycle=True)
        ds, _ = worst_case_substitution(fam, recycle=True)
        assert di <= ds
    for base in (MulFamily(2), ToeplitzFamily(3, 2)):
        fam = lift_to_asu2(base)
        di, _ = worst_case_impersonation(fam, recycle=False)
        ds, _ = worst_case_substitution(fam, recycle=False)
        assert di <= ds


# -- the protocol that separates the two attack notions ------------------------


def test_counterexample_protocol_encode_receive():
    proto = CounterexampleProtocol(2)
    for key in proto.keys():
        for x in proto.messages:
            y = proto.encode(key, x)
            assert proto.verdicts([key], y)[0] == x
    with pytest.raises(DomainError):
        proto.verdicts([(0, 0)], (2, 0))
    with pytest.raises(DomainError):
        proto.verdicts([(0, 0)], (0, 9))
    with pytest.raises(DomainError):
        proto.check_message(5)


def test_counterexample_protocol_distances():
    proto = CounterexampleProtocol(2)
    assert impersonation_distance(proto, (0, 0)) == 1
    ds, _ = worst_case_substitution(proto)
    assert ds == F(2, 3)
    d, env = worst_case_distance(proto)
    assert d == 1 and env.mode == "impersonation"
    proto1 = CounterexampleProtocol(1)
    assert worst_case_impersonation(proto1)[0] == 1
    assert worst_case_substitution(proto1)[0] == 1


# -- the counting kernel against the run pipeline and the oracle ----------------


@st.composite
def small_tables(draw, min_messages=1):
    """TableFamily with at most 4 keys, 3 messages and 2-bit tags."""
    m = draw(st.integers(1, 2))
    nx = draw(st.integers(min_messages, 3))
    kc = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, (1 << m) - 1), min_size=nx, max_size=nx),
                         min_size=kc, max_size=kc))
    return TableFamily(list(range(nx)), rows, m=m)


SMALL_PROTOCOLS = st.sampled_from([CounterexampleProtocol(1), CounterexampleProtocol(2)])

# (target, recycle): a protocol carries its own mode, so recycle is drawn for families only
small_targets = st.tuples(small_tables(), st.booleans()) | st.tuples(SMALL_PROTOCOLS,
                                                                    st.just(False))


@settings(max_examples=40, deadline=None)
@given(case=small_targets)
def test_impersonation_search_is_first_argmax_of_direct_runs(case):
    target, recycle = case
    proto = protocol_of(target, recycle)
    runs = [(uc_distance(proto, EnvStrategy.impersonate(w)), w) for w in proto.wire_values()]
    top = max(d for d, _ in runs)
    first = next(w for d, w in runs if d == top)
    assert worst_case_impersonation(target, recycle=recycle) == \
        (top, EnvStrategy.impersonate(first))


def substitution_distance(target, recycle, x, subst):
    """The oracle for hash families; protocols have no oracle, so a direct run."""
    if isinstance(target, TableFamily):
        return substitution_tv_oracle(target, x, subst, recycle)
    return uc_distance(target, EnvStrategy.substitute(x, subst))


def reachable_wires(proto, x):
    return sorted({proto.encode(key, x) for key in proto.keys()})


def every_map_maximum(target, recycle):
    """Max distance over every message and every map of its reachable wires."""
    proto = protocol_of(target, recycle)
    wires = proto.wire_values()
    best = F(0)
    for x in proto.messages:
        reachable = reachable_wires(proto, x)
        for choice in itertools.product(wires, repeat=len(reachable)):
            best = max(best, substitution_distance(target, recycle, x,
                                                   dict(zip(reachable, choice))))
    return best


def canonical_witness(target, recycle):
    """The documented tie-breaks: per observed wire the first best replacement
    in wire order (none if nothing gains), then the first best message."""
    proto = protocol_of(target, recycle)
    wires = proto.wire_values()
    best = None
    for x in proto.messages:
        total, subst = F(0), {}
        for y in reachable_wires(proto, x):
            gains = [substitution_distance(target, recycle, x, {y: yp}) for yp in wires]
            if max(gains) > 0:
                subst[y] = wires[gains.index(max(gains))]
                total += max(gains)
        if best is None or total > best[0]:
            best = (total, EnvStrategy.substitute(x, subst))
    return best


def check_substitution_search(target, recycle):
    d, env = worst_case_substitution(target, recycle=recycle)
    assert d == every_map_maximum(target, recycle)
    assert (d, env) == canonical_witness(target, recycle)


@settings(max_examples=25, deadline=None)
@given(fam=small_tables(), recycle=st.booleans())
def test_substitution_search_is_maximum_over_every_map(fam, recycle):
    check_substitution_search(fam, recycle)


@pytest.mark.parametrize("m", [1, 2])
def test_counterexample_substitution_search_is_maximum_over_every_map(m):
    check_substitution_search(CounterexampleProtocol(m), recycle=False)


def test_searches_raise_when_the_witness_rerun_disagrees(monkeypatch):
    # the re-run is the outcome-level distance of the witness's two Dists
    rerun = ucsim.statistical_distance
    monkeypatch.setattr(ucsim, "statistical_distance", lambda real, ideal: F(7, 3))
    with pytest.raises(VerificationFailed):
        worst_case_substitution(MulFamily(2), recycle=True)
    with pytest.raises(VerificationFailed):
        worst_case_impersonation(MulFamily(2), recycle=True)
    # worst_case_distance re-runs both witnesses: either one disagreeing raises;
    # only a substitution outcome has an x field
    for mode in ("substitution", "impersonation"):
        def disagree_on(real, ideal, mode=mode):
            on_mode = ("x" in real.fields) == (mode == "substitution")
            return F(7, 3) if on_mode else rerun(real, ideal)

        monkeypatch.setattr(ucsim, "statistical_distance", disagree_on)
        with pytest.raises(VerificationFailed, match="runs at 7/3"):
            worst_case_distance(MulFamily(2), recycle=True)


def test_worst_case_distance_makes_one_verdicts_pass(monkeypatch):
    # toeplitz:n=4,m=3 has 16 messages and 8 tags: 128 wire values, and both
    # witnesses are re-run once each; run_real is the re-run's one verdicts() caller
    fam = ToeplitzFamily(4, 3)
    verdicts, rerun = WcProtocol.verdicts, ucsim.run_real
    seen = {"verdicts": 0, "reruns": 0}
    in_rerun = []

    def counted_verdicts(self, keys, wire):
        if not in_rerun:
            seen["verdicts"] += 1
        return verdicts(self, keys, wire)

    def counted_rerun(*args, **kwargs):
        seen["reruns"] += 1
        in_rerun.append(True)
        try:
            return rerun(*args, **kwargs)
        finally:
            in_rerun.pop()

    monkeypatch.setattr(WcProtocol, "verdicts", counted_verdicts)
    monkeypatch.setattr(ucsim, "run_real", counted_rerun)
    d, _ = worst_case_distance(fam, recycle=True)
    assert d == F(1, 8)
    assert seen == {"verdicts": 128, "reruns": 2}
    assert len(fam.messages) * fam.tag_count == 128


# -- the runs against the per-key Fraction oracle ----------------------------------

MSG_WEIGHTS = [(F(1),), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 3), F(1, 6))]


@st.composite
def run_cases(draw):
    """(target, recycle, env): an injection of any wire value, or a substitution
    on a point or mixed message distribution with any map over the wire values."""
    weights = draw(st.sampled_from(MSG_WEIGHTS))
    targets = st.tuples(small_tables(min_messages=len(weights)), st.booleans())
    if len(weights) <= 2:
        targets |= st.tuples(SMALL_PROTOCOLS, st.just(False))
    target, recycle = draw(targets)
    proto = protocol_of(target, recycle)
    wires = proto.wire_values()
    if draw(st.booleans()):
        return target, recycle, EnvStrategy.impersonate(draw(st.sampled_from(wires)))
    xs = draw(st.permutations(list(proto.messages)))[:len(weights)]
    subst = draw(st.dictionaries(st.sampled_from(wires), st.sampled_from(wires), max_size=6))
    return target, recycle, EnvStrategy.substitute(dict(zip(xs, weights)), subst)


@settings(max_examples=80, deadline=None)
@given(case=run_cases())
def test_runs_equal_the_per_key_oracle(case):
    target, recycle, env = case
    real, ideal = run_oracle(target, env, recycle)
    for got, want in ((run_real(target, env, recycle), real),
                      (run_ideal(target, env, recycle), ideal)):
        assert got.fields == want.fields
        assert got.weights == want.weights
    assert uc_distance(target, env, recycle) == statistical_distance(real, ideal)


def test_standard_mode_bounded_by_asu2(table16):
    eps = measure_asu2(table16).epsilon
    d, _ = worst_case_substitution(table16, recycle=False)
    assert d <= eps


def test_no_table_message_reads_as_a_rejection():
    # a null message would collide with the receiver's None: its forgery read as a
    # rejection, and the worst case came out at 2/3
    rows = [[1, 1, 0], [1, 0, 0], [1, 0, 1]]
    assert worst_case_distance(TableFamily(["n", 0, 1], rows, m=1))[0] == 1
    with pytest.raises(DomainError):
        TableFamily([None, 0, 1], rows, m=1)


# -- recycled-key uniformity ---------------------------------------------------


def test_recycled_key_uniform_given_view():
    fam = MulFamily(2)
    kc = fam.key_count
    envs = [EnvStrategy.substitute(0, {})]
    envs.append(worst_case_substitution(fam, recycle=True)[1])
    rng = random.Random(0)
    wires = all_wires(fam)
    for _ in range(25):
        x = rng.choice(list(fam.messages))
        subst = {(x, t): rng.choice(wires) for t in fam.tags() if rng.random() < 0.7}
        envs.append(EnvStrategy.substitute(x, subst))
    for env in envs:
        joint = run_real(fam, env, recycle=True).project(("x", "y", "k1"))
        marg = joint.project(("x", "y"))
        for (x, y), pxy in marg.items():
            for k1 in range(kc):
                assert joint.p((x, y, k1)) == pxy * F(1, kc)


# -- validation and failure modes ----------------------------------------------


def test_env_strategy_validation():
    with pytest.raises(DomainError):
        EnvStrategy("substitution")
    with pytest.raises(DomainError):
        EnvStrategy("impersonation")
    with pytest.raises(DomainError):
        EnvStrategy("telepathy", inject=(0, 0))
    with pytest.raises(DomainError):
        EnvStrategy.substitute(0, {(0, 1): 3})
    with pytest.raises(DomainError):
        EnvStrategy.substitute(0, {0: (0, 1)})
    for subst in ({(0, 0): (1, True)}, {(0, False): (1, 0)}, {(0, 0): (1, 1.0)}):
        with pytest.raises(DomainError, match="wire -> wire"):  # bool is no tag
            EnvStrategy.substitute(0, subst)
    env = EnvStrategy.substitute({0: F(1, 2), 1: F(1, 2)}, {})
    assert env.msg_dist.p((0,)) == F(1, 2)


def test_run_validates_messages_and_wires():
    fam = MulFamily(2)
    with pytest.raises(DomainError):
        run_real(fam, EnvStrategy.substitute(9, {}), recycle=True)
    with pytest.raises(DomainError):
        run_real(fam, EnvStrategy.impersonate((0, 7)), recycle=True)
    with pytest.raises(DomainError):
        run_real(fam, EnvStrategy.impersonate((9, 0)), recycle=True)
    proto = WcProtocol(fam, recycle=True)
    with pytest.raises(DomainError):
        proto.verdicts([(0, 0)], (0, 0, 0))
    with pytest.raises(DomainError):
        proto.verdicts([(0, 0)], ([0], 0))   # unhashable message
    with pytest.raises(DomainError):
        proto.check_message([0])
    for recycle in (False, True):
        with pytest.raises(DomainError, match="not a family or protocol: 'nonsense'"):
            run_real("nonsense", EnvStrategy.substitute(0, {}), recycle=recycle)


def test_recycle_is_an_error_on_a_protocol():
    # a protocol carries its own mode, so the flag is refused, not ignored
    proto = CounterexampleProtocol(2)
    env = EnvStrategy.substitute(0, {})
    for run in (run_real, run_ideal, uc_distance):
        with pytest.raises(DomainError, match="protocol carries its own mode"):
            run(proto, env, recycle=True)
    for search in (worst_case_substitution, worst_case_impersonation, worst_case_distance):
        with pytest.raises(DomainError, match="protocol carries its own mode"):
            search(proto, recycle=True)
    with pytest.raises(DomainError, match="protocol carries its own mode"):
        impersonation_distance(proto, (0, 0), recycle=True)


def test_budget_refusals():
    fam = MulFamily(2)
    env = EnvStrategy.substitute(0, {})
    with pytest.raises(BudgetExceeded):
        uc_distance(fam, env, recycle=True, budget=3)
    with pytest.raises(BudgetExceeded):
        worst_case_substitution(fam, recycle=True, budget=10)
    with pytest.raises(BudgetExceeded):
        worst_case_impersonation(fam, recycle=True, budget=10)


def test_search_budget_threshold_is_the_cell_count():
    # |X| * |keys| * (1 + |wire|): mul:m=2 recycled has 4 * 16 * (1 + 16) cells,
    # the counterexample protocol 2 * 6 * (1 + 8)
    for target, recycle, work in ((MulFamily(2), True, 1088),
                                  (CounterexampleProtocol(2), False, 108)):
        for search in (worst_case_substitution, worst_case_impersonation):
            search(target, recycle=recycle, budget=work)
            with pytest.raises(BudgetExceeded, match=f"needs {work} cells"):
                search(target, recycle=recycle, budget=work - 1)


def test_refused_search_builds_nothing():
    fam = ToeplitzFamily(7, 7)   # 2^13 keys x 128 messages
    for search in (worst_case_substitution, worst_case_impersonation, worst_case_distance):
        with pytest.raises(BudgetExceeded, match="worst-case search needs"):
            search(fam, recycle=True, budget=10)
        assert fam._table is None


def test_run_budget_threshold_is_the_cell_count():
    # |message support| * |keys|, plus the 4 x 4 tag table on a family: two
    # messages on mul:m=2 are 2 * 16 + 16 cells recycled and 2 * 4 + 16
    # without a pad, an injection on the counterexample protocol 1 * 6
    two = EnvStrategy.substitute({0: F(1, 2), 1: F(1, 2)}, {(0, 0): (1, 0)})
    for target, recycle, env, work in (
            (MulFamily(2), True, two, 48), (MulFamily(2), False, two, 24),
            (CounterexampleProtocol(2), False, EnvStrategy.impersonate((0, 0)), 6)):
        for run in (run_real, run_ideal, uc_distance):
            run(target, env, recycle=recycle, budget=work)
            with pytest.raises(BudgetExceeded, match=f"run needs {work} cells"):
                run(target, env, recycle=recycle, budget=work - 1)
    assert impersonation_distance(MulFamily(2), (1, 2), recycle=True, budget=32) == F(1, 4)
    with pytest.raises(BudgetExceeded, match="run needs 32 cells"):
        impersonation_distance(MulFamily(2), (1, 2), recycle=True, budget=31)


def test_refused_run_builds_nothing():
    fam = ToeplitzFamily(7, 7)   # 2^13 keys x 128 pads
    env = EnvStrategy.substitute(0, {})
    for run in (run_real, run_ideal, uc_distance):
        with pytest.raises(BudgetExceeded, match="run needs"):
            run(fam, env, recycle=True, budget=10)
        assert fam._table is None
    with pytest.raises(BudgetExceeded, match="run needs"):
        impersonation_distance(fam, (0, 0), recycle=True, budget=10)
    assert fam._table is None
    # 2^13 keys fit the budget, but the 2^13 x 2^7 tag table does not
    with pytest.raises(BudgetExceeded, match="run needs"):
        run_real(fam, env, recycle=False, budget=2**13)
    assert fam._table is None


def test_a_run_builds_each_dist_once(monkeypatch):
    # without recycling a run counts its outcomes without k1, so no Dist is
    # built only to be projected: two witness re-runs of two worlds each, and
    # the substitution witness's point message distribution
    built = []
    init, project = Dist.__init__, Dist.project
    monkeypatch.setattr(Dist, "__init__", lambda self, *a: built.append("init") or init(self, *a))
    monkeypatch.setattr(Dist, "project",
                        lambda self, *a: built.append("project") or project(self, *a))
    worst_case_distance(lift_to_asu2(MulFamily(3)))
    assert built == ["init"] * 5


@pytest.mark.parametrize("recycle", [False, True])
@pytest.mark.parametrize("run, dists, verdicts", [
    (run_real, 1, True), (run_ideal, 1, False), (uc_distance, 0, True)])
def test_each_run_counts_only_its_own_world(monkeypatch, run, dists, verdicts, recycle):
    # run_real builds the real Dist alone, run_ideal the ideal one without
    # asking any verdict, and uc_distance counts keys without a Dist
    env = EnvStrategy.substitute({0: F(1, 2), 1: F(1, 2)}, {(0, 1): (1, 1)})
    seen = {"dists": 0, "verdicts": 0}
    init, ask = Dist.__init__, WcProtocol.verdicts

    def counted_init(self, *a):
        seen["dists"] += 1
        init(self, *a)

    def counted_verdicts(self, keys, wire):
        seen["verdicts"] += 1
        return ask(self, keys, wire)

    monkeypatch.setattr(Dist, "__init__", counted_init)
    monkeypatch.setattr(WcProtocol, "verdicts", counted_verdicts)
    run(MulFamily(2), env, recycle)
    assert seen["dists"] == dists
    assert (seen["verdicts"] > 0) == verdicts


def test_schema_mismatch_between_modes():
    fam = MulFamily(2)
    env = EnvStrategy.substitute(0, {})
    with_k1 = run_real(fam, env, recycle=True)
    without = run_ideal(fam, env, recycle=False)
    with pytest.raises(SchemaMismatch):
        statistical_distance(with_k1, without)


@pytest.mark.parametrize("fam", [MulFamily(2), ToeplitzFamily(3, 2), PolyFamily(2, 2),
                                 build_table16()], ids=["mul2", "toeplitz3x2", "poly2x2",
                                                        "table16"])
@pytest.mark.parametrize("recycle", [True, False], ids=["recycle", "unpadded"])
def test_wc_protocol_agrees_with_protocol_module(fam, recycle):
    # one tag rule in both modes: every key is (k1, pad), the pad 0 when unpadded
    from recmac import AuthKey, TaggedMessage, authenticate, verify

    proto = WcProtocol(fam, recycle)
    keys = proto.keys()
    assert keys == [(k1, k2) for k1 in fam.keys()
                    for k2 in (fam.tags() if recycle else (0,))]
    for key in keys:
        for x in fam.messages:
            assert proto.encode(key, x) == tuple(authenticate(fam, AuthKey(*key), x))
        for wire in all_wires(fam):
            assert proto.verdicts([key], wire)[0] == \
                verify(fam, AuthKey(*key), TaggedMessage(*wire))


@pytest.mark.parametrize("proto", [
    WcProtocol(MulFamily(2), recycle=True), WcProtocol(ToeplitzFamily(3, 2), recycle=False),
    WcProtocol(lift_to_asu2(MulFamily(1)), recycle=False), CounterexampleProtocol(2),
], ids=["mul2-recycle", "toeplitz3x2", "lift-mul1", "counterexample2"])
def test_batch_verdicts_are_the_single_key_verdicts(proto):
    keys = list(proto.keys())
    for wire in proto.wire_values():
        assert proto.verdicts(keys, wire) == [proto.verdicts([key], wire)[0] for key in keys]
    for bad in ((0, 0, 0), (9, 0), (0, 99)):
        with pytest.raises(DomainError):
            proto.verdicts(keys, bad)


# both built-in protocols read their spaces from the family: the same messages,
# the same message check, and the wire values messages x tags in order
BUILT_IN_PROTOCOLS = [WcProtocol(MulFamily(1), recycle=False),
                      WcProtocol(MulFamily(1), recycle=True), CounterexampleProtocol(2)]
BUILT_IN_IDS = ["mul1", "mul1-recycle", "counterexample2"]


@pytest.mark.parametrize("x", [0, 1, True, 2, "a", [0]], ids=repr)
@pytest.mark.parametrize("proto", BUILT_IN_PROTOCOLS, ids=BUILT_IN_IDS)
def test_protocols_take_a_message_exactly_when_the_family_does(proto, x):
    want = domain_error(lambda: proto.fam.message_index(x))
    assert domain_error(lambda: proto.check_message(x)) == want
    assert (want is None) == (type(x) is int and x in (0, 1))


@pytest.mark.parametrize("proto", BUILT_IN_PROTOCOLS, ids=BUILT_IN_IDS)
def test_wire_values_are_the_family_messages_times_its_tags(proto):
    fam = proto.fam
    assert proto.messages is fam.messages
    assert proto.wire_values() == list(itertools.product(fam.messages, fam.tags()))
    # what the search admits on a protocol is what it counts on the family
    nkeys = len(proto.keys())
    assert ucsim._search_cells(proto, nkeys) == ucsim._search_cells(fam, nkeys)


# -- the value class -------------------------------------------------------------


def test_env_strategy_keeps_the_frozen_dataclass_contract():
    fields = {"mode": "substitution", "msg_dist": Dist.point(("x",), (0,)),
              "subst": {(0, 0): (1, 1)}, "inject": None}
    record_contract(EnvStrategy, fields, ("subst", {}))
    record_contract(EnvStrategy, {"mode": "impersonation", "msg_dist": None, "subst": {},
                                  "inject": (0, 1)}, ("inject", (1, 1)))


def test_env_strategies_never_share_a_substitution_map():
    a = EnvStrategy("impersonation", inject=(0, 0))
    b = EnvStrategy("impersonation", inject=(0, 0))
    assert a.subst == b.subst == {} and a.subst is not b.subst
    a.subst[(0, 0)] = (1, 1)
    assert b.subst == {} and EnvStrategy("impersonation", inject=(0, 0)).subst == {}
    c, d = EnvStrategy.substitute(0), EnvStrategy.substitute(0)
    assert c.subst is not d.subst


def test_a_bool_key_does_not_substitute_for_the_wire_it_equals():
    # (0, True) == (0, 1) and hashes alike, so as a map key it would replace
    # the wire (0, 1); it is refused instead
    with pytest.raises(DomainError):
        EnvStrategy.substitute(0, {(0, True): (1, 2)})
    env = EnvStrategy.substitute(0, {(0, 1): (1, 2)})
    assert env.deliver((0, 1)) == (1, 2) and env.deliver((0, 0)) == (0, 0)
