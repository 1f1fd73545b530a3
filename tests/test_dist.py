"""Exact distribution container and total variation distance."""

from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from recmac import Dist, SchemaMismatch, outcome_sort_key, statistical_distance


def test_construction_validates():
    with pytest.raises(ValueError):
        Dist(("a",), {(0,): F(1, 2)})                    # sums to 1/2
    with pytest.raises(ValueError):
        Dist(("a",), {(0,): F(3, 2), (1,): F(-1, 2)})    # negative weight
    with pytest.raises(ValueError):
        Dist(("a", "b"), {(0,): F(1)})                   # arity mismatch
    with pytest.raises(ValueError):
        Dist(("a",), {0: F(1)})                          # not a tuple
    with pytest.raises(ValueError):
        Dist(("a",), {(0,): F(1, 2), (1,): F(1, 2) + F(1, 2 ** 60)})   # off by 2^-60
    # mixed denominators, ints and floats are summed exactly
    mixed = Dist(("a",), {(0,): 0.5, (1,): F(1, 3), (2,): F(1, 6), (3,): 0})
    assert mixed.weights == {(0,): F(1, 2), (1,): F(1, 3), (2,): F(1, 6)}
    assert Dist(("a",), {(0,): 1}).p((0,)) == 1
    assert Dist(("a",), {(0,): 0.25, (1,): F(3, 4)}).p((0,)) == F(1, 4)


def test_zero_weights_dropped():
    d = Dist(("a",), {(0,): F(1), (1,): F(0)})
    assert d.support() == [(0,)]
    assert d.p((1,)) == 0


def test_point_and_uniform():
    p = Dist.point(("a", "b"), (1, "x"))
    assert p.p((1, "x")) == 1
    u = Dist.uniform(("a",), [(0,), (1,), (0,), (2,)])
    assert u.p((0,)) == F(1, 2)
    assert u.p((1,)) == F(1, 4)
    assert len(u) == 3


def test_equality_and_support_order():
    d = Dist.uniform(("a",), [(None,), (3,), ((1, 2),), ("s",)])
    assert d.support() == [(None,), (3,), ("s",), ((1, 2),)]
    assert d == Dist.uniform(("a",), [(3,), (None,), ("s",), ((1, 2),)])
    assert d != Dist.uniform(("b",), [(None,), (3,), ("s",), ((1, 2),)])


def test_outcome_sort_key_total_order():
    vals = [None, 0, 1, True, "a", (1,), (None, 2)]
    keyed = sorted(vals, key=outcome_sort_key)
    assert keyed[0] is None
    assert keyed[-1] == (None, 2) or keyed[-1] == (1,)
    with pytest.raises(TypeError):
        outcome_sort_key(1.5)


@st.composite
def small_dist(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    raw = [draw(st.integers(min_value=0, max_value=8)) for _ in range(n)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return Dist(("v",), {(i,): F(w, total) for i, w in enumerate(raw) if w})


@given(small_dist())
def test_project(e):
    d = Dist(("x", "y", "z"), {
        (0, "a", 1): F(1, 4),
        (0, "b", 1): F(1, 4),
        (1, "a", 0): F(1, 2),
    })
    m = d.project(("x",))
    assert m.p((0,)) == F(1, 2) and m.p((1,)) == F(1, 2)
    yx = d.project(("y", "x"))
    assert yx.p(("a", 0)) == F(1, 4)
    assert yx.p(("a", 1)) == F(1, 2)
    assert d.project(("x", "y", "z")) == d
    with pytest.raises(SchemaMismatch):
        d.project(("w",))
    # over mixed denominators, a projection is the naive Fraction sum
    joint = Dist(("v", "parity"), {(v, v % 2): w for (v,), w in e.items()})
    naive = defaultdict(F)
    for (v, parity), w in joint.items():
        naive[(parity,)] += w
    assert joint.project(("parity",)).weights == naive
    assert joint.project(("parity", "v")).weights == {(p, v): w for (v, p), w in joint.items()}


def test_statistical_distance_basics():
    a = Dist.point(("v",), (0,))
    b = Dist.point(("v",), (1,))
    assert statistical_distance(a, b) == 1
    assert statistical_distance(a, a) == 0
    c = Dist.uniform(("v",), [(0,), (1,)])
    assert statistical_distance(a, c) == F(1, 2)
    assert statistical_distance(c, a) == F(1, 2)
    with pytest.raises(SchemaMismatch):
        statistical_distance(a, Dist.point(("w",), (0,)))


@given(small_dist(), small_dist(), small_dist())
def test_distance_is_a_metric(a, b, c):
    dab = statistical_distance(a, b)
    assert 0 <= dab <= 1
    assert dab == statistical_distance(b, a)
    assert (dab == 0) == (a == b)
    assert dab <= statistical_distance(a, c) + statistical_distance(c, b)


@st.composite
def counts_over(draw):
    """(counts, denom): 1 to 5 non-negative counts with a positive sum."""
    counts = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
    if sum(counts) == 0:
        counts[0] = 1
    return {(i,): c for i, c in enumerate(counts)}, sum(counts)


@given(counts_over(), st.integers(min_value=1, max_value=6))
def test_counts_over_a_denominator_mean_their_fractions(cd, scale):
    counts, denom = cd
    fractions = {o: F(c, denom) for o, c in counts.items()}
    d = Dist(("v",), counts, denom)
    assert d == Dist(("v",), fractions)
    assert d == Dist(("v",), {o: c * scale for o, c in counts.items()}, denom * scale)
    assert d.weights == {o: w for o, w in fractions.items() if w}
    assert all(d.p(o) == w for o, w in fractions.items())


@given(counts_over(), counts_over())
def test_distance_is_the_naive_fraction_sum(a, b):
    pf = {o: F(c, a[1]) for o, c in a[0].items()}
    qf = {o: F(c, b[1]) for o, c in b[0].items()}
    naive = sum((abs(pf.get(o, 0) - qf.get(o, 0)) for o in pf.keys() | qf.keys()), F(0)) / 2
    assert statistical_distance(Dist(("v",), *a), Dist(("v",), *b)) == naive


@pytest.mark.parametrize("weights, denom", [
    ({(0,): -1, (1,): 3}, 2),          # negative count
    ({(0,): 1, (1,): 1}, 3),           # sums to 2, not 3
    ({(0,): 1}, 0), ({}, 0),           # denominator 0
    ({(0,): -1}, -1),                  # negative denominator
    ({(0,): 1}, 1.0),                  # not an int
])
def test_counts_and_denominator_are_validated(weights, denom):
    with pytest.raises(ValueError):
        Dist(("a",), weights, denom)
