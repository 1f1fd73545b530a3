"""The worst-case searches' bitmask kernel, held against the Counter oracle.

The library scores each (wire, y-group) pair by the closed form
2*(n*nr - sum_r min(nr*m_r, n)) on key masks; `counter_search_oracle` in
conftest.py scores it with a Counter of (verdict, recycled value) cells.  The
two must give the same distance and the same witness everywhere, including
on a recycling protocol whose y-groups hold one recycled value more than
n/nr times, the "saturating" term the shipped protocols never reach.
"""

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from recmac import (
    CounterexampleProtocol,
    TableFamily,
    worst_case_impersonation,
    worst_case_substitution,
)
from recmac import ucsim
from recmac.ucsim import AuthProtocol

from conftest import counter_search_oracle, counter_tv_numerator


def assert_searches_match_the_oracle(target, recycle):
    assert worst_case_substitution(target, recycle=recycle) == \
        counter_search_oracle(target, recycle, "substitution")
    assert worst_case_impersonation(target, recycle=recycle) == \
        counter_search_oracle(target, recycle, "impersonation")


@st.composite
def tables(draw, max_keys=16):
    """TableFamily with at most `max_keys` keys, 4 messages and 2-bit tags."""
    m = draw(st.integers(1, 2))
    nx = draw(st.integers(1, 4))
    kc = draw(st.integers(1, max_keys))
    rows = draw(st.lists(st.lists(st.integers(0, (1 << m) - 1), min_size=nx, max_size=nx),
                         min_size=kc, max_size=kc))
    return TableFamily(list(range(nx)), rows, m=m)


@settings(max_examples=60, deadline=None)
@given(fam=tables(), recycle=st.booleans())
def test_searches_equal_the_counter_oracle_on_tables(fam, recycle):
    assert_searches_match_the_oracle(fam, recycle)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_searches_equal_the_counter_oracle_on_the_counterexample(m):
    assert_searches_match_the_oracle(CounterexampleProtocol(m), recycle=False)


# -- a recycling protocol whose y-groups saturate ---------------------------------


class CoarseRecycling(AuthProtocol):
    """Unpadded tags (x, h_k(x)) whose recycled value is a given function of k.

    When one value is the image of more than n/nr keys of a y-group, that
    value saturates in the group.
    """

    recycles = True

    def __init__(self, fam: TableFamily, recycled: list, nr: int):
        self.fam = fam
        self.messages = fam.messages
        self._recycled = recycled
        self._nr = nr

    def keys(self):
        return list(range(self.fam.key_count))

    def encode(self, key, x):
        return (x, self.fam.tag(key, x))

    def receive(self, key, wire):
        xp, tp = wire
        return xp if self.fam.tag(key, xp) == tp else None

    def recycled(self, key):
        return self._recycled[key]

    def recycled_values(self):
        return range(self._nr)

    def wire_values(self):
        return [(x, t) for x in self.messages for t in self.fam.tags()]

    def check_message(self, x):
        self.fam.message_index(x)


def saturating_groups(proto):
    """The (x, y) groups of `proto` in which one recycled value fills more
    than n/nr of the n keys."""
    nr = len(proto.recycled_values())
    recycled = defaultdict(list)
    for x in proto.messages:
        for key in proto.keys():
            recycled[x, proto.encode(key, x)].append(proto.recycled(key))
    return [g for g, rs in recycled.items() if nr * max(Counter(rs).values()) > len(rs)]


def test_saturating_groups_match_the_oracle():
    # 6 keys, 3 messages; keys 0-3 all recycle value 0, which saturates every
    # y-group it fills more than a third of, against nr = 3
    fam = TableFamily([0, 1, 2], [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                                  [1, 0, 0], [3, 3, 1]], m=2)
    proto = CoarseRecycling(fam, [0, 0, 0, 0, 1, 2], nr=3)
    assert saturating_groups(proto)
    assert_searches_match_the_oracle(proto, recycle=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coarse_recycling_equals_the_counter_oracle(data):
    fam = data.draw(tables(max_keys=8))
    nr = data.draw(st.integers(1, 4))
    recycled = data.draw(st.lists(st.integers(0, nr - 1),
                                  min_size=fam.key_count, max_size=fam.key_count))
    assert_searches_match_the_oracle(CoarseRecycling(fam, recycled, nr), recycle=True)


# -- the closed form against the Counter numerator ---------------------------------

VERDICTS = st.sampled_from([None, 0, 1, "a"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closed_form_equals_the_counter_numerator(data):
    nr = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.tuples(VERDICTS, st.integers(0, nr - 1)),
                               min_size=1, max_size=24))
    out0 = data.draw(VERDICTS)
    n = len(cells)
    want = counter_tv_numerator(Counter(cells), out0, n, nr)
    agreeing = Counter(r for out, r in cells if out == out0)
    assert 2 * (n * nr - sum(min(nr * m_r, n) for m_r in agreeing.values())) == want
    group = ucsim._group(range(n), [r for _, r in cells], nr)
    agree = ucsim._mask([out == out0 for out, _ in cells])
    assert ucsim._tv_numerator(agree, group, nr) == want
