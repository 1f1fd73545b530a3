"""The worst-case searches' bitmask count, held against the Counter oracle.

The library scores each (wire, y-group) pair by the number of the group's
keys whose verdict is not the ideal receiver's; `counter_search_oracle` in
conftest.py scores it with a Counter of (verdict, recycled value) cells.  The
two must give the same distance and the same witness everywhere the search
runs.  The premise is tested directly: on every (wire, y-group) of a table
in either mode and of the counterexample protocol, the oracle's numerator is
2*nr times the count.  A recycling protocol that breaks the premise is
refused by every run and search.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from recmac import (
    CounterexampleProtocol,
    DomainError,
    EnvStrategy,
    TableFamily,
    WcProtocol,
    impersonation_distance,
    run_ideal,
    run_real,
    uc_distance,
    worst_case_distance,
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


# -- the premise of the count ----------------------------------------------------


def premise_cases(target, recycle):
    """(Counter numerator, nr, count of disagreeing keys) per (wire, y-group) of `target`."""
    proto = WcProtocol(target, recycle) if isinstance(target, TableFamily) else target
    keys = list(proto.keys())
    rec = [key[0] if proto.recycles else None for key in keys]
    nr = proto.fam.key_count if proto.recycles else 1
    groups = [(x, y, idx) for x in proto.messages for y, idx in ucsim._y_groups(proto, keys, x)]
    groups.append((None, None, range(len(keys))))   # impersonation: never unmodified
    for yp in proto.wire_values():
        verdicts = proto.verdicts(keys, yp)
        for x, y, idx in groups:
            out0 = x if yp == y else None
            num = counter_tv_numerator(Counter((verdicts[i], rec[i]) for i in idx),
                                       out0, len(idx), nr)
            mask = sum(1 << i for i in idx)
            yield num, nr, (ucsim._disagreeing(verdicts, out0) & mask).bit_count()


def assert_the_count_is_the_numerator(target, recycle):
    for num, nr, count in premise_cases(target, recycle):
        assert num == 2 * nr * count


@settings(max_examples=60, deadline=None)
@given(fam=tables(max_keys=8), recycle=st.booleans())
def test_the_oracle_numerator_is_the_disagreeing_keys_on_tables(fam, recycle):
    assert_the_count_is_the_numerator(fam, recycle)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_oracle_numerator_is_the_disagreeing_keys_on_the_counterexample(m):
    assert_the_count_is_the_numerator(CounterexampleProtocol(m), recycle=False)


# -- a recycling protocol that breaks the premise ----------------------------------


class CoarseRecycling(AuthProtocol):
    """Unpadded tags (x, h_k(x)) under key (r, k), where the recycled r is a given function of k.

    A y-group may hold one recycled value more often than another, so the
    share of disagreeing keys is not the group's distance.
    """

    recycles = True

    def __init__(self, fam: TableFamily, recycled: list):
        self.fam = fam
        self.messages = fam.messages
        self._recycled = recycled

    def keys(self):
        return [(self._recycled[k], k) for k in self.fam.keys()]

    def encode(self, keys, x):
        return [(x, self.fam.tag(k, x)) for _, k in keys]

    def verdicts(self, keys, wire):
        xp, tp = wire
        return [xp if self.fam.tag(k, xp) == tp else None for _, k in keys]


def test_every_entry_point_refuses_a_recycling_protocol_that_breaks_the_premise():
    # 6 keys, 3 messages; keys 0-3 all recycle value 0, which fills more than
    # a sixth of some y-groups, where counting the disagreeing keys
    # undercounts the distance
    fam = TableFamily([0, 1, 2], [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
                                  [1, 0, 0], [3, 3, 1]], m=2)
    proto = CoarseRecycling(fam, [0, 0, 0, 0, 1, 2])
    assert any(num != 2 * nr * count for num, nr, count in premise_cases(proto, True))
    assert_refused_everywhere(proto)


def assert_refused_everywhere(proto):
    wire = proto.wire_values()[0]
    envs = (EnvStrategy.substitute(proto.messages[0], {}), EnvStrategy.impersonate(wire))
    calls = [(search, (proto,)) for search in (
        worst_case_substitution, worst_case_impersonation, worst_case_distance)]
    calls += [(run, (proto, env)) for run in (run_real, run_ideal, uc_distance) for env in envs]
    calls.append((impersonation_distance, (proto, wire)))
    for call, args in calls:
        with pytest.raises(DomainError, match="only WcProtocol"):
            call(*args)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_coarse_recycling_is_refused_everywhere(data):
    fam = data.draw(tables(max_keys=8))
    recycled = data.draw(st.lists(st.integers(0, fam.key_count - 1),
                                  min_size=fam.key_count, max_size=fam.key_count))
    assert_refused_everywhere(CoarseRecycling(fam, recycled))
