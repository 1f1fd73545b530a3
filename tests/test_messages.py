"""One rule for every message: a DomainError unless the value is exactly a message.

A message is one of the family's `messages` with the same type and, for a
tuple, the same block types, so True, 1.0 and (True, 1) stand for no int
message, and an unhashable list for no tuple.  Each entry point below takes
the drawn value as its message and holds every other argument valid, so a
refusal can only be the message's.  The two count tests hold each call to one
check of its input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from recmac import (
    AuthKey,
    CounterexampleFamily,
    CounterexampleProtocol,
    DomainError,
    EnvStrategy,
    MulFamily,
    PolyFamily,
    TableFamily,
    TaggedMessage,
    ToeplitzFamily,
    WcProtocol,
    authenticate,
    lift_to_asu2,
    pack_tagged,
    run_real,
    verify,
)
from recmac import ucsim
from recmac.families import HashFamily

FAMILIES = {
    "mul": MulFamily(2),
    "toeplitz": ToeplitzFamily(2, 2),
    "counterexample": CounterexampleFamily(2),
    "poly": PolyFamily(2, 2),
    "table": TableFamily([True, "b", [0, 1], 3], [[0, 1, 2, 3], [1, 0, 3, 2]]),
    "lift-poly": lift_to_asu2(PolyFamily(2, 2)),
}


def odd_values(fam) -> list:
    return [True, False, 1.0, (True, 1), (1, True), (1.0, 0), [1, 0], "1", None, -1,
            len(fam.messages), (0, 0, 0)]


def is_message(fam, v) -> bool:
    """v equals one of fam's messages and has its type and its block types."""
    def shape(x):
        return [type(b) for b in x] if type(x) is tuple else []
    return any(type(v) is type(m) and shape(v) == shape(m) and v == m for m in fam.messages)


def entry_points(fam):
    """(name, call on a message) for every entry point that takes one on `fam`."""
    yield "tag", lambda v: fam.tag(0, v)
    yield "message_index", fam.message_index
    yield "authenticate", lambda v: authenticate(fam, AuthKey(0, 0), v)
    yield "verify", lambda v: verify(fam, AuthKey(0, 0), TaggedMessage(v, 0))
    yield "pack_tagged", lambda v: pack_tagged(fam, TaggedMessage(v, 0))
    protos = [WcProtocol(fam, recycle) for recycle in (False, True)]
    if isinstance(fam, CounterexampleFamily):
        protos.append(CounterexampleProtocol(fam.tag_bits))
    for proto in protos:
        name = f"{type(proto).__name__}(recycles={proto.recycles})"
        yield f"{name}.encode", lambda v, proto=proto: proto.encode(proto.keys(), v)
        yield f"run_real on {name}", lambda v, proto=proto: run_real(
            proto, EnvStrategy.substitute(v, {}))


CASES = [(f"{kind} {name}", fam, call)
         for kind, fam in FAMILIES.items() for name, call in entry_points(fam)]


BLOCKS = st.integers(-1, 4) | st.booleans() | st.sampled_from([1.0, "a", "b", None])
# a drawn value is mostly message-like: an int, a bool, a float, a string or a
# tuple or list of those, so it falls near the messages as often as not
MESSAGE_LIKE = BLOCKS | st.floats() | st.text(max_size=2) \
    | st.tuples(BLOCKS, BLOCKS) | st.lists(BLOCKS, max_size=3).map(tuple) | st.lists(BLOCKS, max_size=2)


def holds_the_rule(fam, call, v):
    if is_message(fam, v):
        call(v)
    else:
        with pytest.raises(DomainError):
            call(v)


@pytest.mark.parametrize("fam, call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_every_entry_point_takes_each_message_and_refuses_each_odd_value(fam, call):
    for v in list(fam.messages) + odd_values(fam):
        holds_the_rule(fam, call, v)


@pytest.mark.parametrize("fam, call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
@settings(max_examples=25, deadline=None)
@given(v=MESSAGE_LIKE)
def test_every_entry_point_takes_exactly_the_messages(fam, call, v):
    holds_the_rule(fam, call, v)


def test_the_odd_values_are_no_messages():
    # the rule is decided by the value's type, not by equality
    for fam in FAMILIES.values():
        assert not any(is_message(fam, v) for v in odd_values(fam) if v is not True)
    assert is_message(FAMILIES["table"], True) and is_message(FAMILIES["table"], (0, 1))
    assert not is_message(FAMILIES["table"], 1)


def counting(monkeypatch, name):
    """The calls of HashFamily.`name` from now on, one entry each."""
    calls, orig = [], getattr(HashFamily, name)
    monkeypatch.setattr(HashFamily, name, lambda self, *a: calls.append(a) or orig(self, *a))
    return calls


@pytest.mark.parametrize("proto", [
    WcProtocol(MulFamily(3), recycle=True), WcProtocol(PolyFamily(2, 2), recycle=False),
    CounterexampleProtocol(3)], ids=["mul3-recycle", "poly2x2", "counterexample3"])
def test_one_y_grouping_checks_its_message_once(monkeypatch, proto):
    keys = proto.keys()
    x = proto.messages[1]
    calls = counting(monkeypatch, "message_index")
    groups = ucsim._y_groups(proto, keys, x)
    assert calls == [(x,)]
    assert sum(len(idx) for _, idx in groups) == len(keys)


@pytest.mark.parametrize("fam", [MulFamily(2), PolyFamily(2, 2)], ids=["mul2", "poly2x2"])
def test_authenticate_and_verify_check_k1_once(monkeypatch, fam):
    x = fam.messages[1]
    calls = counting(monkeypatch, "check_key")
    ym = authenticate(fam, AuthKey(1, 2), x)
    assert calls == [(1,)]
    assert verify(fam, AuthKey(1, 2), ym) == x
    assert calls == [(1,), (1,)]
