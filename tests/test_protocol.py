"""One-round authentication, key streams, and the wire format."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from recmac import (
    AuthKey,
    CounterexampleFamily,
    DomainError,
    KeyStream,
    MulFamily,
    PadExhausted,
    PolyFamily,
    TableFamily,
    TaggedMessage,
    ToeplitzFamily,
    WcProtocol,
    authenticate,
    lift_to_asu2,
    pack_tagged,
    unpack_tagged,
    verify,
)


def test_authenticate_frozen():
    fam = MulFamily(2)
    assert authenticate(fam, AuthKey(3, 1), 2) == TaggedMessage(2, 0)


def test_roundtrip_exhaustive():
    for fam in (MulFamily(2), MulFamily(3)):
        for k1 in fam.keys():
            for k2 in fam.tags():
                key = AuthKey(k1, k2)
                for x in fam.messages:
                    ym = authenticate(fam, key, x)
                    assert verify(fam, key, ym) == x
                    for wrong in fam.tags():
                        if wrong != ym.t:
                            assert verify(fam, key, TaggedMessage(x, wrong)) is None


def test_verify_validates_inputs():
    fam = MulFamily(2)
    with pytest.raises(DomainError):
        verify(fam, AuthKey(0, 0), TaggedMessage(0, 4))
    with pytest.raises(DomainError):
        verify(fam, AuthKey(0, 4), TaggedMessage(0, 0))
    with pytest.raises(DomainError):
        verify(fam, AuthKey(9, 0), TaggedMessage(0, 0))
    with pytest.raises(DomainError):
        authenticate(fam, AuthKey(0, 0), 11)


def test_masked_tag_is_uniform_over_pads():
    fam = MulFamily(3)
    for k1 in fam.keys():
        for x in fam.messages:
            tags = {authenticate(fam, AuthKey(k1, k2), x).t for k2 in fam.tags()}
            assert tags == set(fam.tags())


def test_key_stream():
    ks = KeyStream(5, (1, 3, 0), tag_bits=2)
    assert ks.bits_consumed == 0
    assert ks.next_key() == AuthKey(5, 1)
    assert ks.next_key() == AuthKey(5, 3)
    assert ks.bits_consumed == 4
    assert ks.next_key() == AuthKey(5, 0)
    assert ks.bits_consumed == 6
    with pytest.raises(PadExhausted):
        ks.next_key()
    for pads in ((4,), (1.0, True), (True,), (False,), (1.0,), ("1",), (None,)):
        with pytest.raises(DomainError, match="pad"):  # a pad is an int, never a bool
            KeyStream(1, pads, tag_bits=2)


def test_pack_frozen():
    fam = MulFamily(2)
    assert pack_tagged(fam, TaggedMessage(2, 0)) == b"\x02\x00"


def test_pack_unpack_roundtrip():
    for fam in (MulFamily(2), MulFamily(8), PolyFamily(4, 2), ToeplitzFamily(4, 3),
                TableFamily(["a", "b", "c"], [[0, 1, 2]])):
        for x in list(fam.messages)[:8]:
            for t in (0, fam.tag_count - 1):
                ym = TaggedMessage(x, t)
                wire = pack_tagged(fam, ym)
                assert unpack_tagged(fam, wire) == ym


def test_pack_poly_blocks_big_endian():
    fam = PolyFamily(4, 2)
    assert pack_tagged(fam, TaggedMessage((2, 1), 9)) == b"\x21\x09"


def test_unpack_validates():
    fam = MulFamily(2)
    with pytest.raises(DomainError):
        unpack_tagged(fam, b"\x00")
    with pytest.raises(DomainError):
        unpack_tagged(fam, b"\x00\x00\x00")
    with pytest.raises(DomainError):
        unpack_tagged(fam, b"\x00\x04")   # tag beyond 2 bits
    with pytest.raises(DomainError):
        unpack_tagged(fam, b"\x05\x00")   # message beyond 2 bits
    with pytest.raises(DomainError):
        pack_tagged(fam, TaggedMessage(0, 4))


@pytest.mark.parametrize("fam, x", [
    (MulFamily(2), 5), (MulFamily(2), 300), (PolyFamily(2, 2), (9, 0)),
    (PolyFamily(2, 2), (1, 2, 3)), (ToeplitzFamily(4, 3), -1), (CounterexampleFamily(2), 2),
    (TableFamily(["a", "b"], [[0, 1]]), "c"), (lift_to_asu2(MulFamily(2)), 4),
], ids=["mul-5", "mul-300", "poly-block", "poly-length", "toeplitz-negative",
        "counterexample", "table", "lift"])
def test_pack_refuses_a_non_message(fam, x):
    with pytest.raises(DomainError):
        pack_tagged(fam, TaggedMessage(x, 0))


# every entry point takes a tag (or a pad) through HashFamily.check_tag, so a
# float, a bool, a string, None or an out-of-range int is one DomainError
TAG_ENTRY_POINTS = {
    "check_tag": lambda fam, t: fam.check_tag(t),
    "verify": lambda fam, t: verify(fam, AuthKey(1, 0), TaggedMessage(1, t)),
    "pad": lambda fam, t: authenticate(fam, AuthKey(1, t), 1),
    "pack_tagged": lambda fam, t: pack_tagged(fam, TaggedMessage(1, t)),
    "split_wire": lambda fam, t: WcProtocol(fam, False).receive(1, (1, t)),
}


@pytest.mark.parametrize("t", [1.0, True, "1", None, -1, 4])
@pytest.mark.parametrize("entry", sorted(TAG_ENTRY_POINTS))
def test_one_rule_for_tags_and_pads(entry, t):
    with pytest.raises(DomainError):
        TAG_ENTRY_POINTS[entry](MulFamily(2), t)


@pytest.mark.parametrize("k", [1.0, True, "1", None, -1, 4])
def test_one_rule_for_keys(k):
    with pytest.raises(DomainError):
        MulFamily(2).check_key(k)


WIRE_FAMILIES = [MulFamily(1), MulFamily(2), MulFamily(9), PolyFamily(4, 2), PolyFamily(3, 3),
                 ToeplitzFamily(4, 3), ToeplitzFamily(9, 2), CounterexampleFamily(2),
                 lift_to_asu2(MulFamily(2)), TableFamily(["a", [1, 2], 3], [[0, 1, 2]])]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(WIRE_FAMILIES), st.binary(max_size=5))
def test_unpack_of_any_bytes_raises_only_domain_error(fam, data):
    try:
        ym = unpack_tagged(fam, data)
    except DomainError:
        return
    assert pack_tagged(fam, ym) == data


def test_forgery_rate_bounded_by_family_epsilon():
    # Over uniform (k1, pad), a fixed substitution of the observed wire
    # message succeeds with probability at most the family's two-point bound.
    fam = MulFamily(2)
    eps = F(1, 4)
    for x in fam.messages:
        for xp in fam.messages:
            if xp == x:
                continue
            for delta in fam.tags():
                hits = 0
                total = 0
                for k1 in fam.keys():
                    for k2 in fam.tags():
                        ym = authenticate(fam, AuthKey(k1, k2), x)
                        forged = TaggedMessage(xp, ym.t ^ delta)
                        total += 1
                        if verify(fam, AuthKey(k1, k2), forged) == xp:
                            hits += 1
                assert F(hits, total) <= eps
