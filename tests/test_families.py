"""Family evaluation against independent reimplementations."""

import json

import pytest
from hypothesis import given, strategies as st

from recmac import (
    BudgetExceeded,
    CounterexampleFamily,
    DomainError,
    MulFamily,
    PolyFamily,
    TableFamily,
    ToeplitzFamily,
    WcProtocol,
    lift_to_asu2,
    parse_family,
)

from conftest import gf_mul_oracle, toeplitz_row_parity_oracle


def test_mul_frozen_value():
    assert MulFamily(2).tag(3, 2) == 1


def test_mul_matches_field_oracle():
    for m in (2, 3, 4):
        fam = MulFamily(m)
        for k in fam.keys():
            for x in fam.messages:
                assert fam.tag(k, x) == gf_mul_oracle(k, x, fam.field.modulus)


def test_poly_matches_hand_evaluation():
    # sum_{i=1..L} x_i k^i, computed here with the schoolbook oracle only
    for m, length in ((2, 2), (3, 2), (2, 3)):
        fam = PolyFamily(m, length)
        mod = fam.field.modulus
        for k in fam.keys():
            for x in fam.messages:
                acc = 0
                kp = 1
                for block in x:
                    kp = gf_mul_oracle(kp, k, mod)
                    acc ^= gf_mul_oracle(block, kp, mod)
                assert fam.tag(k, x) == acc


def test_poly_no_constant_term():
    # h_k(x) has no constant term, so the zero key maps everything to zero
    fam = PolyFamily(4, 3)
    for x in list(fam.messages)[:32]:
        assert fam.tag(0, x) == 0


def test_toeplitz_matches_matrix_oracle():
    for n, m in ((3, 2), (4, 3), (2, 4)):
        fam = ToeplitzFamily(n, m)
        for k in fam.keys():
            # Build the m-by-n matrix explicitly: constant diagonals, entry
            # (i, j) = key bit i - j + n - 1.
            mat = [[(k >> (i - j + n - 1)) & 1 for j in range(n)] for i in range(m)]
            for x in fam.messages:
                xbits = [(x >> j) & 1 for j in range(n)]
                t = 0
                for i in range(m):
                    if sum(mat[i][j] * xbits[j] for j in range(n)) % 2:
                        t |= 1 << i
                assert fam.tag(k, x) == t


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 5), (4, 4), (5, 1), (6, 6)])
def test_toeplitz_windows_match_row_parities(n, m):
    fam = ToeplitzFamily(n, m)
    for k in fam.keys():
        for x in fam.messages:
            assert fam._tag(k, x) == toeplitz_row_parity_oracle(n, m, k, x)


def test_counterexample_values():
    for m in (1, 2, 3):
        fam = CounterexampleFamily(m)
        assert fam.key_count == 2 ** m - 1
        for k in fam.keys():
            assert fam.tag(k, 0) == 0
            assert fam.tag(k, 1) == k + 1
        assert sorted(fam.tag(k, 1) for k in fam.keys()) == list(range(1, 2 ** m))


def test_xor_linearity_flag_is_true():
    for fam in (MulFamily(3), PolyFamily(2, 2), ToeplitzFamily(3, 2),
                CounterexampleFamily(2)):
        assert fam.xor_linear
        msgs = list(fam.messages)
        for k in fam.keys():
            for x1 in msgs:
                for x2 in msgs:
                    if isinstance(x1, tuple):
                        d = tuple(a ^ b for a, b in zip(x1, x2))
                    else:
                        d = x1 ^ x2
                    assert fam.tag(k, x1) ^ fam.tag(k, x2) == fam._tag(k, d)


def test_lift_is_base_xor_pad():
    for base in (MulFamily(2), ToeplitzFamily(3, 2)):
        lifted = lift_to_asu2(base)
        assert lifted.key_count == base.key_count * base.tag_count
        assert not lifted.xor_linear
        for k in lifted.keys():
            k1, k2 = divmod(k, base.tag_count)
            for x in lifted.messages:
                assert lifted.tag(k, x) == base.tag(k1, x) ^ k2


def test_tag_table_matches_pointwise_and_caches():
    fam = MulFamily(3)
    tab = fam.tag_table()
    assert tab is fam.tag_table()
    for k in fam.keys():
        for i, x in enumerate(fam.messages):
            assert tab[k][i] == fam.tag(k, x)


def test_tag_table_budget():
    fam = ToeplitzFamily(8, 8)   # 2^15 keys * 256 messages
    with pytest.raises(BudgetExceeded):
        fam.tag_table(budget=1000)


def test_tag_table_checks_its_budget_on_every_call():
    # a cached table is no reason to admit a call the budget refuses
    fam = MulFamily(3)
    fam.tag_table()
    with pytest.raises(BudgetExceeded):
        fam.tag_table(budget=1)
    with pytest.raises(BudgetExceeded):
        WcProtocol(fam, True, budget=1)


def test_tag_validation():
    fam = MulFamily(2)
    with pytest.raises(DomainError):
        fam.tag(4, 0)
    with pytest.raises(DomainError):
        fam.tag(-1, 0)
    with pytest.raises(DomainError):
        fam.tag(0, 7)
    pf = PolyFamily(2, 2)
    with pytest.raises(DomainError):
        pf.tag(0, (0, 9))
    with pytest.raises(DomainError):
        pf.tag(0, 3)   # not a tuple


def test_message_wire_roundtrip():
    for fam in (MulFamily(3), PolyFamily(3, 2), ToeplitzFamily(4, 2),
                CounterexampleFamily(2), TableFamily(["a", [1, 2], 3], [[0, 1, 2]]),
                lift_to_asu2(PolyFamily(2, 2))):
        for i, x in enumerate(fam.messages):
            assert fam.message_index(x) == i < (1 << fam.message_bits)
            assert fam.message_from_int(i) == x
        for v in (-1, len(fam.messages)):
            with pytest.raises(DomainError, match="out of range"):
                fam.message_from_int(v)


def test_poly_block_packing_frozen():
    fam = PolyFamily(4, 2)
    assert fam.message_index((2, 1)) == 0x21
    assert fam.message_from_int(0x21) == (2, 1)


def test_poly_guards():
    with pytest.raises(DomainError):
        PolyFamily(4, 0)
    with pytest.raises(BudgetExceeded):
        PolyFamily(8, 3)   # 24-bit message space


def test_toeplitz_guards():
    with pytest.raises(DomainError):
        ToeplitzFamily(0, 2)
    with pytest.raises(DomainError):
        ToeplitzFamily(2, 0)
    with pytest.raises(BudgetExceeded):
        ToeplitzFamily(17, 2)


def test_table_family_validation():
    with pytest.raises(DomainError):
        TableFamily([], [])
    with pytest.raises(DomainError):
        TableFamily([0, 0], [[1, 2]])          # duplicate messages
    with pytest.raises(DomainError):
        TableFamily([0, 1], [[1]])             # ragged row
    with pytest.raises(DomainError):
        TableFamily([0, 1], [])                # no keys
    with pytest.raises(DomainError):
        TableFamily([0, 1], [[0, -1]])         # negative tag
    with pytest.raises(DomainError):
        TableFamily([0, 1], [[0, 4]], m=2)     # tag does not fit pinned width
    fam = TableFamily([0, 1], [[0, 3]])
    assert fam.tag_bits == 2                   # inferred from the largest tag
    fam = TableFamily([0, 1], [[0, 1]], m=4)
    assert fam.tag_bits == 4                   # pinned wider than needed


@pytest.mark.parametrize("rows, m", [
    ([["a", 1], [1, 0]], None),
    ([[True, 1], [1, 0]], None),
    ([[1.5, 1]], None),
    ([[None, 1]], None),
    ([1, 2], None),
    ([[0, 1]], "x"),
], ids=["string", "bool", "float", "null", "scalar-row", "string-width"])
def test_table_family_rejects_non_integer_tags(rows, m):
    with pytest.raises(DomainError):
        TableFamily([0, 1], rows, m=m)


def test_table_family_rejects_unhashable_messages():
    with pytest.raises(DomainError):
        TableFamily([{}, 1], [[0, 1]])
    with pytest.raises(DomainError):
        TableFamily([[1, [2]], 1], [[0, 1]])


@pytest.mark.parametrize("messages", [
    [None, 0, 1], [None, False, 1.5], [0, 1.5, 2], [[0, None], 1, 2], [(0, 1.5), 1, 2],
], ids=["null", "null-float", "float", "null-in-list", "float-in-tuple"])
def test_table_family_rejects_null_and_float_messages(messages):
    with pytest.raises(DomainError, match="integers, strings or lists of those"):
        TableFamily(messages, [[1, 1, 0], [1, 0, 0], [1, 0, 1]], m=1)


def test_table_messages_are_integers_strings_or_lists_of_those():
    fam = TableFamily([True, "b", [0, "a", False], (2, 3), []], [[0, 1, 2, 3, 0]])
    assert list(fam.messages) == [True, "b", (0, "a", False), (2, 3), ()]


def test_table_family_messages_are_hashable():
    fam = TableFamily([[1, 2], [3]], [[0, 1]])
    assert list(fam.messages) == [(1, 2), (3,)]
    assert fam.tag(0, (1, 2)) == 0 and fam.tag(0, (3,)) == 1
    assert fam.message_index((3,)) == 1
    with pytest.raises(DomainError):
        fam.tag(0, [1, 2])   # a list is no message, only its tuple is


def test_table_family_wire_is_index():
    fam = TableFamily(["alpha", "beta"], [[1, 2], [3, 0]])
    assert fam.message_index("beta") == 1
    assert fam.message_from_int(0) == "alpha"
    assert fam.tag(1, "beta") == 0


def test_table_from_json_roundtrip(tmp_path):
    doc = {"keys": 2, "messages": [0, 1, 2], "table": [[0, 1, 2], [2, 1, 0]], "m": 2}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    fam = TableFamily.from_json(str(path))
    assert fam.key_count == 2
    assert fam.tag_bits == 2
    assert fam.tag(1, 0) == 2
    assert fam.descriptor() == f"table:@{path}"


def test_table_from_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"keys": 3, "messages": [0], "table": [[0]]}))
    with pytest.raises(DomainError):
        TableFamily.from_json(str(bad))
    bad.write_text(json.dumps({"messages": [0]}))
    with pytest.raises(DomainError):
        TableFamily.from_json(str(bad))


def test_descriptor_roundtrip():
    for desc in ("mul:m=2", "poly:m=4,L=2", "toeplitz:n=4,m=3", "counterexample:m=2"):
        fam = parse_family(desc)
        again = parse_family(fam.descriptor())
        assert type(again) is type(fam)
        assert again.descriptor() == fam.descriptor()
        assert again.key_count == fam.key_count
        assert list(again.messages) == list(fam.messages)


def test_parse_family_errors():
    for bad in ("mul", "mul:m=2,x=3", "poly:m=4", "mul:m=abc", "bogus:m=2",
                "table:file.json", "mul:m"):
        with pytest.raises(DomainError):
            parse_family(bad)


@pytest.mark.parametrize("desc, key", [("mul:m=3,m=2", "m"), ("mul:m=2,m=2", "m"),
                                       ("poly:m=2,L=2,l=1", "l"), ("toeplitz:n=4, N=4,m=3", "n")])
def test_parse_family_refuses_a_repeated_parameter(desc, key):
    # keys are compared after lower-casing, so L and l are one parameter
    with pytest.raises(DomainError, match=f"repeats parameter '{key}'"):
        parse_family(desc)


@given(st.integers(min_value=2, max_value=6), st.data())
def test_mul_tag_is_field_product(m, data):
    fam = MulFamily(m)
    k = data.draw(st.integers(min_value=0, max_value=fam.key_count - 1))
    x = data.draw(st.integers(min_value=0, max_value=len(fam.messages) - 1))
    assert fam.tag(k, x) == gf_mul_oracle(k, x, fam.field.modulus)
