"""Field arithmetic against schoolbook polynomial division."""

import random

import pytest
from hypothesis import given, strategies as st

from recmac import DEFAULT_MODULUS, DomainError, FieldCtx, is_irreducible
from recmac.gf2m import MAX_DEGREE, poly_mod

from conftest import gf_mul_oracle, irreducible_oracle


def test_mul_frozen_value():
    f = FieldCtx(2)
    assert f.mul(0b10, 0b10) == 0b11   # x * x = x + 1 mod x^2+x+1


def test_mul_matches_schoolbook_exhaustively_small():
    for m in (1, 2, 3, 4):
        f = FieldCtx(m)
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == gf_mul_oracle(a, b, f.modulus)


def test_mul_row_is_mul_on_every_element():
    # rows start before any mul has built the tables, and the degree-8 modulus
    # is one whose x does not generate the multiplicative group
    for f in [FieldCtx(m) for m in range(1, 9)] + [FieldCtx(4, 0b11001)]:
        for a in f.elements():
            assert f.mul_row(a) == [gf_mul_oracle(a, b, f.modulus) for b in f.elements()]
    with pytest.raises(DomainError):
        FieldCtx(3).mul_row(8)


def test_gf2_multiplies_through_its_tables():
    # the generator scan starts at 1, which generates GF(2)'s one-element group
    f = FieldCtx(1)
    assert f.mul(1, 1) == 1
    assert (f._exp, f._log) == ([1], [-1, 0])


def test_mul_matches_schoolbook_random_large():
    rng = random.Random(1234)
    for m in range(5, MAX_DEGREE + 1):
        f = FieldCtx(m)
        for _ in range(10_000 // (MAX_DEGREE - 4)):
            a = rng.randrange(f.order)
            b = rng.randrange(f.order)
            assert f.mul(a, b) == gf_mul_oracle(a, b, f.modulus)


def test_field_axioms_exhaustive():
    for m in (2, 3, 4):
        f = FieldCtx(m)
        els = list(f.elements())
        for a in els:
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            for b in els:
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_inverses():
    for m in range(1, 9):
        f = FieldCtx(m)
        for a in range(1, f.order):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(DomainError):
            f.inv(0)


def test_pow():
    f = FieldCtx(4)
    for a in f.elements():
        assert f.pow(a, 0) == 1
        acc = 1
        for e in range(1, 6):
            acc = f.mul(acc, a)
            assert f.pow(a, e) == acc
    for a in range(1, f.order):
        assert f.pow(a, f.order - 1) == 1
    with pytest.raises(DomainError):
        f.pow(2, -1)


def test_is_irreducible_known_cases():
    assert is_irreducible(0b111, 2)          # x^2+x+1
    assert not is_irreducible(0b101, 2)      # x^2+1 = (x+1)^2
    assert is_irreducible(0b11111, 4)        # x^4+x^3+x^2+x+1
    assert not is_irreducible(0b10101, 4)    # (x^2+x+1)^2
    assert not is_irreducible(0b111, 3)      # degree mismatch


def test_is_irreducible_matches_oracle_exhaustively():
    for m in range(1, 9):
        for mask in range(1 << m, 1 << (m + 1)):
            assert is_irreducible(mask, m) == irreducible_oracle(mask, m), mask


def test_default_moduli_are_smallest_irreducible():
    for m, mod in DEFAULT_MODULUS.items():
        assert irreducible_oracle(mod, m), f"default modulus for m={m} is reducible"
        for smaller in range(1 << m, mod):
            assert not irreducible_oracle(smaller, m), (
                f"m={m}: {smaller:#b} is irreducible and smaller than {mod:#b}"
            )


def test_poly_mod_reduces_below_divisor():
    rng = random.Random(7)
    for _ in range(2000):
        b = rng.randrange(2, 1 << 12)
        a = rng.randrange(1 << 20)
        r = poly_mod(a, b)
        assert r.bit_length() < b.bit_length()
        # r differs from a by a multiple of b: divide the difference out
        assert poly_mod(a ^ r, b) == 0


def test_context_validation():
    with pytest.raises(DomainError):
        FieldCtx(0)
    with pytest.raises(DomainError):
        FieldCtx(MAX_DEGREE + 1)
    with pytest.raises(DomainError):
        FieldCtx(2, modulus=0b101)   # reducible
    f = FieldCtx(3)
    with pytest.raises(DomainError):
        f.mul(8, 1)
    with pytest.raises(DomainError):
        f.mul(1, -1)


def test_alternate_modulus_supported():
    # The other irreducible cubic: x^3 + x^2 + 1.
    f = FieldCtx(3, modulus=0b1101)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == gf_mul_oracle(a, b, 0b1101)


@given(
    m=st.integers(min_value=2, max_value=12),
    data=st.data(),
)
def test_distributivity_random(m, data):
    f = FieldCtx(m)
    a = data.draw(st.integers(min_value=0, max_value=f.order - 1))
    b = data.draw(st.integers(min_value=0, max_value=f.order - 1))
    c = data.draw(st.integers(min_value=0, max_value=f.order - 1))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    assert f.mul(a, b) == f.mul(b, a)
