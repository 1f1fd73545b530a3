"""Arithmetic in GF(2^m) on plain integers.

An element is an int in [0, 2^m) whose bits are the coefficients of a binary
polynomial (bit i = coefficient of x^i).  Addition is XOR.  Multiplication is
shift-and-reduce modulo a fixed irreducible polynomial of degree m, stored as
an (m+1)-bit mask.

The degree fixes the field: its modulus is the lexicographically smallest
irreducible polynomial of that degree, which gives the usual choices:

    m=2: x^2+x+1      m=3: x^3+x+1      m=4: x^4+x+1
    m=8: x^8+x^4+x^3+x+1

Only m <= 16 is supported; that is the whole exact-enumeration regime of this
package.  For fields of that size a log/antilog table pays for itself, so one
is built lazily on first multiplication.
"""

from __future__ import annotations

from .errors import DomainError, check_int

MAX_DEGREE = 16

# Lexicographically smallest irreducible polynomial per degree.
DEFAULT_MODULUS = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
}


def poly_mod(a: int, b: int) -> int:
    """Remainder of the bit-polynomial a modulo b (b != 0)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(mask: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m//2."""
    if mask.bit_length() - 1 != m:
        return False
    for d in range(1, m // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(mask, q) == 0:
                return False
    return True


class FieldCtx:
    """A GF(2^m) context: degree, its modulus DEFAULT_MODULUS[m], and element-level operations.

    Instances are immutable after construction apart from the lazily built
    log/antilog tables, which are a pure cache.
    """

    def __init__(self, m: int):
        self.m = check_int(m, 1, MAX_DEGREE, "field degree")
        self.modulus = DEFAULT_MODULUS[m]
        self.order = 1 << m
        self._exp: list[int] | None = None
        self._log: list[int] | None = None

    def __repr__(self) -> str:
        return f"FieldCtx(m={self.m}, modulus={self.modulus:#b})"

    def check(self, a: int) -> int:
        return check_int(a, 0, self.order - 1, "field element")

    def elements(self) -> range:
        return range(self.order)

    def _mul_raw(self, a: int, b: int) -> int:
        # Interleaved shift-and-reduce; keeps intermediates below 2^(m+1).
        p = 0
        top = 1 << self.m
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & top:
                a ^= self.modulus
            b >>= 1
        return p

    def _ensure_tables(self) -> None:
        if self._exp is not None:
            return
        n = self.order - 1
        # x need not generate the multiplicative group (it does not for the
        # degree-8 modulus), so scan for a generator, from 1: all of GF(2)'s group.
        for g in range(1, self.order):
            exp = [0] * n
            log = [-1] * self.order
            v = 1
            ok = True
            for i in range(n):
                if log[v] >= 0:
                    ok = False
                    break
                exp[i] = v
                log[v] = i
                v = self._mul_raw(v, g)
            if ok and v == 1:
                self._exp, self._log = exp, log
                return
        raise AssertionError("no generator found; modulus cannot be irreducible")

    def mul(self, a: int, b: int) -> int:
        n = self.order - 1
        check_int(a, 0, n, "field element")   # self.check's rule, inlined: mul is hot
        check_int(b, 0, n, "field element")
        if a == 0 or b == 0:
            return 0
        self._ensure_tables()
        return self._exp[(self._log[a] + self._log[b]) % n]

    def mul_row(self, a: int) -> list[int]:
        """[mul(a, b) for b in elements()], read from the log/antilog tables in one pass."""
        if self.check(a) == 0:
            return [0] * self.order
        self._ensure_tables()
        la = self._log[a]
        rotated = self._exp[la:] + self._exp[:la]   # rotated[i] = a * g^i
        return [0, *map(rotated.__getitem__, self._log[1:])]

    def pow(self, a: int, e: int) -> int:
        self.check(a)
        check_int(e, 0, None, "exponent")
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise DomainError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)
