"""Keyed hash families with enumerable key and message spaces.

Every family here is small enough to enumerate: keys are indexed 0..K-1,
messages live in an explicit list, and tags are m-bit integers.  That is the
whole point: the security properties measured in measure.py and ucsim.py are
computed by exact counting, not bounded by proofs.

Families:

  Mul            h_k(x) = k*x in GF(2^m); keys and messages are field elements.
  Poly(L)        h_k(x_1..x_L) = sum x_i * k^i; no constant term, so the
                 difference polynomial of two distinct messages has no
                 constant term either and k=0 is always a root.
  Toeplitz       h_k(x) = T_k x over GF(2); T_k is the m-by-n Toeplitz matrix
                 whose diagonals are the n+m-1 key bits.
  Table          explicit |K| x |X| tag table, for fixtures.
  Counterexample h_k(0) = 0 for every key and h_k(1) ranges uniformly over
                 the 2^m - 1 nonzero tags; the family whose perfect
                 substitution resistance coexists with trivial forgeability
                 of the all-zero tagged message.

Messages are numbered by their position in `messages`; that index is a
message's integer on the wire, encoded and decoded by HashFamily alone.
Mul, Toeplitz and Counterexample messages are the ints themselves, each its
own index, and Poly's L-tuples come in product order, so the index packs the
blocks big-endian, m bits each.  A lookup is exact: True is no message 1.

Mul, Poly and Toeplitz are XOR-linear in the message: h_k(x1) ^ h_k(x2) =
h_k(x1 ^ x2).  The `xor_linear` flag records that structural fact; measure.py
uses it to collapse pair enumerations to difference enumerations without
giving up exactness, and reads the strong bound of a linear or a lifted
family from that difference walk.
"""

from __future__ import annotations

import itertools
import json
from typing import Sequence

from .errors import BudgetExceeded, DomainError, DEFAULT_BUDGET, check_budget, check_int
from .gf2m import FieldCtx


def _exact(x):
    """x with its type and its blocks' types: True matches no message 1, (True, 1) no (1, 1)."""
    return x, type(x), (tuple(map(type, x)) if type(x) is tuple else ())


class HashFamily:
    """Base class; subclasses set the spaces and implement _tag()."""

    field: FieldCtx
    tag_bits: int
    message_bits: int
    key_count: int
    messages: Sequence
    xor_linear: bool = False
    _msg_index: dict | None = None        # exact message -> index, built on first lookup
    _table: list[list[int]] | None = None  # the tag table, built on first use

    # -- spaces ------------------------------------------------------------

    @property
    def tag_count(self) -> int:
        return 1 << self.tag_bits

    def tags(self) -> range:
        return range(self.tag_count)

    def keys(self) -> range:
        return range(self.key_count)

    def message_index(self, x) -> int:
        if type(self.messages) is range:   # a message is its own index; no dict
            return check_int(x, 0, len(self.messages) - 1, "message", self)
        if self._msg_index is None:
            self._msg_index = {_exact(m): i for i, m in enumerate(self.messages)}
        try:
            return self._msg_index[_exact(x)]
        except (KeyError, TypeError):
            raise DomainError(f"{x!r} is not a message of {self.descriptor()}") from None

    def check_key(self, k: int) -> int:
        return check_int(k, 0, self.key_count - 1, "key", self)

    def check_tag(self, t: int, what: str = "tag") -> int:
        return check_int(t, 0, self.tag_count - 1, what, self)

    # -- evaluation --------------------------------------------------------

    def tag(self, k: int, x) -> int:
        """The tag h_k(x)."""
        self.check_key(k)
        self.message_index(x)
        return self._tag(k, x)

    def _tag(self, k: int, x) -> int:
        raise NotImplementedError

    def tag_table(self, budget: int = DEFAULT_BUDGET) -> list[list[int]]:
        """The full |K| x |X| evaluation table, built once and cached."""
        # checked on every call, so whether a call refuses never depends on an earlier one
        check_budget(self.key_count * len(self.messages), budget, "evaluation table")
        return self._tag_table()

    def _tag_table(self) -> list[list[int]]:
        """tag_table without a budget check, for callers that made their own."""
        if self._table is None:
            self._table = [
                [self._tag(k, x) for x in self.messages] for k in self.keys()
            ]
        return self._table

    # -- wire encoding of messages ------------------------------------------

    def message_from_int(self, v: int):
        return self.messages[check_int(v, 0, len(self.messages) - 1, "message index", self)]

    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.descriptor()}>"


class MulFamily(HashFamily):
    """h_k(x) = k*x in GF(2^m); zero message and zero key allowed."""

    def __init__(self, m: int):
        self.field = FieldCtx(m)
        self.tag_bits = m
        self.message_bits = m
        self.key_count = self.field.order
        self.messages = range(self.field.order)
        self.xor_linear = True

    def _tag(self, k: int, x: int) -> int:
        return self.field.mul(k, x)

    def descriptor(self) -> str:
        return f"mul:m={self.tag_bits}"


class PolyFamily(HashFamily):
    """h_k(x) = sum_{i=1..L} x_i * k^i over GF(2^m).

    Messages are L-tuples of field elements.  The sum deliberately starts at
    i=1: with no constant term an L-term difference polynomial has at most L
    roots, giving the L/2^m two-key collision bound that measure.py checks.
    """

    def __init__(self, m: int, length: int):
        self.field = FieldCtx(m)
        check_int(length, 1, None, "poly block count")
        if m * length > 20:
            raise BudgetExceeded(
                f"poly message space 2^{m * length} is too large to enumerate"
            )
        self.length = length
        self.tag_bits = m
        self.message_bits = m * length
        self.key_count = self.field.order
        self.messages = list(itertools.product(self.field.elements(), repeat=length))
        self.xor_linear = True

    def _tag(self, k: int, x: tuple) -> int:
        f = self.field
        acc = 0
        kp = 1
        for block in x:
            kp = f.mul(kp, k)
            acc ^= f.mul(block, kp)
        return acc

    def descriptor(self) -> str:
        return f"poly:m={self.tag_bits},L={self.length}"


class ToeplitzFamily(HashFamily):
    """h_k(x) = T_k x over GF(2) for an m-by-n Toeplitz matrix T_k.

    The key is an (n+m-1)-bit integer s; entry T[i][j] = bit i-j+n-1 of s,
    so every diagonal is constant.  Message bit j and tag bit i are the
    corresponding low-order bits.  Column j of T_k is therefore the key
    window (s >> (n-1-j)) mod 2^m, and the tag is the XOR of the windows
    of x's set bits.
    """

    def __init__(self, n: int, m: int):
        check_int(n, 1, None, "toeplitz n")
        check_int(m, 1, None, "toeplitz m")
        if n > 16 or m > 16:
            raise BudgetExceeded("toeplitz spaces beyond 16 bits are not enumerable here")
        self.field = FieldCtx(m)
        self.n = n
        self.tag_bits = m
        self.message_bits = n
        self.key_count = 1 << (n + m - 1)
        self.messages = range(1 << n)
        self.xor_linear = True

    def _tag(self, k: int, x: int) -> int:
        t = 0
        shift = self.n - 1
        while x:
            if x & 1:
                t ^= k >> shift
            x >>= 1
            shift -= 1
        return t & ((1 << self.tag_bits) - 1)

    def descriptor(self) -> str:
        return f"toeplitz:n={self.n},m={self.tag_bits}"


def _table_message(x):
    """x as a hashable table message: an integer, a string, or a tuple of those."""
    if isinstance(x, (list, tuple)) and all(isinstance(p, (int, str)) for p in x):
        return tuple(x)
    if isinstance(x, (int, str)):
        return x
    raise DomainError(f"table messages must be integers, strings or lists of those, got {x!r}")


class TableFamily(HashFamily):
    """A family given by an explicit tag table; rows may repeat.

    The JSON form is {"keys": K, "messages": [...], "table": [[...], ...]}
    with one row per key.  An optional "m" pins the tag width; otherwise the
    smallest width holding every tag is used.  Every message is an integer
    (booleans included), a string, or a list of those, held as a tuple.
    Anything else is a domain error: a null would read as the receiver's
    rejection, None, and a float has no place in the outcome order.
    """

    def __init__(self, messages: Sequence, table: Sequence[Sequence[int]],
                 m: int | None = None, source: str = "inline"):
        try:
            messages = [_table_message(x) for x in messages]
        except TypeError:
            raise DomainError("table family messages must be a list") from None
        if not messages:
            raise DomainError("table family needs at least one message")
        if len(set(messages)) != len(messages):
            raise DomainError("table family messages must be distinct")
        try:
            rows = [list(r) for r in table]
        except TypeError:
            raise DomainError("every table row must be a list of tags") from None
        if not rows:
            raise DomainError("table family needs at least one key row")
        for r in rows:
            if len(r) != len(messages):
                raise DomainError("every table row must have one tag per message")
            for t in r:
                check_int(t, 0, None, "table tag")
        max_tag = max(max(r) for r in rows)
        if m is None:
            m = max(1, max_tag.bit_length())
        self.field = FieldCtx(m)   # checks the tag width m
        if max_tag >= (1 << m):
            raise DomainError(f"tag {max_tag} does not fit in {m} bits")
        self.tag_bits = m
        self.message_bits = max(1, (len(messages) - 1).bit_length())
        self.key_count = len(rows)
        self.messages = messages
        self._rows = rows
        self._column = {x: i for i, x in enumerate(messages)}   # _tag's x is checked already
        self._source = source

    @classmethod
    def from_json(cls, path: str) -> "TableFamily":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            keys = doc["keys"]
            messages = doc["messages"]
            table = doc["table"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed table file {path}: {exc}") from None
        if not isinstance(table, list):
            raise DomainError(f"malformed table file {path}: 'table' must be a list of rows")
        if check_int(keys, 0, None, f"'keys' of {path}") != len(table):
            raise DomainError(f"{path}: 'keys' is {keys} but table has {len(table)} rows")
        return cls(messages, table, m=doc.get("m"), source=f"@{path}")

    def _tag(self, k: int, x) -> int:
        return self._rows[k][self._column[x]]

    def descriptor(self) -> str:
        return f"table:{self._source}"


class CounterexampleFamily(HashFamily):
    """Two messages; h_k(0) = 0 always, h_k(1) uniform over nonzero tags.

    The key space has 2^m - 1 keys, one per nonzero tag.  Substitution of one
    message for the other succeeds with probability at most 1/(2^m - 1), yet
    the tagged message (0, 0) verifies under every key.
    """

    def __init__(self, m: int):
        self.field = FieldCtx(m)
        self.tag_bits = m
        self.message_bits = 1
        self.key_count = self.field.order - 1
        self.messages = range(2)
        self.xor_linear = True

    def _tag(self, k: int, x: int) -> int:
        return (k + 1) if x else 0

    def descriptor(self) -> str:
        return f"counterexample:m={self.tag_bits}"


class LiftedFamily(HashFamily):
    """g_{(k1,k2)}(x) = h_{k1}(x) ^ k2: the pad folded into the key.

    Keys are indexed k1 * |T| + k2.  If h has two-key collision bound eps,
    g carries the same bound in two-point form, and its tag marginal is
    exactly uniform whatever h does.
    """

    def __init__(self, base: HashFamily):
        self.base = base
        self.field = base.field
        self.tag_bits = base.tag_bits
        self.message_bits = base.message_bits
        self.key_count = base.key_count * base.tag_count
        self.messages = base.messages
        self.xor_linear = False  # affine in the message, not linear

    def _tag(self, k: int, x) -> int:
        k1, k2 = divmod(k, self.tag_count)
        return self.base._tag(k1, x) ^ k2

    def descriptor(self) -> str:
        return f"lift({self.base.descriptor()})"


def lift_to_asu2(fam: HashFamily) -> LiftedFamily:
    """The pad-keyed family used by the no-recycling authentication mode."""
    return LiftedFamily(fam)


def parse_family(desc: str) -> HashFamily:
    """Build a family from a descriptor string.

    Grammar: mul:m=M | poly:m=M,L=L | toeplitz:n=N,m=M | table:@file.json
    | counterexample:m=M.
    """
    desc = desc.strip()
    name, sep, rest = desc.partition(":")
    if not sep:
        raise DomainError(f"descriptor {desc!r} has no parameters")
    name = name.lower()
    if name == "table":
        if not rest.startswith("@"):
            raise DomainError("table descriptor must be table:@<path.json>")
        return TableFamily.from_json(rest[1:])
    params: dict[str, int] = {}
    for part in rest.split(","):
        key, psep, val = part.partition("=")
        key = key.strip().lower()
        if not psep:
            raise DomainError(f"bad parameter {part!r} in {desc!r}")
        if key in params:
            raise DomainError(f"descriptor {desc!r} repeats parameter {key!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise DomainError(f"parameter {part!r} in {desc!r} is not an integer") from None
    builders = {
        "mul": (("m",), MulFamily),
        "poly": (("m", "l"), PolyFamily),
        "toeplitz": (("n", "m"), ToeplitzFamily),
        "counterexample": (("m",), CounterexampleFamily),
    }
    if name not in builders:
        raise DomainError(f"unknown family {name!r}")
    wanted, build = builders[name]
    try:
        args = [params.pop(w) for w in wanted]
    except KeyError as exc:
        raise DomainError(f"descriptor {desc!r} is missing parameter {exc}") from None
    if params:
        raise DomainError(f"descriptor {desc!r} has unknown parameters {sorted(params)}")
    return build(*args)
