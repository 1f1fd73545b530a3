"""Independent oracles the test suite holds the library against.

Nothing in this file imports library internals beyond the public evaluation
API (fam.tag, fam.keys, ...).  Field arithmetic, collision measures, and
real/ideal distances are reimplemented here from first principles, slowly and
obviously, so a library bug cannot hide in a shared helper.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import pickle
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from recmac import (
    LIST_ELIMINATION, AttackReport, Dist, DomainError, EnvStrategy, ExactEntropy, HashFamily,
    MulFamily, TableFamily, WcProtocol, entropy_of, lift_to_asu2, outcome_sort_key,
)


# -- GF(2)[x] schoolbook arithmetic -------------------------------------------


def poly_mul_bits(a: int, b: int) -> int:
    """Carry-less product of two bit polynomials."""
    acc = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            acc ^= a << i
        i += 1
    return acc


def poly_mod_bits(a: int, mod: int) -> int:
    """Long division remainder, one subtracted multiple at a time."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a != 0:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def gf_mul_oracle(a: int, b: int, mod: int) -> int:
    return poly_mod_bits(poly_mul_bits(a, b), mod)


def irreducible_oracle(mask: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m-1."""
    if mask.bit_length() - 1 != m:
        return False
    for q in range(2, 1 << m):
        if q.bit_length() - 1 < 1:
            continue
        if poly_mod_bits(mask, q) == 0:
            return True if q == mask else False
    return True


# -- family evaluation ----------------------------------------------------------


def toeplitz_row_parity_oracle(n: int, m: int, k: int, x: int) -> int:
    """T_k x by row parities: row i is key bits i+n-1 .. i, met by x's bits reversed."""
    xr = int(format(x, f"0{n}b")[::-1], 2)
    t = 0
    for i in range(m):
        t |= (((k >> i) & xr).bit_count() & 1) << i
    return t


# -- collision-measure oracles ------------------------------------------------


def axu2_oracle(fam) -> Fraction:
    """Naive max over pairs and targets of Pr_k[h(x1) ^ h(x2) = t]."""
    msgs = list(fam.messages)
    if len(msgs) < 2:
        return Fraction(0)
    best = 0
    for i, x1 in enumerate(msgs):
        for x2 in msgs[i + 1:]:
            hits: dict[int, int] = {}
            for k in fam.keys():
                d = fam.tag(k, x1) ^ fam.tag(k, x2)
                hits[d] = hits.get(d, 0) + 1
            best = max(best, max(hits.values()))
    return Fraction(best, fam.key_count)


def asu2_oracle(fam) -> Fraction:
    """Naive max over pairs of |T| * Pr_k[h(x1) = t1 and h(x2) = t2]."""
    msgs = list(fam.messages)
    if len(msgs) < 2:
        return Fraction(0)
    best = 0
    for i, x1 in enumerate(msgs):
        for x2 in msgs[i + 1:]:
            hits: dict[tuple, int] = {}
            for k in fam.keys():
                cell = (fam.tag(k, x1), fam.tag(k, x2))
                hits[cell] = hits.get(cell, 0) + 1
            best = max(best, max(hits.values()))
    return Fraction(fam.tag_count * best, fam.key_count)


# The witness oracles scan pairs (x1, x2) with x1 before x2 in message order
# and, within a pair, tags (or tag pairs) in increasing order, keeping the
# first strict maximum: the tie-breaks the library documents.


def axu2_witness_oracle(fam) -> tuple[Fraction, tuple | None]:
    """(epsilon, witness (x1, x2, t)) of the XOR bound, by the naive pair loop."""
    msgs = list(fam.messages)
    if len(msgs) < 2:
        return Fraction(0), None
    best, witness = -1, None
    for i, x1 in enumerate(msgs):
        for x2 in msgs[i + 1:]:
            hits: dict[int, int] = {}
            for k in fam.keys():
                d = fam.tag(k, x1) ^ fam.tag(k, x2)
                hits[d] = hits.get(d, 0) + 1
            for t in sorted(hits):
                if hits[t] > best:
                    best, witness = hits[t], (x1, x2, t)
    return Fraction(best, fam.key_count), witness


def asu2_witness_oracle(fam) -> tuple[Fraction, tuple | None]:
    """(epsilon, witness (x1, x2, t1, t2)) of the strong bound, by the naive pair loop."""
    msgs = list(fam.messages)
    if len(msgs) < 2:
        return Fraction(0), None
    best, witness = -1, None
    for i, x1 in enumerate(msgs):
        for x2 in msgs[i + 1:]:
            hits: dict[tuple, int] = {}
            for k in fam.keys():
                cell = (fam.tag(k, x1), fam.tag(k, x2))
                hits[cell] = hits.get(cell, 0) + 1
            for cell in sorted(hits):
                if hits[cell] > best:
                    best, witness = hits[cell], (x1, x2, *cell)
    return Fraction(fam.tag_count * best, fam.key_count), witness


def sample_axu2_oracle(fam, pairs: int, seed: int) -> tuple[Fraction, tuple | None]:
    """(estimate, witness) of sample_axu2: the first maximum over the drawn pairs.

    Replays the draws of random.Random(seed), message i then j among the
    others, and keeps the first strict maximum in draw order, tags in
    increasing order within a pair.
    """
    msgs = list(fam.messages)
    if len(msgs) < 2:
        return Fraction(0), None
    rng = random.Random(seed)
    best, witness = -1, None
    for _ in range(pairs):
        i = rng.randrange(len(msgs))
        others = msgs[:i] + msgs[i + 1:]
        x1, x2 = msgs[i], others[rng.randrange(len(others))]
        hits: dict[int, int] = {}
        for k in fam.keys():
            d = fam.tag(k, x1) ^ fam.tag(k, x2)
            hits[d] = hits.get(d, 0) + 1
        for t in sorted(hits):
            if hits[t] > best:
                best, witness = hits[t], (x1, x2, t)
    return Fraction(best, fam.key_count), witness


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of bit vectors given as ints, by elimination on leading bits."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def linear_axu2_oracle(fam) -> tuple[Fraction, tuple]:
    """(epsilon, witness) of the XOR bound by rank-nullity, without enumerating keys.

    For a family GF(2)-linear in the key bits and in the message, k -> h_k(d)
    is a linear map M_d whose column j is h at the j-th key bit.  Each tag in
    its image, 0 among them, has 2^(key_bits - rank M_d) preimages, so
    epsilon = 2^-min_d rank M_d, witnessed by (x0, x_d*, 0), where d* is the
    least d of least rank.
    """
    msgs = list(fam.messages)
    key_bits = (fam.key_count - 1).bit_length()
    rank, d = min((gf2_rank(fam.tag(1 << j, msgs[d]) for j in range(key_bits)), d)
                  for d in range(1, len(msgs)))
    return Fraction(1, 1 << rank), (msgs[0], msgs[d], 0)


# -- real/ideal distance oracle -----------------------------------------------
#
# Counting version of the one-round game for hash-family protocols, kept in
# integers until the final division.  Substitution: the sender tags x, the
# map replaces the observed wire message, the receiver checks.  Recycling
# mode keys are (k1, pad) with k1 published afterwards; standard mode keys
# are just the family key.  The ideal receiver accepts only unmodified
# delivery and its published k1 is uniform, independent of the rest.  Both
# oracles read each checked tag once per family object, from tag_map.


class TagMap(dict):
    """(k, x) -> fam.tag(k, x) over every key and message of `fam`.

    A miss calls fam.tag, so a non-message still raises DomainError.
    """

    def __init__(self, fam):
        super().__init__(((k, x), fam.tag(k, x)) for k in fam.keys() for x in fam.messages)
        self.fam = fam

    def __missing__(self, kx):
        return self.fam.tag(*kx)


@functools.lru_cache(maxsize=32)
def tag_map(fam) -> TagMap:
    return TagMap(fam)


def substitution_tv_oracle(fam, x, subst: dict, recycle: bool) -> Fraction:
    tag = tag_map(fam)
    real: dict[tuple, int] = {}
    ideal: dict[tuple, int] = {}
    if recycle:
        kc, tc = fam.key_count, fam.tag_count
        denom = kc * tc * kc
        for k1 in range(kc):
            for pad in range(tc):
                y = (x, tag[k1, x] ^ pad)
                yp = subst.get(y, y)
                xp, tp = yp
                out = xp if tag[k1, xp] ^ pad == tp else None
                cell = (x, y, yp, out, k1)
                real[cell] = real.get(cell, 0) + kc
        for k1s in range(kc):
            for pad in range(tc):
                y = (x, tag[k1s, x] ^ pad)
                yp = subst.get(y, y)
                out = x if yp == y else None
                for k1 in range(kc):
                    cell = (x, y, yp, out, k1)
                    ideal[cell] = ideal.get(cell, 0) + 1
    else:
        denom = fam.key_count
        for k in fam.keys():
            y = (x, tag[k, x])
            yp = subst.get(y, y)
            xp, tp = yp
            out = xp if tag[k, xp] == tp else None
            cell = (x, y, yp, out)
            real[cell] = real.get(cell, 0) + 1
        for k in fam.keys():
            y = (x, tag[k, x])
            yp = subst.get(y, y)
            out = x if yp == y else None
            cell = (x, y, yp, out)
            ideal[cell] = ideal.get(cell, 0) + 1
    diff = 0
    for cell in real.keys() | ideal.keys():
        diff += abs(real.get(cell, 0) - ideal.get(cell, 0))
    return Fraction(diff, 2 * denom)


def impersonation_tv_oracle(fam, wire: tuple, recycle: bool) -> Fraction:
    tag = tag_map(fam)
    xp, tp = wire
    real: dict[tuple, int] = {}
    ideal: dict[tuple, int] = {}
    if recycle:
        kc, tc = fam.key_count, fam.tag_count
        denom = kc * tc
        for k1 in range(kc):
            for pad in range(tc):
                out = xp if tag[k1, xp] ^ pad == tp else None
                cell = (wire, out, k1)
                real[cell] = real.get(cell, 0) + 1
            ideal[(wire, None, k1)] = tc
    else:
        denom = fam.key_count
        for k in fam.keys():
            out = xp if tag[k, xp] == tp else None
            cell = (wire, out)
            real[cell] = real.get(cell, 0) + 1
            ideal[(wire, None)] = ideal.get((wire, None), 0) + 1
    diff = 0
    for cell in real.keys() | ideal.keys():
        diff += abs(real.get(cell, 0) - ideal.get(cell, 0))
    return Fraction(diff, 2 * denom)


# -- worst-case search oracle ---------------------------------------------------
#
# The per-y worst-case search as it first stood in the library: for every
# candidate wire message and every y-group, a Counter of the group's keys by
# (verdict, recycled value), scored against the ideal law that puts 1/nr on
# each (out0, k1).  It runs on the protocol interface alone (keys, encode,
# verdicts, wire_values), reads a recycling key's k1 as key[0] and the nr
# recycled values as the family's keys, and keeps the library's tie-breaks:
# the first strict maximum in wire order per group, then per message.


def counter_tv_numerator(cells, out0, n: int, nr: int) -> int:
    """2*n*nr times the TV distance between the two worlds' (out, k1) laws.

    `cells` counts n real keys by (out, k1); the ideal world puts 1/nr on each
    (out0, k1).  The result is sum |c*nr - n*[out = out0]| over real and ideal
    cells, an ideal cell without real keys adding n.  Real k1 values are among
    the nr recycled ones, so a real cell with out = out0 is an ideal cell.
    """
    total = n * nr
    for (out, _), c in cells.items():
        if out == out0:
            total += abs(c * nr - n) - n
        else:
            total += c * nr
    return total


def counter_search_oracle(target, recycle: bool, mode: str) -> tuple[Fraction, EnvStrategy]:
    """(distance, witness) of the worst-case search in `mode`, unverified."""
    proto = WcProtocol(target, recycle) if isinstance(target, HashFamily) else target
    keys = list(proto.keys())
    wire = proto.wire_values()
    rec = [key[0] if proto.recycles else None for key in keys]
    nr = proto.fam.key_count if proto.recycles else 1
    if mode == "impersonation":
        best, best_yp = -1, None
        for yp in wire:
            cells = Counter(zip(proto.verdicts(keys, yp), rec))
            num = counter_tv_numerator(cells, None, len(keys), nr)
            if num > best:
                best, best_yp = num, yp
        return Fraction(best, 2 * len(keys) * nr), EnvStrategy.impersonate(best_yp)
    groups = []  # (x, y, indices of the keys sending y on x), y ascending per x
    spans = []   # (x, its first group, the group after its last)
    for x in proto.messages:
        by_y: dict[tuple, list] = defaultdict(list)
        for i, key in enumerate(keys):
            by_y[proto.encode([key], x)[0]].append(i)
        lo = len(groups)
        groups.extend((x, y, by_y[y]) for y in sorted(by_y, key=outcome_sort_key))
        spans.append((x, lo, len(groups)))
    best = [0] * len(groups)
    best_yp: list = [None] * len(groups)
    for yp in wire:
        cells = list(zip(proto.verdicts(keys, yp), rec))
        for g, (x, y, idx) in enumerate(groups):
            num = counter_tv_numerator(Counter(map(cells.__getitem__, idx)),
                                       x if yp == y else None, len(idx), nr)
            if num > best[g]:
                best[g], best_yp[g] = num, yp
    best_total = best_env = None
    for x, lo, hi in spans:
        total = sum(best[lo:hi])
        if best_total is None or total > best_total:
            best_total = total
            best_env = EnvStrategy.substitute(x, {
                groups[g][1]: best_yp[g] for g in range(lo, hi) if best_yp[g] is not None})
    return Fraction(best_total, 2 * len(keys) * nr), best_env


# -- run oracle -----------------------------------------------------------------
#
# run_real and run_ideal as they first stood in the library: each key adds its
# own Fraction to its outcome, substitution and impersonation are separate
# branches, and the real receiver is asked key by key, verdicts([key], wire)[0].
# It runs on the protocol interface alone (keys, encode, verdicts) and checks a
# message with the family's message_index, reads a recycling key's k1 as key[0]
# and the ideal world's k1 from the family's keys, and skips the budget check.


def finish_oracle(acc, nonrec_fields, proto) -> Dist:
    d = Dist(nonrec_fields + ("k1",), acc)
    if not proto.recycles:
        d = d.project(nonrec_fields)  # the declared marginalization step
    return d


def run_oracle(target, env: EnvStrategy, recycle: bool) -> tuple[Dist, Dist]:
    """(real, ideal) outcome distributions of `env` on a family or protocol."""
    proto = WcProtocol(target, recycle) if isinstance(target, HashFamily) else target
    keys = list(proto.keys())
    return real_oracle(proto, keys, env), ideal_oracle(proto, keys, env)


def real_oracle(proto, keys, env) -> Dist:
    unit = Fraction(1, len(keys))
    acc: dict[tuple, Fraction] = defaultdict(Fraction)
    if env.mode == "substitution":
        for (x,), px in env.msg_dist.items():
            proto.fam.message_index(x)
            w = px * unit
            for key in keys:
                y = proto.encode([key], x)[0]
                yp = env.deliver(y)
                out = proto.verdicts([key], yp)[0]
                acc[(x, y, yp, out, key[0] if proto.recycles else None)] += w
        return finish_oracle(acc, ("x", "y", "yp", "out"), proto)
    yp = env.inject
    for key in keys:
        out = proto.verdicts([key], yp)[0]
        acc[(yp, out, key[0] if proto.recycles else None)] += unit
    return finish_oracle(acc, ("yp", "out"), proto)


def ideal_oracle(proto, keys, env) -> Dist:
    unit = Fraction(1, len(keys))
    rvals = list(proto.fam.keys()) if proto.recycles else [None]
    runit = Fraction(1, len(rvals))
    acc: dict[tuple, Fraction] = defaultdict(Fraction)
    if env.mode == "substitution":
        for (x,), px in env.msg_dist.items():
            proto.fam.message_index(x)
            ymarg: dict[tuple, int] = defaultdict(int)
            for key in keys:
                ymarg[proto.encode([key], x)[0]] += 1
            for y, cnt in ymarg.items():
                yp = env.deliver(y)
                out = x if yp == y else None
                w = px * cnt * unit * runit
                for k1 in rvals:
                    acc[(x, y, yp, out, k1)] += w
        return finish_oracle(acc, ("x", "y", "yp", "out"), proto)
    yp = env.inject
    for k1 in rvals:
        acc[(yp, None, k1)] += runit
    return finish_oracle(acc, ("yp", "out"), proto)


# -- composition oracle -------------------------------------------------------
#
# The multi-round game with every pad drawn explicitly.  One k1 serves all
# n = r*l rounds and each round has a fresh pad; round i sends
# t = h_k1(x) ^ pad_i.  The list-elimination environment forges
# (x_sub, t ^ guess) with guess = 0, 1, ... while it has an untried guess and
# no forgery has been accepted, and delivers (x, t) otherwise; the identity
# environment always delivers.  The real receiver accepts (x', t') iff
# h_k1(x') ^ pad_i == t'; the ideal one accepts only unmodified delivery.
# Both worlds are counted over every (k1, pad vector) as (tags, outs, k1).


def composition_tv_oracle(fam, r: int, l: int, env: str) -> Fraction:
    x, x_sub = fam.messages[0], fam.messages[1]
    n = r * l
    tc = fam.tag_count
    worlds: dict[str, dict[tuple, int]] = {"real": {}, "ideal": {}}
    for world, counts in worlds.items():
        for k1 in fam.keys():
            for pads in itertools.product(range(tc), repeat=n):
                tags, outs = [], []
                guess = 0
                forged = False
                for pad in pads:
                    t = fam.tag(k1, x) ^ pad
                    tags.append(t)
                    if env == LIST_ELIMINATION and not forged and guess < tc:
                        wire = (x_sub, t ^ guess)
                        guess += 1
                    else:
                        wire = (x, t)
                    if world == "real":
                        ok = fam.tag(k1, wire[0]) ^ pad == wire[1]
                    else:
                        ok = wire == (x, t)
                    outs.append(wire[0] if ok else None)
                    forged = forged or (ok and wire != (x, t))
                cell = (tuple(tags), tuple(outs), k1)
                counts[cell] = counts.get(cell, 0) + 1
    real, ideal = worlds["real"], worlds["ideal"]
    diff = 0
    for cell in real.keys() | ideal.keys():
        diff += abs(real.get(cell, 0) - ideal.get(cell, 0))
    return Fraction(diff, 2 * fam.key_count * tc ** n)


# -- the key-elimination attack ------------------------------------------------


def difference_counts_oracle(fam) -> list[int]:
    """Per tag t, the keys with h_k(x) ^ h_k(x_sub) = t on the first two messages."""
    x, x_sub = fam.messages[0], fam.messages[1]
    diffs = Counter(fam.tag(k, x) ^ fam.tag(k, x_sub) for k in fam.keys())
    return [diffs[t] for t in fam.tags()]


def attack_report_oracle(fam, counts: list[int], rounds: int) -> AttackReport:
    """The attack report after `rounds` rounds, rebuilt from scratch from the counts.

    Every field is recomputed from counts[:rounds]: the conditionals one by one,
    and the entropy as log2|K| - H(class) over the guessed classes and the
    all-reject remainder.  fam needs key_count, tag_count and messages only.
    """
    nk, tc = fam.key_count, fam.tag_count
    conditionals = []
    remaining = nk
    for c in counts[:rounds]:
        conditionals.append(Fraction(c, remaining))
        remaining -= c
    classes = counts[:rounds] + [nk - sum(counts[:rounds])]
    computed = ExactEntropy.log2(nk) + entropy_of(
        [Fraction(c, nk) for c in classes]).scaled(-1)
    formula = ExactEntropy.log2(Fraction(nk, tc))
    if rounds < tc:
        formula = formula + ExactEntropy.log2(tc - rounds).scaled(1 - Fraction(rounds, tc))
    return AttackReport(
        rounds=rounds,
        x=fam.messages[0],
        x_sub=fam.messages[1],
        success_prob=Fraction(sum(counts[:rounds]), nk),
        success_formula=Fraction(rounds, tc),
        per_round_conditional=tuple(conditionals),
        entropy_bits=computed,
        entropy_formula_bits=formula,
    )


def montecarlo_hits_oracle(fam, rounds: int, trials: int, seed: int) -> int:
    """The Monte Carlo's hits, one getrandbits call per draw.

    Each trial draws k1 and then one pad per round as random.Random.randrange
    does (getrandbits(n.bit_length()) redrawn while >= n), plays every round
    on the masked tags and counts a hit if any forgery is accepted.
    """
    getrandbits = random.Random(seed).getrandbits
    x, x_sub = fam.messages[0], fam.messages[1]
    kc, tc = fam.key_count, fam.tag_count
    kbits, tbits = kc.bit_length(), tc.bit_length()
    hashes: dict[int, tuple[int, int]] = {}
    hits = 0
    for _ in range(trials):
        k1 = getrandbits(kbits)
        while k1 >= kc:
            k1 = getrandbits(kbits)
        if k1 not in hashes:
            hashes[k1] = fam.tag(k1, x), fam.tag(k1, x_sub)
        hx, hs = hashes[k1]
        hit = False
        for i in range(rounds):
            pad = getrandbits(tbits)
            while pad >= tc:
                pad = getrandbits(tbits)
            t = hx ^ pad
            if not hit and hs ^ pad == t ^ i:
                hit = True
        hits += hit
    return hits


# -- frozen value classes, held against frozen dataclasses ----------------------


def record_contract(cls, fields: dict, changed: tuple) -> None:
    """Check a value class against a frozen dataclass with the same fields.

    `fields` builds one instance by keyword, in field order; `changed` is a
    (field, other value) pair that builds a different one.  The dataclass is
    the oracle for repr and hash, and a class of its own for equality.
    """
    names = tuple(fields)
    value = cls(**fields)
    same = cls(*fields.values())
    twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True)(**fields)
    other = cls(**{**fields, changed[0]: changed[1]})
    assert value == same and not value != same
    assert value != other and other != value
    assert value != twin and twin != value
    assert value != tuple(fields.values()) and tuple(fields.values()) != value
    assert repr(value) == repr(twin)
    try:
        want = hash(twin)
    except TypeError:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(same) == want
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same and all(getattr(value, n) is fields[n] for n in names)
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=None)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(fields[names[0]], **fields)
    for name in [n for n in names if n not in getattr(cls, "_defaults", {})]:
        with pytest.raises(TypeError, match=name):
            cls(**{n: v for n, v in fields.items() if n != name})


# -- shared fixtures ------------------------------------------------------------


def domain_error(call):
    """The text of the DomainError `call` raises, or None if it returns."""
    try:
        call()
    except DomainError as exc:
        return str(exc)
    return None


def build_table16():
    """|K|=16, |X|=4, |T|=4 fixture: the pad-keyed form of k*x over GF(4).

    Rows are written out through the public API of the lifted family so the
    fixture is a plain explicit table, independent of the lift class once
    built.
    """
    lifted = lift_to_asu2(MulFamily(2))
    rows = [[lifted.tag(k, x) for x in lifted.messages] for k in lifted.keys()]
    return TableFamily(list(lifted.messages), rows, m=2, source="table16")


@pytest.fixture(scope="session")
def table16():
    return build_table16()
