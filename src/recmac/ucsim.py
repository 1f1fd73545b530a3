"""Real-versus-ideal execution of one authentication round.

The game: an environment picks a message distribution, sees the tagged
message the sender emits, and chooses what the receiver gets instead.  In
the real world the receiver checks the tag under the actual keys and, in
recycling mode, the hash key k1 is afterwards handed back to the
environment.  In the ideal world a simulator runs the same sender on its own
fresh keys, the receiver accepts only a byte-identical wire message, and the
recycled key it returns is uniform and independent of everything already
seen.  Security of a scheme is the total variation distance between the two
resulting outcome distributions, maximized over environments.

Outcome fields are (x, y, yp, out, k1) for substitution environments and
(yp, out, k1) for impersonation environments (which inject a wire message
before any round ran).  In no-recycling mode the outcomes are counted
without the k1 column, which would always be None.

The worst-case search exploits a structural fact instead of enumerating all
|X*T|^|T| substitution maps: both worlds give y the same marginal, and the
conditional outcome given y depends on the environment only through the
single wire message it substitutes for y.  The distance of a deterministic
environment is therefore sum_y P(y) * TV(real | y, ideal | y), and the
maximum over environments is attained by maximizing each y-slice
independently.  Ties break toward the earliest candidate in canonical order
(messages in family order, tags ascending), and identity is kept wherever no
substitution gains anything.

Within a y-group only the verdicts differ between the worlds.  Without
recycling there is no k1 column.  With recycling the pad is fixed once k1 and
y are known, so a y-group holds each k1 exactly once: given the tagged
message k1 is uniform, as in the ideal world (Wegman & Carter 1981; Portmann
2012, arXiv:1202.1229).  Either way TV(real | y, ideal | y) is the share of
the group's keys whose verdict is not the ideal receiver's, so a distance is
sum_y P(y) * (that count) / |group| and the worst case is sum_y max_yp (that
count) / |keys|.  uc_distance and the searches count those keys with integer
bitmasks and build a single Fraction at the end.  Only WcProtocol recycles:
the runs read k1 as key[0] and the ideal world draws it from the family's
keys, and every run and search refuses any other recycling protocol, whose
y-groups need not hold each k1 once.

One private search serves all three public ones.  The receiver's verdict
depends on the key and the delivered wire message only, so each wire value
gets one verdicts() call for all keys, turned into a mask of the accepting
keys that every observed y shares; a group that sent the wire unmodified
instead counts the keys whose verdict is not its own message.  Impersonation
is one more group in the same loop: all keys, never reached unmodified.  Each
witness is re-run through run_real, run_ideal and statistical_distance, and
VerificationFailed is raised unless the numbers agree, so a reported maximum
never rests on the decomposition or the count alone.  run_real, run_ideal
and uc_distance each build the protocol, the keys and the (x, y-group)
deliveries once; run_real counts the real outcomes and run_ideal the ideal
ones in integers over the one denominator its Dist keeps, and run_ideal asks
no verdict.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .dist import Dist, outcome_sort_key, statistical_distance
from .errors import DomainError, Record, VerificationFailed, DEFAULT_BUDGET, check_budget
from .families import CounterexampleFamily, HashFamily

SUBSTITUTION = "substitution"
IMPERSONATION = "impersonation"

FIELDS_SUB = ("x", "y", "yp", "out", "k1")
FIELDS_IMP = ("yp", "out", "k1")


def _is_wire(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and type(v[1]) is int  # bool is no tag


def _split_wire(fam: HashFamily, wire) -> tuple:
    """(message, its index in `fam`, tag) of a wire message; DomainError if it is none."""
    try:
        xp, tp = wire
    except (TypeError, ValueError):
        raise DomainError(f"wire message must be (message, tag), got {wire!r}") from None
    return xp, fam.message_index(xp), fam.check_tag(tp)


class AuthProtocol:
    """One-round protocol on a hash family; a protocol defines keys, encode and verdicts.

    The messages, the tag table and the wire values (messages x tags, in order)
    are read from the family here alone; encode and verdicts answer for all
    keys after one check of their input.  Only WcProtocol may set `recycles`.
    """

    recycles: bool = False

    def __init__(self, fam: HashFamily, budget: int = DEFAULT_BUDGET):
        self.fam = fam
        self.messages = fam.messages
        self._tab = fam.tag_table(budget)

    def keys(self) -> Sequence:
        raise NotImplementedError

    def encode(self, keys: Sequence, x) -> list[tuple]:
        """The wire message each of `keys` sends for message x, in order."""
        raise NotImplementedError

    def verdicts(self, keys: Sequence, wire: tuple) -> list:
        """The message each of `keys` accepts for the wire input, or None, in order."""
        raise NotImplementedError

    def wire_values(self) -> list[tuple]:
        return [(x, t) for x in self.messages for t in self.fam.tags()]


class WcProtocol(AuthProtocol):
    """(x, h_{k1}(x) ^ k2) under key (k1, k2).

    With recycling k2 is a one-time pad over the tags and k1 is handed back;
    without it every key is (k1, 0), so the tag is h_{k1}(x) unmasked.
    """

    def __init__(self, fam: HashFamily, recycle: bool, budget: int = DEFAULT_BUDGET):
        super().__init__(fam, budget)
        self.recycles = recycle

    def keys(self):
        pads = self.fam.tags() if self.recycles else (0,)
        return [(k1, k2) for k1 in self.fam.keys() for k2 in pads]

    def encode(self, keys, x):
        i = self.fam.message_index(x)
        tab = self._tab
        return [(x, tab[k1][i] ^ k2) for k1, k2 in keys]

    def verdicts(self, keys, wire):
        """One validation of `wire`, then its tag column read from the table."""
        xp, i, tp = _split_wire(self.fam, wire)
        tab = self._tab
        return [xp if tab[k1][i] ^ k2 == tp else None for k1, k2 in keys]


class CounterexampleProtocol(AuthProtocol):
    """Encode a bit x as (x ^ a, h_b(x ^ a)) with key (a, b).

    Built on the family whose hash of 0 is the zero tag under every key.
    Because (0, 0) verifies under all keys, injecting it is accepted with
    certainty, while substitution after seeing a round is much weaker: this
    protocol separates the two attack notions.  No key is recycled.
    """

    def __init__(self, m: int):
        super().__init__(CounterexampleFamily(m))

    def keys(self):
        return [(a, b) for a in range(2) for b in self.fam.keys()]

    def encode(self, keys, x):
        i = self.fam.message_index(x)
        return [(i ^ a, self._tab[b][i ^ a]) for a, b in keys]

    def verdicts(self, keys, wire):
        _, w, tp = _split_wire(self.fam, wire)
        tab = self._tab
        return [(w ^ a) if tab[b][w] == tp else None for a, b in keys]


class EnvStrategy(Record):
    """A deterministic environment.

    Substitution mode: `msg_dist` is a Dist over ("x",) and `subst` maps the
    observed wire message (x, t) to the wire message delivered instead.  Wire
    messages absent from the map are delivered unchanged, so the empty map is
    the honest environment and every map is total.  Impersonation mode:
    `inject` is delivered before any round runs.
    """

    __slots__ = ("mode", "msg_dist", "subst", "inject")
    _defaults = {"msg_dist": None, "subst": dict, "inject": None}
    mode: str
    msg_dist: Optional[Dist]
    subst: Mapping[tuple, tuple]
    inject: Optional[tuple]

    def _check(self):
        if self.mode == SUBSTITUTION:
            if self.msg_dist is None or self.msg_dist.fields != ("x",):
                raise DomainError("substitution strategy needs a msg_dist over ('x',)")
            for key, val in self.subst.items():
                if not (_is_wire(key) and _is_wire(val)):
                    raise DomainError(
                        "substitution map entries are wire -> wire pairs "
                        f"((message, tag) tuples), got {key!r} -> {val!r}")
        elif self.mode == IMPERSONATION:
            if self.inject is None:
                raise DomainError("impersonation strategy needs an injected wire message")
        else:
            raise DomainError(f"unknown strategy mode {self.mode!r}")

    @classmethod
    def substitute(cls, x_or_dist, subst: Mapping[tuple, tuple] | None = None) -> "EnvStrategy":
        if isinstance(x_or_dist, Dist):
            md = x_or_dist
        elif isinstance(x_or_dist, dict):
            md = Dist(("x",), {(x,): Fraction(w) for x, w in x_or_dist.items()})
        else:
            try:
                md = Dist.point(("x",), (x_or_dist,))
            except TypeError:   # unhashable, so no message of any family
                raise DomainError(f"message {x_or_dist!r} is unhashable") from None
        return cls(SUBSTITUTION, msg_dist=md, subst=dict(subst or {}))

    @classmethod
    def impersonate(cls, wire: tuple) -> "EnvStrategy":
        return cls(IMPERSONATION, inject=tuple(wire))

    def deliver(self, y: tuple) -> tuple:
        return self.subst.get(y, y)


def _admitted(fam_or_proto, recycle: bool, budget: int, what: str,
              cells) -> tuple[AuthProtocol, list]:
    """The protocol on fam_or_proto and its keys, built once cells(target, |keys|) fits.

    A family's keys are counted from its sizes, so a refused family builds no
    tag table and no keys; a protocol's keys are built once, then counted.  A
    protocol carries its own mode, so `recycle` is a DomainError on one, as
    are a target that is neither and a recycling protocol other than
    WcProtocol, whose y-groups need not hold each k1 once.
    """
    if isinstance(fam_or_proto, HashFamily):
        nkeys = fam_or_proto.key_count * (fam_or_proto.tag_count if recycle else 1)
        check_budget(cells(fam_or_proto, nkeys), budget, what)
        proto = WcProtocol(fam_or_proto, recycle, budget)
        return proto, proto.keys()
    if not isinstance(fam_or_proto, AuthProtocol):
        raise DomainError(f"not a family or protocol: {fam_or_proto!r}")
    if recycle:
        raise DomainError("recycle applies to a family; a protocol carries its own mode")
    if fam_or_proto.recycles and not isinstance(fam_or_proto, WcProtocol):
        raise DomainError("recycling needs each k1 once per y-group, "
                          "which only WcProtocol guarantees")
    keys = list(fam_or_proto.keys())
    check_budget(cells(fam_or_proto, len(keys)), budget, what)
    return fam_or_proto, keys


def _y_groups(proto: AuthProtocol, keys: list, x) -> list[tuple[tuple, list]]:
    """(y, the indices of the keys that send y on x) per wire message y, y ascending."""
    by_y: dict[tuple, list] = defaultdict(list)
    for i, y in enumerate(proto.encode(keys, x)):
        by_y[y].append(i)
    return sorted(by_y.items(), key=lambda item: outcome_sort_key(item[0]))


def _deliveries(fam_or_proto, env: EnvStrategy, recycle: bool,
                budget: int) -> tuple[AuthProtocol, list, tuple, int, list]:
    """The admitted protocol and keys, the outcome fields, a denominator and `env`'s deliveries.

    A delivery is (outcome head, weight over the denominator, key indices,
    wire delivered, ideal verdict), one per (x, y-group).  An injection is
    one delivery to all keys, never unmodified, so the ideal receiver rejects
    it.  Without recycling k1 is always None, so the fields leave it out.
    """
    # on a family the work includes the K x |X| tag table, cached or not, so
    # whether a run is refused never depends on an earlier call
    support = 1 if env.mode == IMPERSONATION else len(env.msg_dist)
    proto, keys = _admitted(fam_or_proto, recycle, budget, "run", lambda t, nkeys: (
        support * nkeys + (t.key_count * len(t.messages) if isinstance(t, HashFamily) else 0)))
    fields = FIELDS_IMP if env.mode == IMPERSONATION else FIELDS_SUB
    if not proto.recycles:
        fields = fields[:-1]
    if env.mode == IMPERSONATION:
        return proto, keys, fields, 1, [
            ((env.inject,), 1, range(len(keys)), env.inject, None)]
    deliveries = []
    for (x,), w in env.msg_dist.counts.items():
        for y, idx in _y_groups(proto, keys, x):
            yp = env.deliver(y)
            deliveries.append(((x, y, yp), w, idx, yp, x if yp == y else None))
    return proto, keys, fields, env.msg_dist.denom, deliveries


def run_real(fam_or_proto, env: EnvStrategy, recycle: bool = False,
             budget: int = DEFAULT_BUDGET) -> Dist:
    """Exact outcome distribution of the real execution under `env`."""
    proto, keys, fields, denom, deliveries = _deliveries(fam_or_proto, env, recycle, budget)
    real: dict[tuple, int] = defaultdict(int)
    for head, w, idx, yp, _ in deliveries:
        for i, out in zip(idx, proto.verdicts([keys[i] for i in idx], yp)):
            real[head + (out,) + (keys[i][:1] if proto.recycles else ())] += w
    return Dist(fields, real, denom * len(keys))


def run_ideal(fam_or_proto, env: EnvStrategy, recycle: bool = False,
              budget: int = DEFAULT_BUDGET) -> Dist:
    """Exact outcome distribution of the simulated (ideal) execution.

    The simulator encodes the message under its own fresh keys, so the wire
    message shown to the environment has the real marginal; the receiver
    accepts only if the delivery is unmodified, and the recycled k1 is drawn
    uniformly from the family's keys, independent of the transcript.
    """
    proto, keys, fields, denom, deliveries = _deliveries(fam_or_proto, env, recycle, budget)
    k1s = [(k1,) for k1 in proto.fam.keys()] if proto.recycles else [()]
    ideal: dict[tuple, int] = defaultdict(int)
    for head, w, idx, _, out0 in deliveries:
        for k1 in k1s:
            ideal[head + (out0,) + k1] += w * len(idx)
    return Dist(fields, ideal, denom * len(keys) * len(k1s))


def _disagreeing(verdicts: list, out0) -> int:
    """The bitmask of the keys whose verdict is not out0, key i at bit i."""
    return int("".join(["0" if v == out0 else "1" for v in verdicts])[::-1], 2)


def uc_distance(fam_or_proto, env: EnvStrategy, recycle: bool = False,
                budget: int = DEFAULT_BUDGET) -> Fraction:
    """TV(real, ideal), counted as the keys whose verdict is not the ideal one."""
    proto, keys, _, denom, deliveries = _deliveries(fam_or_proto, env, recycle, budget)
    count = sum(w * _disagreeing(proto.verdicts([keys[i] for i in idx], yp), out0).bit_count()
                for _, w, idx, yp, out0 in deliveries)
    return Fraction(count, denom * len(keys))


def impersonation_distance(fam_or_proto, wire: tuple, recycle: bool = False,
                           budget: int = DEFAULT_BUDGET) -> Fraction:
    """Distance of the environment that injects `wire` before any round."""
    return uc_distance(fam_or_proto, EnvStrategy.impersonate(wire), recycle, budget)


def _search_cells(target, nkeys: int) -> int:
    """|X| * |keys| * (1 + |wire|); a family's wire messages are counted, not built."""
    nx = len(target.messages)
    return nx * nkeys * (1 + (nx * target.tag_count if isinstance(target, HashFamily)
                              else len(target.wire_values())))


def _verified(proto: AuthProtocol, d: Fraction, env: EnvStrategy,
              budget: int) -> tuple[Fraction, EnvStrategy]:
    """Re-run a search's witness through run_real/run_ideal; raise on disagreement."""
    check = statistical_distance(run_real(proto, env, budget=budget),
                                 run_ideal(proto, env, budget=budget))
    if check != d:
        raise VerificationFailed(
            f"worst-case search found {d} but its witness runs at {check}")
    return d, env


def _search(fam_or_proto, recycle: bool, budget: int, substitution: bool = True,
            impersonation: bool = True) -> list[tuple[Fraction, EnvStrategy]]:
    """The verified worst cases asked for, substitution first, from one pass.

    One verdicts() call per wire value scores every y-group of every message
    and, for impersonation, one more group of all keys that no wire reaches
    unmodified.  A group scores the keys whose verdict is not the ideal one.
    """
    proto, keys = _admitted(fam_or_proto, recycle, budget, "worst-case search", _search_cells)
    groups = []  # (x, y, the mask of the keys sending y on x), y ascending per x
    spans = []   # (x, its first group, the group after its last)
    for x in proto.messages if substitution else ():
        lo = len(groups)
        groups.extend((x, y, sum(1 << i for i in idx)) for y, idx in _y_groups(proto, keys, x))
        spans.append((x, lo, len(groups)))
    best = [0] * len(groups)  # identity is kept wherever no substitution gains
    if impersonation:  # y = None is never delivered unmodified
        groups.append((None, None, (1 << len(keys)) - 1))
        best.append(-1)
    best_yp: list = [None] * len(groups)
    for yp in proto.wire_values():
        verdicts = proto.verdicts(keys, yp)
        accepted = _disagreeing(verdicts, None)
        for g, (x, y, group) in enumerate(groups):
            # the ideal receiver outputs x on unmodified delivery, else None
            count = ((_disagreeing(verdicts, x) if yp == y else accepted) & group).bit_count()
            if count > best[g]:
                best[g], best_yp[g] = count, yp
    best_total = best_env = None
    for x, lo, hi in spans:
        total = sum(best[lo:hi])
        if best_total is None or total > best_total:
            best_total = total
            best_env = EnvStrategy.substitute(x, {
                groups[g][1]: best_yp[g] for g in range(lo, hi) if best_yp[g] is not None})
    found = [(best_total, best_env)] if substitution else []
    if impersonation:
        found.append((best[-1], EnvStrategy.impersonate(best_yp[-1])))
    return [_verified(proto, Fraction(count, len(keys)), env, budget) for count, env in found]


def worst_case_substitution(fam_or_proto, recycle: bool = False,
                            budget: int = DEFAULT_BUDGET) -> tuple[Fraction, EnvStrategy]:
    """Maximal distance over point-mass messages and deterministic maps.

    Point masses lose nothing: the distance is affine in the message
    distribution, so its maximum sits at a vertex.  Per-y maximization loses
    nothing either (module docstring); the returned distance is recomputed
    from the witness via the ordinary run pipeline.
    """
    return _search(fam_or_proto, recycle, budget, impersonation=False)[0]


def worst_case_impersonation(fam_or_proto, recycle: bool = False,
                             budget: int = DEFAULT_BUDGET) -> tuple[Fraction, EnvStrategy]:
    """Maximal distance over all injectable wire messages.

    The ideal receiver rejects every injection, so the search counts the
    accepting keys of one group of all keys.
    """
    return _search(fam_or_proto, recycle, budget, substitution=False)[0]


def worst_case_distance(fam_or_proto, recycle: bool = False,
                        budget: int = DEFAULT_BUDGET) -> tuple[Fraction, EnvStrategy]:
    """Maximum over substitution and impersonation environments.

    Both come from one pass over the wire values.  Substitution wins ties so
    the richer witness is reported.
    """
    (d_sub, env_sub), (d_imp, env_imp) = _search(fam_or_proto, recycle, budget)
    if d_imp > d_sub:
        return d_imp, env_imp
    return d_sub, env_sub
