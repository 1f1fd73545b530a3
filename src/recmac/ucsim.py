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
before any round ran).  In no-recycling mode the k1 column is dropped from
the returned distribution by an explicit projection.

The worst-case search exploits a structural fact instead of enumerating all
|X*T|^|T| substitution maps: both worlds give y the same marginal, and the
conditional outcome given y depends on the environment only through the
single wire message it substitutes for y.  The distance of a deterministic
environment is therefore sum_y P(y) * TV(real | y, ideal | y), and the
maximum over environments is attained by maximizing each y-slice
independently.  Ties break toward the earliest candidate in canonical order
(messages in family order, tags ascending), and identity is kept wherever no
substitution gains anything.

Both searches count keys in integers through one kernel (_tv_numerator) and
build a single Fraction at the end.  The receiver's verdict depends on the key
and the delivered wire message only, so it is computed once per candidate and
shared by every observed y.  Each witness is re-run through run_real/run_ideal
and VerificationFailed is raised unless the numbers agree, so a reported
maximum never rests on the decomposition or the kernel alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .dist import Dist, outcome_sort_key, statistical_distance
from .errors import DomainError, VerificationFailed, DEFAULT_BUDGET, check_budget
from .families import CounterexampleFamily, HashFamily

SUBSTITUTION = "substitution"
IMPERSONATION = "impersonation"

FIELDS_SUB = ("x", "y", "yp", "out", "k1")
FIELDS_IMP = ("yp", "out", "k1")


def _is_wire(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int)


class AuthProtocol:
    """One-round protocol interface the executions run against."""

    messages: Sequence
    recycles: bool = False

    def keys(self) -> Sequence:
        raise NotImplementedError

    def encode(self, key, x) -> tuple:
        raise NotImplementedError

    def receive(self, key, wire: tuple):
        """Message accepted under `key` for the wire input, or None."""
        raise NotImplementedError

    def recycled(self, key) -> Optional[int]:
        return None

    def recycled_values(self) -> Sequence[int]:
        return ()

    def wire_values(self) -> list[tuple]:
        raise NotImplementedError

    def check_message(self, x) -> None:
        raise NotImplementedError


class WcProtocol(AuthProtocol):
    """(x, h_{k1}(x) ^ k2) with k1 recycled, or (x, h_k(x)) without a pad."""

    def __init__(self, fam: HashFamily, recycle: bool, budget: int = DEFAULT_BUDGET):
        self.fam = fam
        self.recycles = recycle
        self.messages = fam.messages
        self._tab = fam.tag_table(budget)

    def keys(self):
        if self.recycles:
            return [
                (k1, k2) for k1 in range(self.fam.key_count)
                for k2 in range(self.fam.tag_count)
            ]
        return list(range(self.fam.key_count))

    def _tag(self, key, i: int) -> int:
        """The wire tag of message number i under `key`."""
        if self.recycles:
            k1, k2 = key
            return self._tab[k1][i] ^ k2
        return self._tab[key][i]

    def encode(self, key, x):
        return (x, self._tag(key, self.fam.message_index(x)))

    def receive(self, key, wire):
        xp, i, tp = self._split_wire(wire)
        return xp if self._tag(key, i) == tp else None

    def _split_wire(self, wire):
        try:
            xp, tp = wire
        except (TypeError, ValueError):
            raise DomainError(f"wire message must be (message, tag), got {wire!r}") from None
        i = self.fam.message_index(xp)
        if not isinstance(tp, int) or not 0 <= tp < self.fam.tag_count:
            raise DomainError(f"tag {tp!r} out of range for {self.fam.descriptor()}")
        return xp, i, tp

    def recycled(self, key):
        return key[0] if self.recycles else None

    def recycled_values(self):
        return range(self.fam.key_count) if self.recycles else ()

    def wire_values(self):
        return [(x, t) for x in self.messages for t in self.fam.tags()]

    def check_message(self, x):
        self.fam.message_index(x)


class CounterexampleProtocol(AuthProtocol):
    """Encode a bit x as (x ^ a, h_b(x ^ a)) with key (a, b).

    Built on the family whose hash of 0 is the zero tag under every key.
    Because (0, 0) verifies under all keys, injecting it is accepted with
    certainty, while substitution after seeing a round is much weaker: this
    protocol separates the two attack notions.  No key is recycled.
    """

    def __init__(self, m: int):
        self.fam = CounterexampleFamily(m)
        self.messages = range(2)
        self._tab = self.fam.tag_table()
        self.recycles = False

    def keys(self):
        return [(a, b) for a in range(2) for b in range(self.fam.key_count)]

    def encode(self, key, x):
        a, b = key
        w = x ^ a
        return (w, self._tab[b][w])

    def receive(self, key, wire):
        a, b = key
        try:
            wp, tp = wire
        except (TypeError, ValueError):
            raise DomainError(f"wire message must be (bit, tag), got {wire!r}") from None
        if wp not in (0, 1):
            raise DomainError(f"carrier bit must be 0 or 1, got {wp!r}")
        if not isinstance(tp, int) or not 0 <= tp < self.fam.tag_count:
            raise DomainError(f"tag {tp!r} out of range")
        return (wp ^ a) if self._tab[b][wp] == tp else None

    def wire_values(self):
        return [(w, t) for w in range(2) for t in self.fam.tags()]

    def check_message(self, x):
        if x not in (0, 1):
            raise DomainError(f"message must be 0 or 1, got {x!r}")


def as_protocol(fam_or_proto, recycle: bool = False,
                budget: int = DEFAULT_BUDGET) -> AuthProtocol:
    if isinstance(fam_or_proto, AuthProtocol):
        return fam_or_proto
    if isinstance(fam_or_proto, HashFamily):
        return WcProtocol(fam_or_proto, recycle, budget)
    raise DomainError(f"not a family or protocol: {fam_or_proto!r}")


@dataclass(frozen=True)
class EnvStrategy:
    """A deterministic environment.

    Substitution mode: `msg_dist` is a Dist over ("x",) and `subst` maps the
    observed wire message (x, t) to the wire message delivered instead.  Wire
    messages absent from the map are delivered unchanged, so the empty map is
    the honest environment and every map is total.  Impersonation mode:
    `inject` is delivered before any round runs.
    """

    mode: str
    msg_dist: Optional[Dist] = None
    subst: Mapping[tuple, tuple] = field(default_factory=dict)
    inject: Optional[tuple] = None

    def __post_init__(self):
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
            md = Dist.point(("x",), (x_or_dist,))
        return cls(SUBSTITUTION, msg_dist=md, subst=dict(subst or {}))

    @classmethod
    def impersonate(cls, wire: tuple) -> "EnvStrategy":
        return cls(IMPERSONATION, inject=tuple(wire))

    def deliver(self, y: tuple) -> tuple:
        return self.subst.get(y, y)


def _finish(acc, nonrec_fields, proto: AuthProtocol) -> Dist:
    d = Dist(nonrec_fields + ("k1",), acc)
    if not proto.recycles:
        d = d.project(nonrec_fields)  # the declared marginalization step
    return d


def _key_count(fam_or_proto, recycle: bool) -> int:
    """Keys of the protocol on fam_or_proto; a family's are counted, not built."""
    if isinstance(fam_or_proto, HashFamily):
        return fam_or_proto.key_count * (fam_or_proto.tag_count if recycle else 1)
    return len(as_protocol(fam_or_proto).keys())


def _run_protocol(fam_or_proto, env: EnvStrategy, recycle: bool,
                  budget: int) -> tuple[AuthProtocol, list]:
    """The protocol a run executes on and its keys, built once the run is admitted."""
    support = 1 if env.mode == IMPERSONATION else len(env.msg_dist.weights)
    check_budget(support * _key_count(fam_or_proto, recycle), budget, "run")
    proto = as_protocol(fam_or_proto, recycle)
    return proto, list(proto.keys())


def run_real(fam_or_proto, env: EnvStrategy, recycle: bool = False,
             budget: int = DEFAULT_BUDGET) -> Dist:
    """Exact outcome distribution of the real execution under `env`."""
    proto, keys = _run_protocol(fam_or_proto, env, recycle, budget)
    unit = Fraction(1, len(keys))
    acc: dict[tuple, Fraction] = defaultdict(Fraction)
    if env.mode == SUBSTITUTION:
        for (x,), px in env.msg_dist.items():
            proto.check_message(x)
            w = px * unit
            for key in keys:
                y = proto.encode(key, x)
                yp = env.deliver(y)
                out = proto.receive(key, yp)
                acc[(x, y, yp, out, proto.recycled(key))] += w
        return _finish(acc, ("x", "y", "yp", "out"), proto)
    yp = env.inject
    for key in keys:
        out = proto.receive(key, yp)
        acc[(yp, out, proto.recycled(key))] += unit
    return _finish(acc, ("yp", "out"), proto)


def run_ideal(fam_or_proto, env: EnvStrategy, recycle: bool = False,
              budget: int = DEFAULT_BUDGET) -> Dist:
    """Exact outcome distribution of the simulated (ideal) execution.

    The simulator encodes the message under its own fresh keys, so the wire
    message shown to the environment has the real marginal; the receiver
    accepts only if the delivery is unmodified, and the recycled key is drawn
    uniformly, independent of the transcript.
    """
    proto, keys = _run_protocol(fam_or_proto, env, recycle, budget)
    unit = Fraction(1, len(keys))
    rvals = list(proto.recycled_values()) if proto.recycles else [None]
    runit = Fraction(1, len(rvals))
    acc: dict[tuple, Fraction] = defaultdict(Fraction)
    if env.mode == SUBSTITUTION:
        for (x,), px in env.msg_dist.items():
            proto.check_message(x)
            ymarg: dict[tuple, int] = defaultdict(int)
            for key in keys:
                ymarg[proto.encode(key, x)] += 1
            for y, cnt in ymarg.items():
                yp = env.deliver(y)
                out = x if yp == y else None
                w = px * cnt * unit * runit
                for k1 in rvals:
                    acc[(x, y, yp, out, k1)] += w
        return _finish(acc, ("x", "y", "yp", "out"), proto)
    yp = env.inject
    for k1 in rvals:
        acc[(yp, None, k1)] += runit
    return _finish(acc, ("yp", "out"), proto)


def uc_distance(fam_or_proto, env: EnvStrategy, recycle: bool = False,
                budget: int = DEFAULT_BUDGET) -> Fraction:
    return statistical_distance(run_real(fam_or_proto, env, recycle, budget),
                                run_ideal(fam_or_proto, env, recycle, budget))


def impersonation_distance(fam_or_proto, wire: tuple, recycle: bool = False,
                           budget: int = DEFAULT_BUDGET) -> Fraction:
    """Distance of the environment that injects `wire` before any round."""
    return uc_distance(fam_or_proto, EnvStrategy.impersonate(wire), recycle, budget)


def _search_budget(fam_or_proto, recycle: bool,
                  budget: int) -> tuple[AuthProtocol, list, list]:
    """The protocol a worst-case search runs on, its keys and wire values.

    For a family the work is counted from its sizes before the tag table and
    the key list are built, so a refused search builds neither.
    """
    nkeys = _key_count(fam_or_proto, recycle)
    nx = len(fam_or_proto.messages)
    if isinstance(fam_or_proto, HashFamily):
        nwire = nx * fam_or_proto.tag_count
    else:
        nwire = len(fam_or_proto.wire_values())
    check_budget(nx * nkeys * (1 + nwire), budget, "worst-case search")
    proto = as_protocol(fam_or_proto, recycle, budget)
    return proto, list(proto.keys()), proto.wire_values()


def _tv_numerator(cells: Mapping[tuple, int], out0, n: int, nr: int) -> int:
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


def _recycling(proto: AuthProtocol, keys: list) -> tuple[list, int]:
    """Each key's recycled value, and how many recycled values there are."""
    nr = len(proto.recycled_values()) if proto.recycles else 1
    return [proto.recycled(key) for key in keys], nr


def _verified(proto: AuthProtocol, d: Fraction, env: EnvStrategy,
              budget: int) -> tuple[Fraction, EnvStrategy]:
    """Re-run a search's witness through run_real/run_ideal; raise on disagreement."""
    check = uc_distance(proto, env, budget=budget)
    if check != d:
        raise VerificationFailed(
            f"worst-case search found {d} but its witness runs at {check}")
    return d, env


def worst_case_substitution(fam_or_proto, recycle: bool = False,
                            budget: int = DEFAULT_BUDGET) -> tuple[Fraction, EnvStrategy]:
    """Maximal distance over point-mass messages and deterministic maps.

    Point masses lose nothing: the distance is affine in the message
    distribution, so its maximum sits at a vertex.  Per-y maximization loses
    nothing either (module docstring); the returned distance is recomputed
    from the witness via the ordinary run pipeline.
    """
    proto, keys, wire = _search_budget(fam_or_proto, recycle, budget)
    rec, nr = _recycling(proto, keys)
    groups = []  # (x, y, indices of the keys sending y on x), y ascending per x
    spans = []   # (x, its first group, the group after its last)
    for x in proto.messages:
        by_y: dict[tuple, list] = defaultdict(list)
        for i, key in enumerate(keys):
            by_y[proto.encode(key, x)].append(i)
        lo = len(groups)
        groups.extend((x, y, by_y[y]) for y in sorted(by_y, key=outcome_sort_key))
        spans.append((x, lo, len(groups)))
    best = [0] * len(groups)
    best_yp: list = [None] * len(groups)
    for yp in wire:
        cells = list(zip([proto.receive(key, yp) for key in keys], rec))
        for g, (x, y, idx) in enumerate(groups):
            num = _tv_numerator(Counter(map(cells.__getitem__, idx)),
                                x if yp == y else None, len(idx), nr)
            if num > best[g]:
                best[g], best_yp[g] = num, yp
    # group numerators share the denominator 2*|keys|*nr: P(y) = |idx|/|keys|
    best_total = best_env = None
    for x, lo, hi in spans:
        total = sum(best[lo:hi])
        if best_total is None or total > best_total:
            best_total = total
            best_env = EnvStrategy.substitute(x, {
                groups[g][1]: best_yp[g] for g in range(lo, hi) if best_yp[g] is not None})
    return _verified(proto, Fraction(best_total, 2 * len(keys) * nr), best_env, budget)


def worst_case_impersonation(fam_or_proto, recycle: bool = False,
                             budget: int = DEFAULT_BUDGET) -> tuple[Fraction, EnvStrategy]:
    """Maximal distance over all injectable wire messages.

    The ideal receiver rejects every injection, so the kernel compares the
    real (out, k1) counts over all keys with out0 = None.
    """
    proto, keys, wire = _search_budget(fam_or_proto, recycle, budget)
    rec, nr = _recycling(proto, keys)
    best, best_yp = -1, None
    for yp in wire:
        cells = Counter(zip([proto.receive(key, yp) for key in keys], rec))
        num = _tv_numerator(cells, None, len(keys), nr)
        if num > best:
            best, best_yp = num, yp
    return _verified(proto, Fraction(best, 2 * len(keys) * nr),
                     EnvStrategy.impersonate(best_yp), budget)


def worst_case_distance(fam_or_proto, recycle: bool = False,
                        budget: int = DEFAULT_BUDGET) -> tuple[Fraction, EnvStrategy]:
    """Maximum over substitution and impersonation environments.

    Substitution wins ties so the richer witness is reported.
    """
    d_sub, env_sub = worst_case_substitution(fam_or_proto, recycle, budget)
    d_imp, env_imp = worst_case_impersonation(fam_or_proto, recycle, budget)
    if d_imp > d_sub:
        return d_imp, env_imp
    return d_sub, env_sub
