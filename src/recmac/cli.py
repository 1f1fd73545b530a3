"""Command-line front end.

Subcommands: epsilon, uc-distance, impersonate, attack, compose, roundtrip,
fieldtab.  Output goes to stdout or --out, as JSON (sorted keys) or CSV, and
is byte-identical across runs for identical arguments: all randomness flows
from --seed (epsilon and attack) and nothing timestamps or orders
nondeterministically.  Every subcommand but roundtrip and fieldtab takes --budget.

Each handler cmd_x(args, fam) only computes and returns (doc, header, rows):
the JSON document, and the CSV header and rows.  main alone parses --family,
applies --lift (the standard mode on the pad-keyed lift, so never together
with --recycle) and renders the result as JSON or CSV; a list, tuple or None
CSV cell is written as its JSON text.

Exit codes: 0 success, 1 budget refusal (exact enumeration, Monte Carlo or
sampling), 2 usage errors (including malformed descriptors and table files,
out-of-range parameters, unknown flags, flags that do not combine and an
--out file that cannot be written), on one stderr line, its line breaks escaped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

# Only what `epsilon` and `fieldtab` use is imported here; every other handler
# imports its own modules, so a job loads only what its subcommand runs.
from .errors import BudgetExceeded, DomainError, DEFAULT_BUDGET
from .families import lift_to_asu2, parse_family
from .measure import measure_asu2, measure_axu2, sample_axu2


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def strategy_json(env: ucsim.EnvStrategy) -> dict:
    from . import ucsim
    from .dist import outcome_sort_key

    if env.mode == ucsim.IMPERSONATION:
        return {"mode": "impersonation", "inject": env.inject}
    (x,) = next(iter(env.msg_dist.weights))
    return {
        "mode": "substitution",
        "message": x,
        "map": sorted(env.subst.items(), key=lambda kv: outcome_sort_key(kv[0])),
    }


def _dump_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline, for str keys only.

    The indenting encoder is pure Python, so every list of scalars goes
    through the C encoder instead, its line break and indent carried in the
    item separator.
    """
    def dump(v, pad: str) -> str:
        inner = pad + "  "
        if isinstance(v, dict) and v:
            items = [f"{json.dumps(k)}: {dump(v[k], inner)}" for k in sorted(v)]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        if isinstance(v, (list, tuple)) and v:
            if any(isinstance(i, (dict, list, tuple)) for i in v):
                body = (",\n" + inner).join(dump(i, inner) for i in v)
            else:
                body = json.dumps(v, separators=(",\n" + inner, ": "))[1:-1]
            return "[\n" + inner + body + "\n" + pad + "]"
        return json.dumps(v)
    return dump(obj, "") + "\n"


def _dump_csv(header: list[str], rows) -> str:
    """CSV text; a list, tuple or None cell is written as its JSON text."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([json.dumps(c) if c is None or isinstance(c, (list, tuple)) else c for c in row]
                for row in rows)
    return buf.getvalue()


def _render(fmt: str, doc: dict, header: list[str], rows) -> str:
    return _dump_json(doc) if fmt == "json" else _dump_csv(header, rows)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _one_row(doc: dict, header: list[str]):
    """(doc, header, rows) for a CSV of one row read from the document."""
    return doc, header, [[doc[h] for h in header]]


# -- subcommand handlers -----------------------------------------------------


def cmd_epsilon(args, fam):
    if args.sample:
        if args.kind != "axu2":
            raise DomainError("sampling is implemented for --kind axu2 only")
        s = sample_axu2(fam, pairs=args.pairs, seed=args.seed, budget=args.budget)
        return _one_row({
            "family": fam.descriptor(),
            "kind": s.kind,
            "mode": "sample",
            "epsilon_lower_bound": frac_str(s.epsilon_estimate),
            "interval": list(s.interval),
            "pairs_sampled": s.pairs_sampled,
            "pair_coverage": frac_str(s.pair_coverage),
            "seed": s.seed,
            "witness": s.witness,
        }, ["family", "kind", "mode", "epsilon_lower_bound", "pairs_sampled"])
    meas = (measure_axu2 if args.kind == "axu2" else measure_asu2)(fam, budget=args.budget)
    return _one_row({
        "family": fam.descriptor(),
        "kind": meas.kind,
        "mode": "exact",
        "epsilon": frac_str(meas.epsilon),
        "witness": meas.witness,
    }, ["family", "kind", "mode", "epsilon", "witness"])


def cmd_uc_distance(args, fam):
    from . import ucsim

    measure = measure_axu2 if args.recycle else measure_asu2
    if args.identity:
        # one run may count fewer cells than the measure, so the measure's check goes first
        eps = measure(fam, budget=args.budget).epsilon
        env = ucsim.EnvStrategy.substitute(fam.messages[0], {})
        d = ucsim.uc_distance(fam, env, recycle=args.recycle, budget=args.budget)
    else:
        # the search counts more cells than either measure, so a refused one measures nothing
        d, env = ucsim.worst_case_distance(fam, recycle=args.recycle, budget=args.budget)
        eps = measure(fam, budget=args.budget).epsilon
    return _one_row({
        "family": fam.descriptor(),
        "mode": "recycling" if args.recycle else "standard",
        "epsilon_measured": frac_str(eps),
        "distance": frac_str(d),
        "witness_strategy": strategy_json(env),
    }, ["family", "mode", "epsilon_measured", "distance"])


def _parse_wire(fam, text: str):
    try:
        v, t = map(int, text.split(","))
    except ValueError:
        raise DomainError(f"--inject must be 'msgint,tag', got {text!r}") from None
    return (fam.message_from_int(v), t)


def cmd_impersonate(args, fam):
    from . import ucsim

    if args.inject is not None:
        wire = _parse_wire(fam, args.inject)
        d = ucsim.impersonation_distance(fam, wire, recycle=args.recycle,
                                         budget=args.budget)
        env = ucsim.EnvStrategy.impersonate(wire)
    else:
        d, env = ucsim.worst_case_impersonation(fam, recycle=args.recycle,
                                                budget=args.budget)
    doc = {
        "family": fam.descriptor(),
        "mode": "recycling" if args.recycle else "standard",
        "distance": frac_str(d),
        "witness_strategy": strategy_json(env),
    }
    return doc, ["family", "mode", "distance", "inject"], \
        [[doc["family"], doc["mode"], doc["distance"], doc["witness_strategy"]["inject"]]]


def cmd_attack(args, fam):
    from .attack import _attack_reports, run_attack_montecarlo

    if args.montecarlo:
        rep = run_attack_montecarlo(fam, args.rounds, trials=args.trials, seed=args.seed,
                                    budget=args.budget)
        doc = {
            "family": fam.descriptor(),
            "rounds": rep.rounds,
            "trials": rep.trials,
            "hits": rep.hits,
            "rate": frac_str(rep.rate),
            "expected": frac_str(rep.expected),
            "interval": list(rep.interval),
            "within_3sigma": rep.within_3sigma,
            "seed": rep.seed,
        }
        header = ["rounds", "trials", "hits", "rate", "expected"]
        return doc, header + ["lo", "hi"], [[doc[h] for h in header] + doc["interval"]]
    reports = _attack_reports(fam, args.rounds, budget=args.budget)
    # row R's conditionals are the first R of the last row's: each is formatted once
    conditionals = [frac_str(c) for c in reports[-1].per_round_conditional]
    rows = [
        {
            "rounds": r.rounds,
            "success_exact": frac_str(r.success_prob),
            "success_formula": frac_str(r.success_formula),
            "per_round_conditional": conditionals[:r.rounds],
            "entropy_exact": float(r.entropy_bits),
            "entropy_formula": float(r.entropy_formula_bits),
        }
        for r in reports
    ]
    header = ["rounds", "success_exact", "success_formula", "entropy_exact", "entropy_formula"]
    return {"family": fam.descriptor(), "rows": rows}, header, \
        [[row[h] for h in header] for row in rows]


def cmd_compose(args, fam):
    from . import compose as compose_mod

    try:
        eps_prime = Fraction(args.qkd_eps)
    except ZeroDivisionError:
        raise DomainError(f"--qkd-eps {args.qkd_eps!r} has a zero denominator") from None
    except ValueError:
        raise DomainError(f"--qkd-eps {args.qkd_eps!r} is not a fraction") from None
    qkd = compose_mod.ToyQkdFunctionality(args.rounds * fam.tag_bits, eps_prime)
    # the simulation's gate is arithmetic, so a refusal comes before the ledger's measure
    if args.simulate:
        simulated = frac_str(compose_mod.simulate_composition(
            fam, args.r, args.rounds, budget=args.budget
        ))
    ledger, bound = compose_mod.compose_ledger(
        fam, args.r, args.rounds, qkd, budget=args.budget
    )
    text = {"qkd": frac_str(ledger.eps_prime), "auth": frac_str(ledger.epsilon)}
    entries, rows = [], []
    for rnd, component, _, cum in ledger.rows():
        entries.append({"round": rnd, "component": component, "epsilon": text[component]})
        rows.append([rnd, component, text[component], frac_str(cum)])
    doc = {
        "family": fam.descriptor(),
        "qkd_rounds": args.r,
        "auths_per_round": args.rounds,
        "qkd_eps": text["qkd"],
        "bound": frac_str(bound),
        "ledger": entries,
    }
    rows.append(["", "total-bound", doc["bound"], doc["bound"]])
    if args.simulate:
        doc["simulated_distance"] = simulated
        rows.append(["", "simulated-distance", simulated, simulated])
    return doc, ["round", "component", "epsilon", "cumulative"], rows


def cmd_roundtrip(args, fam):
    from .protocol import AuthKey, TaggedMessage, authenticate, pack_tagged, unpack_tagged, verify

    x = fam.message_from_int(args.message)
    key = AuthKey(args.k1, args.pad)
    ym = authenticate(fam, key, x)
    wire = pack_tagged(fam, ym)
    back = unpack_tagged(fam, wire)
    accepted = verify(fam, key, back)
    tampered = TaggedMessage(back.x, back.t ^ 1)
    doc = {
        "family": fam.descriptor(),
        "message": x,
        "k1": args.k1,
        "pad": args.pad,
        "tag": ym.t,
        "wire_hex": wire.hex(),
        "roundtrip_equal": back == ym,
        "verified": accepted is not None,
        "tamper_rejected": verify(fam, key, tampered) is None,
    }
    # the message cell is JSON text whatever its type: a table message may be a string
    return doc, ["family", "message", "k1", "pad", "tag", "wire_hex", "verified"], \
        [[doc["family"], json.dumps(doc["message"]), args.k1, args.pad, ym.t,
          doc["wire_hex"], doc["verified"]]]


def cmd_fieldtab(args, fam):
    field = fam.field
    if field.m > 8:
        raise BudgetExceeded("full multiplication tables are emitted for m <= 8 only")
    mul = [field.mul_row(a) for a in field.elements()]
    return {"m": field.m, "modulus": field.modulus, "mul": mul}, ["a", "b", "product"], \
        ([a, b, p] for a, row in enumerate(mul) for b, p in enumerate(row))


# -- parser -------------------------------------------------------------------


def _fail(code: int, text: str) -> int:
    """Write text to stderr as one line, each line break in it escaped; return code."""
    print("".join(ascii(c)[1:-1] if c.splitlines() == [""] else c for c in text), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit 2, like every other error."""

    def error(self, message):
        self.exit(_fail(2, f"recmac: error: {message}"))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="recmac",
        description="exact security accounting for pad-masked authentication "
                    "with a recycled hash key",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt, budget=True, seed=False):
        sp.add_argument("--family", required=True,
                        help="mul:m=M | poly:m=M,L=L | toeplitz:n=N,m=M | "
                             "table:@file.json | counterexample:m=M")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="cell budget of exact enumeration, Monte Carlo and sampling")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="PRNG seed")
        sp.add_argument("--out", default=None, help="write output to this file")
        sp.add_argument("--format", choices=("json", "csv"), default=fmt)

    sp = sub.add_parser("epsilon", help="measure two-point hash bounds")
    common(sp, "json", seed=True)
    sp.add_argument("--kind", choices=("axu2", "asu2"), default="axu2")
    sp.add_argument("--lift", action="store_true",
                    help="measure the pad-keyed lift of the family")
    sp.add_argument("--sample", action="store_true",
                    help="sampling mode (explicit opt-in when over budget)")
    sp.add_argument("--pairs", type=int, default=1000)
    sp.set_defaults(handler=cmd_epsilon)

    sp = sub.add_parser("uc-distance", help="real-vs-ideal distinguishing distance")
    common(sp, "json")
    sp.add_argument("--recycle", action="store_true",
                    help="pad-masked mode with k1 handed back afterwards")
    sp.add_argument("--lift", action="store_true",
                    help="in standard mode, run on the pad-keyed lift")
    sp.add_argument("--identity", action="store_true",
                    help="honest environment instead of the worst case")
    sp.set_defaults(handler=cmd_uc_distance)

    sp = sub.add_parser("impersonate", help="inject a wire message before any round")
    common(sp, "json")
    sp.add_argument("--recycle", action="store_true")
    sp.add_argument("--lift", action="store_true",
                    help="in standard mode, run on the pad-keyed lift")
    sp.add_argument("--inject", default=None,
                    help="wire message as 'msgint,tag', msgint being the message's "
                         "index in the family; omit to search the worst case")
    sp.set_defaults(handler=cmd_impersonate)

    sp = sub.add_parser("attack", help="per-round key-elimination attack accounting")
    common(sp, "csv", seed=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--montecarlo", action="store_true")
    sp.add_argument("--trials", type=int, default=100000)
    sp.set_defaults(handler=cmd_attack)

    sp = sub.add_parser("compose", help="multi-round error ledger")
    common(sp, "csv")
    sp.add_argument("--r", type=int, required=True, help="key-generation rounds")
    sp.add_argument("--rounds", type=int, required=True,
                    help="authentications per key-generation round")
    sp.add_argument("--qkd-eps", default="0", help="declared key-source error, e.g. 1/100")
    sp.add_argument("--simulate", action="store_true",
                    help="also compute the exact multi-round distance")
    sp.set_defaults(handler=cmd_compose)

    sp = sub.add_parser("roundtrip", help="authenticate, serialize, parse, verify")
    common(sp, "json", budget=False)
    sp.add_argument("--message", type=int, required=True,
                    help="message as an integer in wire form")
    sp.add_argument("--k1", type=int, required=True)
    sp.add_argument("--pad", type=int, required=True)
    sp.set_defaults(handler=cmd_roundtrip)

    sp = sub.add_parser("fieldtab", help="dump the family's tag-field tables")
    common(sp, "csv", budget=False)
    sp.set_defaults(handler=cmd_fieldtab)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 0) < 0:  # a usage error, where --budget 0 is a refusal
        parser.error(f"argument --budget: must be at least 0, got {args.budget}")
    lift = getattr(args, "lift", False)
    try:
        if lift and getattr(args, "recycle", False):
            raise DomainError("--lift selects the standard mode; it cannot be combined "
                              "with --recycle")
        fam = parse_family(args.family)
        if lift:
            fam = lift_to_asu2(fam)
        _emit(args, _render(args.format, *args.handler(args, fam)))
    except BudgetExceeded as exc:
        return _fail(1, f"recmac: budget refusal: {exc}")
    except (DomainError, OSError, ValueError, ZeroDivisionError) as exc:
        return _fail(2, f"recmac: error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
