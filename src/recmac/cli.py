"""Command-line front end.

Subcommands: epsilon, uc-distance, impersonate, attack, compose, roundtrip,
fieldtab.  Output goes to stdout or --out, as JSON (sorted keys) or CSV, and
is byte-identical across runs for identical arguments: all randomness flows
from --seed (epsilon and attack) and nothing timestamps or orders
nondeterministically.  Every subcommand but roundtrip and fieldtab takes --budget.

Exit codes: 0 success, 1 budget refusal (exact enumeration, Monte Carlo or
sampling), 2 usage errors (including malformed descriptors, out-of-range
parameters, unknown flags and flags that do not combine), on one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import compose as compose_mod
from . import ucsim
from .attack import _attack_reports, run_attack_montecarlo
from .errors import BudgetExceeded, DomainError, DEFAULT_BUDGET
from .dist import outcome_sort_key
from .families import lift_to_asu2, parse_family
from .measure import measure_asu2, measure_axu2, sample_axu2
from .protocol import AuthKey, TaggedMessage, authenticate, pack_tagged, unpack_tagged, verify


def frac_str(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _msg_json(x):
    return list(x) if isinstance(x, tuple) else x


def _wire_json(w):
    return [_msg_json(w[0]), w[1]]


def strategy_json(env: ucsim.EnvStrategy) -> dict:
    if env.mode == ucsim.IMPERSONATION:
        return {"mode": "impersonation", "inject": _wire_json(env.inject)}
    (x,) = next(iter(env.msg_dist.weights))
    pairs = sorted(env.subst.items(), key=lambda kv: outcome_sort_key(kv[0]))
    return {
        "mode": "substitution",
        "message": _msg_json(x),
        "map": [[_wire_json(y), _wire_json(yp)] for y, yp in pairs],
    }


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dump_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------


def cmd_epsilon(args) -> str:
    fam = parse_family(args.family)
    if args.lift:
        fam = lift_to_asu2(fam)
    if args.sample:
        if args.kind != "axu2":
            raise DomainError("sampling is implemented for --kind axu2 only")
        s = sample_axu2(fam, pairs=args.pairs, seed=args.seed, budget=args.budget)
        doc = {
            "family": fam.descriptor(),
            "kind": s.kind,
            "mode": "sample",
            "epsilon_lower_bound": frac_str(s.epsilon_estimate),
            "interval": list(s.interval),
            "pairs_sampled": s.pairs_sampled,
            "pair_coverage": frac_str(s.pair_coverage),
            "seed": s.seed,
            "witness": [_msg_json(v) for v in s.witness] if s.witness else None,
        }
        if args.format == "csv":
            return _dump_csv(
                ["family", "kind", "mode", "epsilon_lower_bound", "pairs_sampled"],
                [[doc["family"], s.kind, "sample", doc["epsilon_lower_bound"], s.pairs_sampled]],
            )
        return _dump_json(doc)
    meas = measure_axu2(fam, budget=args.budget) if args.kind == "axu2" else \
        measure_asu2(fam, budget=args.budget)
    doc = {
        "family": fam.descriptor(),
        "kind": meas.kind,
        "mode": "exact",
        "epsilon": frac_str(meas.epsilon),
        "witness": [_msg_json(v) for v in meas.witness] if meas.witness else None,
    }
    if args.format == "csv":
        return _dump_csv(
            ["family", "kind", "mode", "epsilon", "witness"],
            [[doc["family"], meas.kind, "exact", doc["epsilon"],
              json.dumps(doc["witness"])]],
        )
    return _dump_json(doc)


def _reject_lift_with_recycle(args) -> None:
    if args.lift and args.recycle:
        raise DomainError("--lift selects the standard mode; it cannot be combined "
                          "with --recycle")


def cmd_uc_distance(args) -> str:
    _reject_lift_with_recycle(args)
    fam = parse_family(args.family)
    if args.recycle:
        eps = measure_axu2(fam, budget=args.budget).epsilon
        mode = "recycling"
        target = fam
    else:
        target = lift_to_asu2(fam) if args.lift else fam
        eps = measure_asu2(target, budget=args.budget).epsilon
        mode = "standard"
    if args.identity:
        env = ucsim.EnvStrategy.substitute(target.messages[0], {})
        d = ucsim.uc_distance(target, env, recycle=args.recycle, budget=args.budget)
    else:
        d, env = ucsim.worst_case_distance(target, recycle=args.recycle, budget=args.budget)
    doc = {
        "family": target.descriptor(),
        "mode": mode,
        "epsilon_measured": frac_str(eps),
        "distance": frac_str(d),
        "witness_strategy": strategy_json(env),
    }
    if args.format == "csv":
        return _dump_csv(
            ["family", "mode", "epsilon_measured", "distance"],
            [[doc["family"], mode, doc["epsilon_measured"], doc["distance"]]],
        )
    return _dump_json(doc)


def _parse_wire(fam, text: str):
    parts = text.split(",")
    try:
        ints = [int(p) for p in parts]
    except ValueError:
        raise DomainError(f"--inject must be comma-separated integers, got {text!r}") from None
    if len(ints) < 2:
        raise DomainError("--inject needs a message part and a tag")
    *msg, t = ints
    x = fam.message_from_int(msg[0]) if len(msg) == 1 else tuple(msg)
    return (x, t)


def cmd_impersonate(args) -> str:
    _reject_lift_with_recycle(args)
    fam = parse_family(args.family)
    target = lift_to_asu2(fam) if args.lift else fam
    if args.inject is not None:
        wire = _parse_wire(target, args.inject)
        d = ucsim.impersonation_distance(target, wire, recycle=args.recycle,
                                         budget=args.budget)
        env = ucsim.EnvStrategy.impersonate(wire)
    else:
        d, env = ucsim.worst_case_impersonation(target, recycle=args.recycle,
                                                budget=args.budget)
    doc = {
        "family": target.descriptor(),
        "mode": "recycling" if args.recycle else "standard",
        "distance": frac_str(d),
        "witness_strategy": strategy_json(env),
    }
    if args.format == "csv":
        return _dump_csv(
            ["family", "mode", "distance", "inject"],
            [[doc["family"], doc["mode"], doc["distance"],
              json.dumps(strategy_json(env)["inject"])]],
        )
    return _dump_json(doc)


def cmd_attack(args) -> str:
    fam = parse_family(args.family)
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
        if args.format == "csv":
            return _dump_csv(
                ["rounds", "trials", "hits", "rate", "expected", "lo", "hi"],
                [[rep.rounds, rep.trials, rep.hits, frac_str(rep.rate),
                  frac_str(rep.expected), repr(rep.interval[0]), repr(rep.interval[1])]],
            )
        return _dump_json(doc)
    reports = _attack_reports(fam, args.rounds, budget=args.budget)
    if args.format == "json":
        return _dump_json({
            "family": fam.descriptor(),
            "rows": [
                {
                    "rounds": r.rounds,
                    "success_exact": frac_str(r.success_prob),
                    "success_formula": frac_str(r.success_formula),
                    "per_round_conditional": [frac_str(c) for c in r.per_round_conditional],
                    "entropy_exact": float(r.entropy_bits),
                    "entropy_formula": float(r.entropy_formula_bits),
                }
                for r in reports
            ],
        })
    rows = [
        [r.rounds, frac_str(r.success_prob), frac_str(r.success_formula),
         repr(float(r.entropy_bits)), repr(float(r.entropy_formula_bits))]
        for r in reports
    ]
    return _dump_csv(
        ["rounds", "success_exact", "success_formula", "entropy_exact", "entropy_formula"],
        rows,
    )


def cmd_compose(args) -> str:
    fam = parse_family(args.family)
    eps_prime = Fraction(args.qkd_eps)
    out_bits = args.qkd_bits if args.qkd_bits is not None else \
        args.rounds * fam.tag_bits
    qkd = compose_mod.ToyQkdFunctionality(out_bits, eps_prime)
    ledger, bound = compose_mod.compose_ledger(
        fam, args.r, args.rounds, qkd, budget=args.budget
    )
    simulated = None
    if args.simulate:
        simulated = compose_mod.simulate_composition(
            fam, args.r, args.rounds, budget=args.budget
        )
    if args.format == "json":
        doc = {
            "family": fam.descriptor(),
            "qkd_rounds": args.r,
            "auths_per_round": args.rounds,
            "qkd_eps": frac_str(eps_prime),
            "bound": frac_str(bound),
            "ledger": [
                {"round": e.round, "component": e.component, "epsilon": frac_str(e.epsilon)}
                for e in ledger.entries
            ],
        }
        if simulated is not None:
            doc["simulated_distance"] = frac_str(simulated)
        return _dump_json(doc)
    rows = []
    for e, cum in zip(ledger.entries, ledger.cumulative()):
        rows.append([e.round, e.component, frac_str(e.epsilon), frac_str(cum)])
    rows.append(["", "total-bound", frac_str(bound), frac_str(bound)])
    if simulated is not None:
        rows.append(["", "simulated-distance", frac_str(simulated), frac_str(simulated)])
    return _dump_csv(["round", "component", "epsilon", "cumulative"], rows)


def cmd_roundtrip(args) -> str:
    fam = parse_family(args.family)
    x = fam.message_from_int(args.message)
    key = AuthKey(args.k1, args.pad)
    ym = authenticate(fam, key, x)
    wire = pack_tagged(fam, ym)
    back = unpack_tagged(fam, wire)
    accepted = verify(fam, key, back)
    tampered = TaggedMessage(back.x, back.t ^ 1)
    doc = {
        "family": fam.descriptor(),
        "message": _msg_json(x),
        "k1": args.k1,
        "pad": args.pad,
        "tag": ym.t,
        "wire_hex": wire.hex(),
        "roundtrip_equal": back == ym,
        "verified": accepted is not None,
        "tamper_rejected": verify(fam, key, tampered) is None,
    }
    if args.format == "csv":
        return _dump_csv(
            ["family", "message", "k1", "pad", "tag", "wire_hex", "verified"],
            [[doc["family"], json.dumps(doc["message"]), args.k1, args.pad,
              ym.t, doc["wire_hex"], doc["verified"]]],
        )
    return _dump_json(doc)


def cmd_fieldtab(args) -> str:
    fam = parse_family(args.family)
    field = fam.field
    if field.m > 8:
        raise BudgetExceeded("full multiplication tables are emitted for m <= 8 only")
    if args.format == "json":
        return _dump_json({
            "m": field.m,
            "modulus": field.modulus,
            "mul": [[field.mul(a, b) for b in field.elements()] for a in field.elements()],
        })
    rows = [[a, b, field.mul(a, b)] for a in field.elements() for b in field.elements()]
    return _dump_csv(["a", "b", "product"], rows)


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit 2, like every other error."""

    def error(self, message):
        self.exit(2, f"recmac: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="recmac",
        description="exact security accounting for pad-masked authentication "
                    "with a recycled hash key",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, budget=True, seed=False):
        sp.add_argument("--family", required=True,
                        help="mul:m=M | poly:m=M,L=L | toeplitz:n=N,m=M | "
                             "table:@file.json | counterexample:m=M")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="cell budget of exact enumeration, Monte Carlo and sampling")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="PRNG seed")
        sp.add_argument("--out", default=None, help="write output to this file")
        sp.add_argument("--format", choices=("json", "csv"), default=None)

    sp = sub.add_parser("epsilon", help="measure two-point hash bounds")
    common(sp, seed=True)
    sp.add_argument("--kind", choices=("axu2", "asu2"), default="axu2")
    sp.add_argument("--lift", action="store_true",
                    help="measure the pad-keyed lift of the family")
    sp.add_argument("--sample", action="store_true",
                    help="sampling mode (explicit opt-in when over budget)")
    sp.add_argument("--pairs", type=int, default=1000)
    sp.set_defaults(handler=cmd_epsilon, default_format="json")

    sp = sub.add_parser("uc-distance", help="real-vs-ideal distinguishing distance")
    common(sp)
    sp.add_argument("--recycle", action="store_true",
                    help="pad-masked mode with k1 handed back afterwards")
    sp.add_argument("--lift", action="store_true",
                    help="in standard mode, run on the pad-keyed lift")
    sp.add_argument("--identity", action="store_true",
                    help="honest environment instead of the worst case")
    sp.set_defaults(handler=cmd_uc_distance, default_format="json")

    sp = sub.add_parser("impersonate", help="inject a wire message before any round")
    common(sp)
    sp.add_argument("--recycle", action="store_true")
    sp.add_argument("--lift", action="store_true",
                    help="in standard mode, run on the pad-keyed lift")
    sp.add_argument("--inject", default=None,
                    help="wire message as 'msgint,tag'; omit to search the worst case")
    sp.set_defaults(handler=cmd_impersonate, default_format="json")

    sp = sub.add_parser("attack", help="per-round key-elimination attack accounting")
    common(sp, seed=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--montecarlo", action="store_true")
    sp.add_argument("--trials", type=int, default=100000)
    sp.set_defaults(handler=cmd_attack, default_format="csv")

    sp = sub.add_parser("compose", help="multi-round error ledger")
    common(sp)
    sp.add_argument("--r", type=int, required=True, help="key-generation rounds")
    sp.add_argument("--rounds", type=int, required=True,
                    help="authentications per key-generation round")
    sp.add_argument("--qkd-eps", default="0", help="declared key-source error, e.g. 1/100")
    sp.add_argument("--qkd-bits", type=int, default=None)
    sp.add_argument("--simulate", action="store_true",
                    help="also compute the exact multi-round distance")
    sp.set_defaults(handler=cmd_compose, default_format="csv")

    sp = sub.add_parser("roundtrip", help="authenticate, serialize, parse, verify")
    common(sp, budget=False)
    sp.add_argument("--message", type=int, required=True,
                    help="message as an integer in wire form")
    sp.add_argument("--k1", type=int, required=True)
    sp.add_argument("--pad", type=int, required=True)
    sp.set_defaults(handler=cmd_roundtrip, default_format="json")

    sp = sub.add_parser("fieldtab", help="dump the family's tag-field tables")
    common(sp, budget=False)
    sp.set_defaults(handler=cmd_fieldtab, default_format="csv")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        text = args.handler(args)
    except BudgetExceeded as exc:
        print(f"recmac: budget refusal: {exc}", file=sys.stderr)
        return 1
    except (DomainError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"recmac: error: {exc}", file=sys.stderr)
        return 2
    _emit(args, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
