"""Trace how fast an interactive forger learns the recycled hash key.

For a chosen family, prints one row per number of observed rounds: the exact
cumulative forgery probability, the conditional success rate of the next
guess, and the residual key entropy (exact formula plus float).  The exact
enumeration and the closed form are checked equal on every row.

Usage: python3 scripts/key_leak_curve.py [--family DESC] [--format csv]
"""

import argparse
import csv
import sys

from recmac import DEFAULT_BUDGET, VerificationFailed, parse_family
from recmac.attack import _attack_reports


def curve(fam):
    """(rounds, success, next-round conditional, entropy) for 0..|T| rounds, from one pass."""
    reports = _attack_reports(fam, fam.tag_count, DEFAULT_BUDGET, first=0)
    rows = []
    for rep, nxt in zip(reports, [*reports[1:], None]):
        if rep.entropy_bits != rep.entropy_formula_bits:
            raise VerificationFailed(f"rounds={rep.rounds}: entropy differs from its closed form")
        cond = None if nxt is None else nxt.per_round_conditional[-1]
        rows.append((rep.rounds, rep.success_prob, cond, rep.entropy_bits))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="mul:m=3")
    ap.add_argument("--format", choices=("table", "csv"), default="table")
    args = ap.parse_args()

    fam = parse_family(args.family)
    rows = curve(fam)
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(("rounds", "success", "conditional", "entropy_bits"))
        for rounds, success, cond, ent in rows:
            w.writerow((rounds, success, "" if cond is None else cond,
                        repr(float(ent))))
        return 0

    print(f"family {fam.descriptor()}: |K| = {fam.key_count}, "
          f"|T| = {fam.tag_count}")
    head = f"{'rounds':>6}{'success':>12}{'next-round':>12}{'entropy bits':>14}"
    print(head)
    print("-" * len(head))
    for rounds, success, cond, ent in rows:
        cell = "-" if cond is None else str(cond)
        print(f"{rounds:>6}{str(success):>12}{cell:>12}{float(ent):>14.6f}")
    print()
    print("success grows linearly, the conditional rate climbs as guesses")
    print("are eliminated, and entropy interpolates down to log2(|K|/|T|)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
