"""Compare the additive error ledger against exactly simulated distance.

Sweeps (qkd rounds r, authentications per round l) grids for a family and a
toy key functionality, printing the ledger bound r*(l*eps + eps') next to
the exact real/ideal distance of the composed run under the list-eliminating
environment whenever that simulation fits the cell budget.

Usage: python3 scripts/composition_budget.py [--family DESC] [--qkd-eps Q]
"""

import argparse
from fractions import Fraction

from recmac import (
    BudgetExceeded,
    LIST_ELIMINATION,
    ToyQkdFunctionality,
    VerificationFailed,
    compose_ledger,
    measure_axu2,
    parse_family,
    simulate_composition,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="mul:m=2")
    ap.add_argument("--qkd-eps", default="1/100")
    ap.add_argument("--max-r", type=int, default=4)
    ap.add_argument("--max-rounds", type=int, default=4)
    args = ap.parse_args()

    fam = parse_family(args.family)
    eps = measure_axu2(fam).epsilon
    eps_prime = Fraction(args.qkd_eps)
    print(f"family {fam.descriptor()}: eps = {eps}, qkd eps' = {eps_prime}")
    head = (f"{'r':>3}{'l':>3}{'ledger bound':>16}{'simulated':>14}"
            f"{'slack':>12}")
    print(head)
    print("-" * len(head))
    for r in range(1, args.max_r + 1):
        for l in range(1, args.max_rounds + 1):
            qkd = ToyQkdFunctionality(l * fam.tag_bits, eps_prime)
            ledger, bound = compose_ledger(fam, r, l, qkd)
            if ledger.total != bound:
                raise VerificationFailed(f"ledger sums to {ledger.total}, not {bound}")
            try:
                sim = simulate_composition(fam, r, l, env=LIST_ELIMINATION)
            except BudgetExceeded:
                print(f"{r:>3}{l:>3}{str(bound):>16}{'over budget':>14}")
                continue
            # the simulated environment spends no qkd failures, so its
            # distance must sit under the hash part of the ledger alone
            if sim > min(Fraction(1), r * l * eps):
                raise VerificationFailed(f"r={r} l={l}: simulated {sim} exceeds r*l*eps")
            slack = bound - sim
            print(f"{r:>3}{l:>3}{str(bound):>16}{str(sim):>14}"
                  f"{str(slack):>12}")
    print()
    print("the ledger is linear while the simulated attack saturates at 1;")
    print("slack below is pure union-bound overcounting plus the qkd term")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
