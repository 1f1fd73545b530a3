"""Sweep exact collision bounds across the built-in hash families.

Prints one row per family: sizes, the measured two-point bound, the nominal
bound it should meet, and whether the measurement is tight against it.
Optionally cross-checks the exhaustive value with the sampling estimator.

Usage: python3 scripts/epsilon_sweep.py [--sample] [--pairs N] [--seed S]
"""

import argparse
from collections import Counter
from fractions import Fraction
from itertools import combinations

from recmac import (
    MulFamily,
    PolyFamily,
    ToeplitzFamily,
    VerificationFailed,
    lift_to_asu2,
    measure_asu2,
    measure_axu2,
    sample_axu2,
)


def families():
    for m in range(1, 9):
        yield MulFamily(m), Fraction(1, 2 ** m)
    for length in range(1, 5):
        yield PolyFamily(4, length), Fraction(length, 16)
    for n, m in ((3, 2), (4, 2), (4, 3), (5, 3)):
        yield ToeplitzFamily(n, m), Fraction(1, 2 ** m)


def strong_cell_bound(fam):
    """|T| times the largest (t1, t2) cell over message pairs, counted on the tag table.

    measure_asu2 reads a lifted family's bound from its base's axu2, so the
    sweep holds it to this direct count instead of to the library itself.
    """
    table = fam.tag_table()
    best = max(max(Counter((row[i], row[j]) for row in table).values())
               for i, j in combinations(range(len(fam.messages)), 2))
    return Fraction(fam.tag_count * best, fam.key_count)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sample", action="store_true",
                    help="also run the sampling estimator on each family")
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    head = f"{'family':<18}{'|X|':>6}{'|K|':>7}{'|T|':>5}{'eps':>10}{'bound':>10}  tight"
    print(head)
    print("-" * len(head))
    for fam, bound in families():
        meas = measure_axu2(fam)
        tight = "yes" if meas.epsilon == bound else "no"
        row = (f"{fam.descriptor():<18}{len(fam.messages):>6}{fam.key_count:>7}"
               f"{fam.tag_count:>5}{str(meas.epsilon):>10}{str(bound):>10}  {tight}")
        if meas.epsilon > bound:
            raise VerificationFailed(f"{fam.descriptor()}: eps {meas.epsilon} > {bound}")
        if args.sample and len(fam.messages) > 1:
            est = sample_axu2(fam, pairs=args.pairs, seed=args.seed)
            row += f"   sampled {est.epsilon_estimate}"
            if est.epsilon_estimate > meas.epsilon:
                raise VerificationFailed(
                    f"{fam.descriptor()}: sampled {est.epsilon_estimate} > exact {meas.epsilon}")
        print(row)

    print()
    print("one-time-pad lift: the strongly universal bound equals the base")
    print("almost-XOR bound in every case below, and a direct count of the")
    print("lifted table's strong cells agrees")
    for m in (2, 3, 4):
        base = MulFamily(m)
        lifted = lift_to_asu2(base)
        a = measure_axu2(base).epsilon
        s = measure_asu2(lifted).epsilon
        direct = strong_cell_bound(lifted)
        if a != direct or s != direct:
            raise VerificationFailed(f"{lifted.descriptor()}: direct strong-cell count "
                                     f"{direct}, asu2 {s}, base axu2 {a}")
        print(f"  {base.descriptor():<10} axu2 {str(a):>8}   "
              f"lifted asu2 {str(s):>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
