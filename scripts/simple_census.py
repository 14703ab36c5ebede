#!/usr/bin/env python3
"""Census of the simple paramedial quasigroups of order p^2.

Prints, per case family, how many simple classes it contributes, checks
the total against the closed form p(2p - 3), and cross-checks every
flag against the congruence-based table oracle (for small p).

Usage: python3 scripts/simple_census.py [--primes 3 5 7]
"""

import argparse
import sys
from collections import Counter

from paramedial.affine import AffineForm, ElemAbelian2Group
from paramedial.enum_cyclic import simple_closed_count
from paramedial.enum_gl2 import enumerate_gl2
from paramedial.modring import is_prime
from paramedial.oracle import simple_via_subgroup_congruences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    parser.add_argument("--oracle-max-p", type=int, default=5,
                        help="cross-check flags on explicit tables up to this p")
    args = parser.parse_args()

    failures = 0
    for p in args.primes:
        if not is_prime(p) or p == 2:
            print(f"skipping p={p} (need an odd prime)")
            continue
        rows = enumerate_gl2(p).rows
        by_case = Counter(case for _, _, _, case, simple in rows if simple)
        simple_total = sum(by_case.values())
        print(f"\np = {p}: {simple_total} simple classes out of {len(rows)}")
        for case in sorted(by_case):
            print(f"  {case:<22} {by_case[case]}")
        expected = simple_closed_count(p)
        if simple_total != expected:
            failures += 1
            print(f"  MISMATCH: expected {expected}")
        if p <= args.oracle_max_p:
            group = ElemAbelian2Group(p)
            bad = sum(
                1
                for phi, psi, c, _, simple in rows
                if simple != simple_via_subgroup_congruences(AffineForm(group, phi, psi, c))
            )
            print(f"  congruence-oracle check on {len(rows)} explicit tables: "
                  f"{'ok' if bad == 0 else f'{bad} disagreements'}")
            failures += bad
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
