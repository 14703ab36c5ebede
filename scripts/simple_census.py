#!/usr/bin/env python3
"""Census of the simple paramedial quasigroups of order p^2.

Prints, per case family, how many simple classes it contributes, checks
the total against the closed form ``simple_closed_count`` (p(2p - 3) for
odd p, 3 for p = 2), and cross-checks every flag against
``oracle.table_is_simple`` on the explicit table (for small p).  A p that
is not a prime below 2^31, or whose classes exceed the library's record
bound, is skipped before any enumeration, as the library refuses it; so
is the cross-check where ``table_is_simple`` refuses the order p^2.  A
reader that closes the output early gets exit code 2 and one ``error:``
line on stderr.

Usage: python3 scripts/simple_census.py [--primes 3 5 7]
"""

import argparse
import os
import sys
from collections import Counter

from paramedial.affine import AffineForm, ElemAbelian2Group, ResourceLimitError, materialize
from paramedial.enum_cyclic import simple_closed_count
from paramedial.oracle import table_is_simple


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    parser.add_argument("--oracle-max-p", type=int, default=5,
                        help="cross-check flags on explicit tables up to this p")
    args = parser.parse_args()

    failures = 0
    for p in args.primes:
        try:
            group = ElemAbelian2Group(p)  # range-checked before the trial division of is_prime
            rows = group.classification().rows  # the class count is checked before any row
        except (ValueError, ResourceLimitError) as exc:
            print(f"skipping p={p} ({exc})")
            continue
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
            try:
                bad = sum(
                    1
                    for phi, psi, c, _, simple in rows
                    if simple != table_is_simple(materialize(AffineForm(group, phi, psi, c)))
                )
            except ResourceLimitError as exc:  # refused before the first closure
                print(f"  congruence-oracle check skipped ({exc})")
                continue
            print(f"  congruence-oracle check on {len(rows)} explicit tables: "
                  f"{'ok' if bad == 0 else f'{bad} disagreements'}")
            failures += bad
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # here, where a closed pipe is caught, not at interpreter exit
    except BrokenPipeError as exc:
        print(f"error: cannot write <stdout>: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the final flush fails no more
        code = 2
    sys.exit(code)
