#!/usr/bin/env python3
"""Reproduce the headline class counts three ways.

For each supported group the closed-form value, the structured
enumeration and the brute-force orbit classification are printed side by
side; any disagreement is flagged.  A ``-`` marks what the library
refuses before any work: more classes than its record bound (enum
column), or |Aut(G)| * |G| above ``oracle.MAX_AFFINE_ORDER`` (oracle
column).  A reader that closes the output early gets exit code 2 and one
``error:`` line on stderr.

Usage: python3 scripts/reproduce_counts.py [--max-p 7] [--max-k 3]
"""

import argparse
import os
import sys
import time

from paramedial.affine import CyclicGroup, ElemAbelian2Group
from paramedial.enum_cyclic import pq_total
from paramedial.modring import Modulus, is_prime
from paramedial.oracle import ResourceLimitError, classify_two_stage


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=7, help="largest prime to cover")
    parser.add_argument("--max-k", type=int, default=3, help="largest cyclic exponent")
    args = parser.parse_args()

    primes = [p for p in range(2, args.max_p + 1) if is_prime(p)]
    groups = []
    for p in primes:
        for k in range(1, args.max_k + 1):
            try:
                groups.append(CyclicGroup(Modulus(p, k)))
            except ValueError:  # p^k beyond the supported range
                pass
    groups += [ElemAbelian2Group(p) for p in primes]
    failures = 0
    print(f"{'group':>14} {'closed':>8} {'enum':>8} {'oracle':>8}")
    for group in groups:
        closed = group.closed_count()
        enum = oracle = "-"
        try:
            enum = group.classification().count
        except ResourceLimitError:  # refused before any work
            pass
        try:
            oracle = classify_two_stage(group).count
        except ResourceLimitError:
            pass
        ok = enum in ("-", closed) and oracle in ("-", closed)
        failures += 0 if ok else 1
        flag = "" if ok else "   <-- MISMATCH"
        print(f"{group.describe():>14} {closed:>8} {enum:>8} {oracle:>8}{flag}")

    print()
    for p in primes:
        if p == 2:
            continue
        print(f"pq({p}) = {pq_total(p)} (= 2p-1),  pq({p * p}) = {pq_total(p * p)} (= 6p^2-p-1)")
    return 1 if failures else 0


if __name__ == "__main__":
    start = time.perf_counter()
    try:
        code = main()
        sys.stdout.flush()  # here, where a closed pipe is caught, not at interpreter exit
    except BrokenPipeError as exc:
        print(f"error: cannot write <stdout>: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the final flush fails no more
        sys.exit(2)
    print(f"\ndone in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    sys.exit(code)
