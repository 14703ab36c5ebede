"""Brute-force references that only the tests call: the unpruned canonical
form, which ``oracle._canonical_form`` must equal on every table, the
smallest generating seed, whose form cost decides whether
``oracle.classify_tables`` refuses a table, the n^4 paramedial identity,
which ``affine.is_paramedial`` must agree with (vectorized, and as a
plain loop), the group Aff(G) of the triple action with its elements
and product, which the oracle never builds, the Burnside count,
orbit-stabilizer check and action spot check that the orbit computations
are held to, and the argparse parser that ``cli._parse_args`` must read
argv as."""

import argparse
import itertools
from collections.abc import Callable, Sequence

from paramedial.affine import GroupDescriptor, QuasigroupTable
from paramedial.oracle import OrbitPartition, _automorphisms


def canonical_form_unpruned(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """``oracle._canonical_form`` without its pruning: the least relabelled
    table over every seed of the smallest size that generates."""
    n = len(rows)
    for k in range(1, n + 1):
        forms = []
        for seed in itertools.permutations(range(n), k):
            order = list(seed)
            label = [-1] * n
            for i, x in enumerate(order):
                label[x] = i
            m = 0
            while m < len(order) < n:
                x = order[m]
                for y in order[: m + 1]:
                    for z in (rows[x][y], rows[y][x]):
                        if label[z] < 0:
                            label[z] = len(order)
                            order.append(z)
                m += 1
            if len(order) == n:
                forms.append(tuple(label[rows[x][y]] for x in order for y in order))
        if forms:
            return min(forms)
    return ()  # n = 0: the empty table


def raw_table(op, n: int) -> QuasigroupTable:
    """The table of x*y = op(x, y) on 0..n-1."""
    return QuasigroupTable(n, tuple(tuple(op(x, y) for y in range(n)) for x in range(n)))


def smallest_generating_seed(rows: Sequence[Sequence[int]]) -> int:
    """The least k such that some k elements generate the table under the
    product.  The sets that k elements generate are found level by level,
    each once: one that k - 1 elements generate, with one element outside
    it added and the closure grown from there.  An element inside it adds
    nothing, so k is the level of the first set of all n elements."""
    n = len(rows)
    if n == 0:
        return 0
    level = {frozenset()}
    for k in range(1, n + 1):
        grown = set()
        for closed in level:
            for x in range(n):
                if x in closed:
                    continue
                reached, frontier = {*closed, x}, [x]
                while frontier:  # products within the closed set stay in it
                    y = frontier.pop()
                    for z in list(reached):
                        for w in (rows[y][z], rows[z][y]):
                            if w not in reached:
                                reached.add(w)
                                frontier.append(w)
                if len(reached) == n:
                    return k
                grown.add(frozenset(reached))
        level = grown
    raise AssertionError("all n elements generate")


def affine_group(group: GroupDescriptor) -> tuple[list, Callable, tuple]:
    """Aff(G), the group of ``oracle.triple_action_spec``: its |Aut(G)| * |G|
    elements (alpha, alpha^-1, d), the maps x -> alpha(x) + d, their
    product and its identity."""
    aut = _automorphisms(group)

    def compose(g, h):
        return (aut.mul(g[0], h[0]), aut.mul(h[1], g[1]), aut.add(aut.apply(g[0], h[2]), g[2]))

    identity = (aut.identity, aut.identity, aut.points[0])
    return [(a, aut.inv(a), d) for a in aut.elements for d in aut.points], compose, identity


def burnside_count(points: Sequence, act: Callable, elements: Sequence) -> int:
    """Orbit count as the average number of fixed points; must divide evenly."""
    total = sum(act(g, x) == x for g in elements for x in points)
    if total % len(elements) != 0:
        raise ValueError("fixed-point total is not divisible by the group order")
    return total // len(elements)


def orbit_sizes_divide(part: OrbitPartition, order: int) -> bool:
    """Orbit-stabilizer: each orbit's size divides the order of the group."""
    return all(order % len(orb) == 0 for orb in part.orbits)


def validate_action(
    points: Sequence, act: Callable, compose: Callable, identity, elements: Sequence, rng, samples: int = 30
) -> None:
    """Spot-check that the identity is trivial and g.(h.x) = (g h).x."""
    for _ in range(samples):
        x = points[rng.randrange(len(points))]
        assert act(identity, x) == x
        g = elements[rng.randrange(len(elements))]
        h = elements[rng.randrange(len(elements))]
        assert act(g, act(h, x)) == act(compose(g, h), x)


def satisfies_paramedial_identity(table: QuasigroupTable) -> bool:
    """Exhaustive check of (x*y)*(u*v) = (v*y)*(u*x) over all n^4 quadruples.

    Works on any magma, latin or not, and shares nothing with the
    affine-recovery test ``affine.is_paramedial``, which it is the
    reference for.  Vectorized with one n^3 slab per x so memory stays
    cubic; numpy, a test extra, is imported here alone.
    """
    import numpy as np

    t = np.array(table.rows, dtype=np.int64)
    n = table.n
    t_uv = t[None, :, :]  # axes (y, u, v) -> t[u][v]
    for x in range(n):
        lhs = t[t[x][:, None, None], t_uv]
        rhs = t[t.T[:, None, :], t[:, x][None, :, None]]  # t[v][y], t[u][x]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def paramedial_by_loop(table: QuasigroupTable) -> bool:
    """(x*y)*(u*v) = (v*y)*(u*x), quadruple by quadruple, stopping at the
    first that fails: the plain-loop twin of ``satisfies_paramedial_identity``."""
    rows, n = table.rows, table.n
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for u in range(n):
                ux = rows[u][x]
                for v in range(n):
                    if rows[xy][rows[u][v]] != rows[rows[v][y]][ux]:
                        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argv as argparse reads it: ``cli._parse_args`` accepts
    exactly the argv this parser accepts, with the same values."""
    parser = argparse.ArgumentParser(
        prog="paramedial",
        description="Count, enumerate and verify paramedial quasigroups of prime-power order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="number of classes for an order or a group")
    target = p_count.add_mutually_exclusive_group(required=True)
    target.add_argument("--order", type=int, help="total over all abelian groups of this order")
    target.add_argument("--group", nargs="+", metavar="SPEC", help="cyclic P K | elem2 P")
    p_count.add_argument("--json", action="store_true", help="emit a JSON object instead of the bare integer")

    p_enum = sub.add_parser("enumerate", help="export one representative per class")
    p_enum.add_argument("--group", nargs="+", metavar="SPEC", required=True, help="cyclic P K | elem2 P")
    p_enum.add_argument("--simple-only", action="store_true", help="keep only simple quasigroups")
    p_enum.add_argument("--format", choices=["json", "csv", "tables"], default="json")
    p_enum.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p_enum.add_argument("--manifest", metavar="PATH", help="also write a run manifest with digest")

    p_verify = sub.add_parser("verify", help="run invariant checks against the classification")
    p_verify.add_argument("--group", nargs="+", metavar="SPEC", required=True, help="cyclic P K | elem2 P")
    p_verify.add_argument("--level", choices=["fast", "oracle"], default="fast")
    return parser
