"""Brute-force references that only the tests call: the unpruned canonical
form, which ``oracle._canonical_form`` must equal on every table, the
smallest generating seed, which bounds ``oracle._generator_count`` from
below, the n^4 paramedial identity, which ``affine.is_paramedial`` must
agree with (vectorized, and as a plain loop), and the Burnside count and
action spot check that the orbit computations are held to."""

import itertools
from collections.abc import Sequence

from paramedial.affine import QuasigroupTable
from paramedial.oracle import ActionSpec


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
    product, by closing every k-subset in turn."""
    n = len(rows)
    for k in range(n + 1):
        for seed in itertools.combinations(range(n), k):
            reached = set(seed)
            frontier = list(seed)
            while frontier:
                x = frontier.pop()
                for y in list(reached):
                    for z in (rows[x][y], rows[y][x]):
                        if z not in reached:
                            reached.add(z)
                            frontier.append(z)
            if len(reached) == n:
                return k
    raise AssertionError("all n elements generate")


def burnside_count(spec: ActionSpec) -> int:
    """Orbit count as the average number of fixed points; must divide evenly."""
    if spec.elements is None:
        raise ValueError("Burnside counting needs the full element list")
    points = list(spec.points)
    total = 0
    for g in spec.elements:
        total += sum(1 for x in points if spec.act(g, x) == x)
    n_group = spec.group_order()
    if total % n_group != 0:
        raise ValueError("fixed-point total is not divisible by the group order")
    return total // n_group


def validate_action(spec: ActionSpec, rng, samples: int = 30) -> None:
    """Spot-check that the identity is trivial and g.(h.x) = (g h).x."""
    if spec.elements is None:
        raise ValueError("validation needs the full element list")
    points = list(spec.points)
    elements = list(spec.elements)
    for _ in range(samples):
        x = points[rng.randrange(len(points))]
        assert spec.act(spec.identity, x) == x
        g = elements[rng.randrange(len(elements))]
        h = elements[rng.randrange(len(elements))]
        assert spec.act(g, spec.act(h, x)) == spec.act(spec.compose(g, h), x)


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
