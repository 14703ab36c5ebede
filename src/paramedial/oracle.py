"""Brute-force ground truth: group actions, orbit partitions, isomorphism.

Nothing in here knows about the structured case analysis used by the
enumerators; it classifies by raw orbit computation and raw table
search so the two routes stay independent.  Exhaustive methods suffice
at the supported scale, so there is no permutation-group cleverness.

For the same reason the 2x2 arithmetic of the triple action runs on its
own kernel (``_mmul``/``_minv``/``_mvec``) rather than on ``modring``'s
``mat_mul``/``mat_inv``/``mat_vec``, although both work on the same
(a, b, c, d) tuples: this module is the reference the enumerators are
checked against, and a kernel shared with them could hide one bug on
both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .affine import AffineForm, CyclicGroup, ElemAbelian2Group, GroupDescriptor, QuasigroupTable
from .modring import unit_group

DEFAULT_MAX_POINTS = 10**7


class ResourceLimitError(RuntimeError):
    """A configured size or memory budget would be exceeded."""


@dataclass
class ActionSpec:
    """A finite group action, explicit enough to enumerate orbits.

    ``generators`` may be a proper generating subset; orbit traversal
    only ever applies generators.  ``elements`` is needed for the
    Burnside count and may be omitted for large groups if ``order`` is
    given.
    """

    points: Sequence[Any]
    act: Callable[[Any, Any], Any]
    compose: Callable[[Any, Any], Any]
    identity: Any
    elements: Optional[Sequence[Any]] = None
    generators: Optional[Sequence[Any]] = None
    order: Optional[int] = None

    def group_order(self) -> int:
        if self.order is not None:
            return self.order
        if self.elements is not None:
            return len(self.elements)
        raise ValueError("ActionSpec needs either order or elements")

    def generating_set(self) -> Sequence[Any]:
        if self.generators is not None:
            return self.generators
        if self.elements is not None:
            return self.elements
        raise ValueError("ActionSpec needs either generators or elements")


@dataclass
class OrbitPartition:
    orbits: tuple[tuple, ...]
    representatives: tuple
    stabilizer_orders: tuple[int, ...]
    group_order: int
    index: dict = field(repr=False)


def orbits(spec: ActionSpec, max_points: int = DEFAULT_MAX_POINTS) -> OrbitPartition:
    """Exact orbit partition of the point set under the action.

    Representatives are the least point of each orbit; orbits are listed
    in representative order.  The computation is a plain closure under
    the generating set, so it is deterministic regardless of how the
    point set was ordered.
    """
    points = list(spec.points)
    if len(points) > max_points:
        raise ResourceLimitError(f"{len(points)} points exceed the budget of {max_points}")
    point_set = set(points)
    gens = spec.generating_set()
    n_group = spec.group_order()

    seen: set = set()
    orbit_lists: list[tuple] = []
    for seed in points:
        if seed in seen:
            continue
        members = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = spec.act(g, x)
                if y not in members:
                    if y not in point_set:
                        raise ValueError(f"action leaves the point set at {y!r}")
                    members.add(y)
                    frontier.append(y)
        seen |= members
        orbit_lists.append(tuple(sorted(members)))

    orbit_lists.sort(key=lambda orb: orb[0])
    stabilizers = []
    index = {}
    for i, orb in enumerate(orbit_lists):
        if n_group % len(orb) != 0:
            raise ValueError(f"orbit of size {len(orb)} violates orbit-stabilizer for |G|={n_group}")
        stabilizers.append(n_group // len(orb))
        for pt in orb:
            index[pt] = i
    return OrbitPartition(
        orbits=tuple(orbit_lists),
        representatives=tuple(orb[0] for orb in orbit_lists),
        stabilizer_orders=tuple(stabilizers),
        group_order=n_group,
        index=index,
    )


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


# -- isomorphism classification of affine paramedial triples ------------------
#
# Aff(G, phi1, psi1, c1) and Aff(G, phi2, psi2, c2) are isomorphic exactly
# when some bijection x -> alpha(x) + d with alpha in Aut(G) carries one
# operation into the other, i.e.
#
#   phi2 = alpha phi1 alpha^-1,  psi2 = alpha psi1 alpha^-1,
#   c2   = alpha(c1) + (1 - phi2 - psi2)(d).
#
# These maps form a group acting on raw triples (phi, psi, c); its orbits
# are the isomorphism classes.  classify_triples runs that single action
# over the exhaustive triple set.


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def _mmul(a, b, p):
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def _minv(a, p):
    det = (a[0] * a[3] - a[1] * a[2]) % p
    di = pow(det, -1, p)
    return (di * a[3] % p, -di * a[1] % p, -di * a[2] % p, di * a[0] % p)


def _mvec(a, v, p) -> tuple[int, int]:
    return ((a[0] * v[0] + a[1] * v[1]) % p, (a[2] * v[0] + a[3] * v[1]) % p)


@dataclass
class TripleClassification:
    group: GroupDescriptor
    partition: OrbitPartition
    count: int
    representatives: tuple[AffineForm, ...]

    def orbit_of(self, form: AffineForm) -> int:
        return self.partition.index[encode_triple(form)]


def encode_triple(form: AffineForm) -> tuple:
    """The form as a raw triple: ints over Z_{p^k}, entry tuples over Z_p x Z_p."""
    return (form.phi, form.psi, form.c)


def decode_triple(group: GroupDescriptor, triple: tuple) -> AffineForm:
    return AffineForm(group, *triple)


def _cyclic_spec(group: CyclicGroup, with_elements: bool) -> ActionSpec:
    n = group.modulus.n
    units = unit_group(group.modulus)
    by_square = {}
    for u in units:
        by_square.setdefault(u * u % n, []).append(u)
    points = [
        (phi, psi, c)
        for phi in units
        for psi in by_square[phi * phi % n]
        for c in range(n)
    ]

    def act(g, t):
        u, d = g
        phi, psi, c = t
        return (phi, psi, (u * c + (1 - phi - psi) * d) % n)

    def compose(g, h):  # (g o h) as maps x -> ux + d
        return (g[0] * h[0] % n, (g[0] * h[1] + g[1]) % n)

    elements = [(u, d) for u in units for d in range(n)] if with_elements else None
    generators = [(u, 0) for u in units] + [(1, 1)]
    return ActionSpec(
        points=points,
        act=act,
        compose=compose,
        identity=(1, 0),
        elements=elements,
        generators=generators,
        order=len(units) * n,
    )


def _elem2_spec(group: ElemAbelian2Group, with_elements: bool) -> ActionSpec:
    p = group.p
    gl = [
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a * d - b * c) % p != 0
    ]
    by_square = {}
    for m in gl:
        by_square.setdefault(_mmul(m, m, p), []).append(m)
    points = [
        (phi, psi, (cx, cy))
        for phi in gl
        for psi in by_square[_mmul(phi, phi, p)]
        for cx in range(p)
        for cy in range(p)
    ]

    def act(g, t):
        alpha, alpha_inv, d = g
        phi, psi, c = t
        phi2 = _mmul(_mmul(alpha, phi, p), alpha_inv, p)
        psi2 = _mmul(_mmul(alpha, psi, p), alpha_inv, p)
        c2 = _mvec(alpha, c, p)
        if d != (0, 0):
            m = (
                1 - phi2[0] - psi2[0],
                -phi2[1] - psi2[1],
                -phi2[2] - psi2[2],
                1 - phi2[3] - psi2[3],
            )
            w = _mvec(m, d, p)
            c2 = ((c2[0] + w[0]) % p, (c2[1] + w[1]) % p)
        return (phi2, psi2, c2)

    def compose(g, h):
        alpha = _mmul(g[0], h[0], p)
        alpha_inv = _mmul(h[1], g[1], p)
        d = _mvec(g[0], h[2], p)
        d = ((d[0] + g[2][0]) % p, (d[1] + g[2][1]) % p)
        return (alpha, alpha_inv, d)

    ident = (1, 0, 0, 1)
    gens_mat = [(1, 1, 0, 1), (1, 0, 1, 1)]
    if p > 2:
        gens_mat.append((_primitive_root(p), 0, 0, 1))
    generators = [(m, _minv(m, p), (0, 0)) for m in gens_mat]
    generators += [(ident, ident, (1, 0)), (ident, ident, (0, 1))]
    elements = None
    if with_elements:
        elements = [
            (m, _minv(m, p), (dx, dy)) for m in gl for dx in range(p) for dy in range(p)
        ]
    return ActionSpec(
        points=points,
        act=act,
        compose=compose,
        identity=(ident, ident, (0, 0)),
        elements=elements,
        generators=generators,
        order=len(gl) * p * p,
    )


def triple_action_spec(group: GroupDescriptor, with_elements: bool = False) -> ActionSpec:
    """The isomorphism action on all valid triples (phi, psi, c) over G."""
    if isinstance(group, CyclicGroup):
        return _cyclic_spec(group, with_elements)
    return _elem2_spec(group, with_elements)


def classify_triples(
    group: GroupDescriptor,
    max_order: int = 25,
    max_points: int = DEFAULT_MAX_POINTS,
) -> TripleClassification:
    """Isomorphism classes of paramedial quasigroups affine over G.

    Counts orbits of the isomorphism action on the exhaustive triple set
    and returns the lexicographically least triple of each orbit as its
    canonical representative.
    """
    if group.order > max_order:
        raise ResourceLimitError(f"|G| = {group.order} exceeds the bound {max_order}")
    spec = triple_action_spec(group)
    part = orbits(spec, max_points=max_points)
    reps = tuple(decode_triple(group, t) for t in part.representatives)
    return TripleClassification(group=group, partition=part, count=len(reps), representatives=reps)


# -- raw Cayley-table isomorphism ---------------------------------------------


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _signature(table) -> list[tuple]:
    n = len(table)
    diag_indeg = [0] * n
    for x in range(n):
        diag_indeg[table[x][x]] += 1
    sigs = []
    for x in range(n):
        sigs.append(
            (
                _cycle_type(table[x]),
                _cycle_type([row[x] for row in table]),
                table[x][x] == x,
                diag_indeg[x],
            )
        )
    return sigs


def _division_tables(table):
    n = len(table)
    left = [[0] * n for _ in range(n)]  # left[a][c] = b with a*b = c
    right = [[0] * n for _ in range(n)]  # right[b][c] = a with a*b = c
    for a in range(n):
        for b in range(n):
            c = table[a][b]
            left[a][c] = b
            right[b][c] = a
    return left, right


def table_isomorphic(t1: QuasigroupTable, t2: QuasigroupTable, max_order: int = 9) -> bool:
    """Whether a bijection s exists with s(x*y) = s(x) o s(y).

    Backtracking over images of a few seed elements; every partial
    assignment is closed under products and both divisions, which forces
    the rest of the map, and candidates are pruned by row/column cycle
    types and the multiset profile of the diagonal x*x.
    """
    if t1.n != t2.n:
        return False
    n = t1.n
    if n > max_order:
        raise ResourceLimitError(f"order {n} exceeds the bound {max_order}")
    if n == 0:
        return True
    a, b = t1.rows, t2.rows
    sig1, sig2 = _signature(a), _signature(b)
    if sorted(sig1) != sorted(sig2):
        return False
    la, ra = _division_tables(a)
    lb, rb = _division_tables(b)
    candidates = [[v for v in range(n) if sig2[v] == sig1[x]] for x in range(n)]

    def close(sigma: dict, used: set, fresh: list) -> bool:
        # Propagate forced images through *, \ and / until stable.
        while fresh:
            x = fresh.pop()
            for y in list(sigma):
                for (u, v) in ((x, y), (y, x)):
                    trios = (
                        (a[u][v], b[sigma[u]][sigma[v]]),
                        (la[u][v], lb[sigma[u]][sigma[v]]),
                        (ra[u][v], rb[sigma[u]][sigma[v]]),
                    )
                    for w, w2 in trios:
                        if w in sigma:
                            if sigma[w] != w2:
                                return False
                        else:
                            if w2 in used or sig2[w2] != sig1[w]:
                                return False
                            sigma[w] = w2
                            used.add(w2)
                            fresh.append(w)
        return True

    def extend(sigma: dict, used: set) -> bool:
        if len(sigma) == n:
            return all(
                sigma[a[x][y]] == b[sigma[x]][sigma[y]] for x in range(n) for y in range(n)
            )
        x = min((v for v in range(n) if v not in sigma), key=lambda v: len(candidates[v]))
        for img in candidates[x]:
            if img in used:
                continue
            sigma2 = dict(sigma)
            used2 = set(used)
            sigma2[x] = img
            used2.add(img)
            if close(sigma2, used2, [x]) and extend(sigma2, used2):
                return True
        return False

    return extend({}, set())


# -- the paramedial identity on explicit tables -------------------------------


def satisfies_paramedial_identity(table: QuasigroupTable) -> bool:
    """Exhaustive check of (x*y)*(u*v) = (v*y)*(u*x) over all n^4 quadruples.

    Works on any magma, latin or not, and shares nothing with the
    affine-recovery test ``affine.is_paramedial``, which it is the
    reference for.  Vectorized with one n^3 slab per x so memory stays
    cubic; numpy is imported here so importing the package stays light.
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


# -- congruences on explicit tables -------------------------------------------


def principal_congruence(table: QuasigroupTable, a: int, b: int) -> tuple[int, ...]:
    """Smallest congruence identifying a and b, as a class-id vector.

    Union-find closure: whenever two classes merge, products against all
    elements are merged as well.  On a finite quasigroup the result is
    automatically compatible with both divisions.
    """
    t = table.rows
    n = table.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for z in range(n):
            queue.append((t[x][z], t[y][z]))
            queue.append((t[z][x], t[z][y]))
    roots = [find(x) for x in range(n)]
    relabel = {}
    return tuple(relabel.setdefault(r, len(relabel)) for r in roots)


def table_is_simple(table: QuasigroupTable, max_order: int = 9) -> bool:
    """Simplicity by exhaustive principal-congruence search."""
    if table.n > max_order:
        raise ResourceLimitError(f"order {table.n} exceeds the bound {max_order}")
    for a in range(table.n):
        for b in range(a + 1, table.n):
            if max(principal_congruence(table, a, b)) > 0:
                return False
    return True


def partition_from_subgroup(group: GroupDescriptor, subgroup: Sequence[int]) -> tuple[int, ...]:
    """Class-id vector of the coset partition x ~ y iff x - y in N."""
    n = group.order
    class_of = {}
    ids = [0] * n
    for x in range(n):
        rep = min(group.add(x, e) for e in subgroup)
        ids[x] = class_of.setdefault(rep, len(class_of))
    return tuple(ids)


def is_congruence(table: QuasigroupTable, class_ids: Sequence[int]) -> bool:
    """Whether the partition is compatible with the table's operation."""
    t = table.rows
    n = table.n
    classes: dict[int, list[int]] = {}
    for x, c in enumerate(class_ids):
        classes.setdefault(c, []).append(x)
    for members in classes.values():
        x0 = members[0]
        for x in members[1:]:
            for z in range(n):
                if class_ids[t[x0][z]] != class_ids[t[x][z]]:
                    return False
                if class_ids[t[z][x0]] != class_ids[t[z][x]]:
                    return False
    return True


def simple_via_subgroup_congruences(form: AffineForm) -> bool:
    """Table-level simplicity oracle: no proper subgroup's coset partition
    is a congruence of the materialized table."""
    from .affine import materialize, proper_subgroups

    table = materialize(form)
    for sub in proper_subgroups(form.group):
        if is_congruence(table, partition_from_subgroup(form.group, sub)):
            return False
    return True


def classify_tables(tables: Sequence[QuasigroupTable], max_order: int = 9) -> list[int]:
    """Partition explicit tables into isomorphism classes; returns class ids."""
    reps: list[QuasigroupTable] = []
    ids = []
    for t in tables:
        for i, r in enumerate(reps):
            if table_isomorphic(t, r, max_order=max_order):
                ids.append(i)
                break
        else:
            ids.append(len(reps))
            reps.append(t)
    return ids
