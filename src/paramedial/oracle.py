"""Brute-force ground truth: group actions, orbit partitions, isomorphism.

Nothing in here knows about the structured case analysis used by the
enumerators; it classifies by raw orbit computation and raw table
search so the two routes stay independent.

Aut(G) and G are described once, by ``_automorphisms``: the elements of
Aut(G) in increasing order, a generating set, and the arithmetic of the
action.  Over Z_p x Z_p that arithmetic is the oracle's own 2x2 kernel
rather than ``modring``'s ``mat_mul``/``mat_inv``/``mat_vec``, although
both work on the same (a, b, c, d) tuples: this module is the reference
the enumerators are checked against, and a kernel shared with them could
hide one bug on both sides.

The isomorphism classes of affine triples (phi, psi, c) are found two
ways, both from that one description.  A triple is in the shape of an
enumerator row's first three fields, and each class comes back as its
least triple, raw: every triple is built from ``_pairs`` and the points
of G, so it needs no check.
``classify_triples`` takes the orbits on the whole triple set at once; it
is the reference.
``classify_two_stage``, which ``verify`` runs, splits the action as a
semidirect product: first the orbits of Aut(G) on the pairs (phi, psi),
with a transporter from each pair to the least pair of its orbit, then
the orbits of the constants c under the stabilizer of each least pair
and the translations.  Both are brute force, by closure under generators
and by filtering Aut(G).

Explicit Cayley tables are compared by ``table_isomorphic``, a raw
backtracking search for a bijection.  ``classify_tables`` first buckets
the tables by an isomorphism invariant (the order and the sorted
row/column cycle types and diagonal profile), computed once per table,
then runs that search only between a table and the earlier class
representatives in its bucket; every match is still decided by the search.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Sequence

from .affine import AffineForm, CyclicGroup, GroupDescriptor, QuasigroupTable
from .modring import unit_group

DEFAULT_MAX_POINTS = 10**7


class ResourceLimitError(RuntimeError):
    """A configured size or memory budget would be exceeded."""


class ActionSpec:
    """A finite group action, explicit enough to enumerate orbits.

    ``generators`` may be a proper generating subset; orbit traversal
    only ever applies generators.  ``elements`` is needed for the
    Burnside count and may be omitted for large groups if ``order`` is
    given.
    """

    def __init__(
        self,
        points: Sequence,
        act: Callable[[object, object], object],
        compose: Callable[[object, object], object],
        identity: object,
        elements: Sequence | None = None,
        generators: Sequence | None = None,
        order: int | None = None,
    ):
        self.points = points
        self.act = act
        self.compose = compose
        self.identity = identity
        self.elements = elements
        self.generators = generators
        self.order = order

    def group_order(self) -> int:
        if self.order is not None:
            return self.order
        if self.elements is not None:
            return len(self.elements)
        raise ValueError("ActionSpec needs either order or elements")

    def generating_set(self) -> Sequence:
        if self.generators is not None:
            return self.generators
        if self.elements is not None:
            return self.elements
        raise ValueError("ActionSpec needs either generators or elements")


class OrbitPartition:
    def __init__(
        self,
        orbits: tuple[tuple, ...],
        representatives: tuple,
        stabilizer_orders: tuple[int, ...],
        group_order: int,
        index: dict,
    ):
        self.orbits = orbits
        self.representatives = representatives
        self.stabilizer_orders = stabilizer_orders
        self.group_order = group_order
        self.index = index

    @property
    def count(self) -> int:
        return len(self.orbits)


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


# Aut(G) and G, as both classifiers use them:
#   elements    Aut(G), in increasing order
#   generators  automorphisms that generate Aut(G)
#   identity    the identity of Aut(G); mul and inv its product and inverse
#   apply       an endomorphism of G applied to an element
#   add         the addition of G
#   points      G, in increasing order, from 0
#   basis       elements that generate G
#   one_minus   (phi, psi) -> the endomorphism 1 - phi - psi
_Automorphisms = namedtuple(
    "_Automorphisms", "elements generators identity mul inv apply add points basis one_minus"
)


def _unit_generators(units: Sequence[int], n: int) -> list[int]:
    """The units of Z_n, taken in increasing order, that each lie outside
    the subgroup generated by those kept before them."""
    kept: list[int] = []
    subgroup = {1}
    for u in units:
        if u not in subgroup:
            kept.append(u)
            grown, power = set(subgroup), u
            while power not in subgroup:  # abelian: <H, u> is the union of the cosets H u^i
                grown.update(h * power % n for h in subgroup)
                power = power * u % n
            subgroup = grown
    return kept


def _automorphisms(group: GroupDescriptor) -> _Automorphisms:
    if isinstance(group, CyclicGroup):
        n = group.modulus.n
        units = unit_group(group.modulus)
        return _Automorphisms(
            elements=units,
            generators=_unit_generators(units, n),
            identity=1,
            mul=lambda a, b: a * b % n,
            inv=lambda a: pow(a, -1, n),
            apply=lambda a, x: a * x % n,
            add=lambda x, y: (x + y) % n,
            points=range(n),
            basis=[1],
            one_minus=lambda phi, psi: (1 - phi - psi) % n,
        )
    p = group.p

    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % p,
            (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p,
            (a[2] * b[1] + a[3] * b[3]) % p,
        )

    def inv(a):
        di = pow(a[0] * a[3] - a[1] * a[2], -1, p)
        return (di * a[3] % p, -di * a[1] % p, -di * a[2] % p, di * a[0] % p)

    def apply(a, v):
        return ((a[0] * v[0] + a[1] * v[1]) % p, (a[2] * v[0] + a[3] * v[1]) % p)

    def one_minus(phi, psi):
        return (
            (1 - phi[0] - psi[0]) % p,
            (-phi[1] - psi[1]) % p,
            (-phi[2] - psi[2]) % p,
            (1 - phi[3] - psi[3]) % p,
        )

    # The two elementary transvections generate SL(2,p); diag(u, 1) adds the determinants.
    diagonal = [(u, 0, 0, 1) for u in _unit_generators(range(1, p), p)]
    return _Automorphisms(
        elements=[m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p],
        generators=[(1, 1, 0, 1), (1, 0, 1, 1)] + diagonal,
        identity=(1, 0, 0, 1),
        mul=mul,
        inv=inv,
        apply=apply,
        add=lambda u, v: ((u[0] + v[0]) % p, (u[1] + v[1]) % p),
        points=list(itertools.product(range(p), repeat=2)),
        basis=[(1, 0), (0, 1)],
        one_minus=one_minus,
    )


def _pairs(aut: _Automorphisms) -> list:
    """Every pair (phi, psi) of automorphisms with phi^2 = psi^2, in increasing order."""
    by_square: dict = {}
    for a in aut.elements:
        by_square.setdefault(aut.mul(a, a), []).append(a)
    return [(phi, psi) for phi in aut.elements for psi in by_square[aut.mul(phi, phi)]]


def triple_action_spec(group: GroupDescriptor, with_elements: bool = False) -> ActionSpec:
    """The isomorphism action on all valid triples (phi, psi, c) over G.

    A group element is (alpha, alpha^-1, d), the map x -> alpha(x) + d.
    """
    aut = _automorphisms(group)
    mul, apply, add, one_minus = aut.mul, aut.apply, aut.add, aut.one_minus
    zero = aut.points[0]

    def act(g, t):
        alpha, alpha_inv, d = g
        phi, psi, c = t
        phi2 = mul(mul(alpha, phi), alpha_inv)
        psi2 = mul(mul(alpha, psi), alpha_inv)
        c2 = apply(alpha, c)
        if d != zero:
            c2 = add(c2, apply(one_minus(phi2, psi2), d))
        return (phi2, psi2, c2)

    def compose(g, h):
        return (mul(g[0], h[0]), mul(h[1], g[1]), add(apply(g[0], h[2]), g[2]))

    ident = aut.identity
    elements = None
    if with_elements:
        elements = [(a, aut.inv(a), d) for a in aut.elements for d in aut.points]
    return ActionSpec(
        points=[(phi, psi, c) for phi, psi in _pairs(aut) for c in aut.points],
        act=act,
        compose=compose,
        identity=(ident, ident, zero),
        elements=elements,
        generators=[(g, aut.inv(g), zero) for g in aut.generators] + [(ident, ident, e) for e in aut.basis],
        order=len(aut.elements) * len(aut.points),
    )


def classify_triples(
    group: GroupDescriptor,
    max_order: int = 25,
    max_points: int = DEFAULT_MAX_POINTS,
) -> OrbitPartition:
    """Isomorphism classes of paramedial quasigroups affine over G.

    The orbits of the isomorphism action on the exhaustive triple set;
    the lexicographically least triple of each orbit is its canonical
    representative.
    """
    if group.order > max_order:
        raise ResourceLimitError(f"|G| = {group.order} exceeds the bound {max_order}")
    return orbits(triple_action_spec(group), max_points=max_points)


# -- the same classes in two stages -------------------------------------------
#
# The isomorphism action is a semidirect product: alpha acts on the pairs
# (phi, psi) by conjugation alone, and the maps that fix a pair are its
# stabilizer in Aut(G) together with the translations by Im(1 - phi - psi),
# which move c only.  So an orbit of triples is one orbit of pairs with one
# orbit of constants at the pair's least point, and its least triple is
# that least pair with the least constant of that orbit.


class StagedClassification:
    """The classes of ``classify_triples``, found in two stages.

    ``representatives`` holds the least triple (phi, psi, c) of each class,
    in increasing order; ``pairs`` maps each pair (phi, psi) to the least
    pair of its orbit and a transporter beta in Aut(G) with
    beta (phi, psi) beta^-1 equal to that least pair; ``constants`` maps
    each least pair to the class index of every constant c there.
    """

    def __init__(self, representatives: tuple, pairs: dict, constants: dict, apply: Callable[[object, object], object]):
        self.representatives = representatives
        self.pairs = pairs
        self.constants = constants
        self.apply = apply

    @property
    def count(self) -> int:
        return len(self.representatives)

    def orbit_of(self, phi, psi, c) -> int | None:
        """The class of (phi, psi, c), that of (phi0, psi0, beta(c)); None
        for a triple outside the classified set, such as an unreduced one."""
        pair, beta = self.pairs.get((phi, psi), (None, None))
        index = self.constants.get(pair, {})  # keyed by every point of G
        return index[self.apply(beta, c)] if c in index else None


def classify_two_stage(group: GroupDescriptor, max_order: int = 25) -> StagedClassification:
    """The classes of ``classify_triples``, with the same representatives
    in the same order, without acting on every triple.

    Stage 1 takes the orbits of Aut(G) conjugation on the pairs (phi, psi)
    with phi^2 = psi^2 by closing under generators from each orbit's least
    pair, and records on the way, as in a Schreier tree, a transporter from
    every pair to that least pair.  Stage 2 finds the stabilizer of each
    least pair by filtering Aut(G) for the elements that commute with phi
    and with psi.  With the translations T = Im(1 - phi - psi) it moves c
    to exactly the constants alpha(c) + t, so the orbit of c is stab(c) + T.
    """
    if group.order > max_order:
        raise ResourceLimitError(f"|G| = {group.order} exceeds the bound {max_order}")
    aut = _automorphisms(group)
    mul = aut.mul
    generators = [(g, aut.inv(g)) for g in aut.generators]

    # Seeds come in increasing order, so each orbit is entered at its least pair.
    pairs: dict = {}
    least: list = []
    for seed in _pairs(aut):
        if seed in pairs:
            continue
        least.append(seed)
        pairs[seed] = (seed, aut.identity)
        frontier = [seed]
        while frontier:
            phi, psi = x = frontier.pop()
            beta = pairs[x][1]
            for g, g_inv in generators:
                y = (mul(mul(g, phi), g_inv), mul(mul(g, psi), g_inv))
                if y not in pairs:
                    pairs[y] = (seed, mul(beta, g_inv))
                    frontier.append(y)

    centralizers: dict = {}
    constants: dict = {}
    reps: list = []
    for phi, psi in least:
        if phi not in centralizers:
            centralizers[phi] = [a for a in aut.elements if mul(a, phi) == mul(phi, a)]
        stab = [a for a in centralizers[phi] if mul(a, psi) == mul(psi, a)]
        m = aut.one_minus(phi, psi)
        translations = {aut.apply(m, x) for x in aut.points}
        index = constants[phi, psi] = {}
        for c in aut.points:  # in increasing order: c is the least of its orbit
            if c not in index:
                for u in {aut.apply(a, c) for a in stab}:
                    if u not in index:  # a coset u + T not yet met
                        index.update(dict.fromkeys((aut.add(u, t) for t in translations), len(reps)))
                reps.append((phi, psi, c))
    return StagedClassification(representatives=tuple(reps), pairs=pairs, constants=constants, apply=aut.apply)


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
    cubic; numpy, needed only by the tests, is imported here alone.
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
    """Partition explicit tables into isomorphism classes; returns class ids.

    Classes are numbered in order of first sighting, and a table joins the
    first earlier representative it is isomorphic to.  Each table's order
    and sorted ``_signature`` are computed once as its bucket key; they are
    invariant under isomorphism (``table_isomorphic`` rejects a pair whose
    keys differ), so only the representatives in a table's own bucket can
    match it, and the raw search is run against those alone.
    """
    for t in tables:
        if t.n > max_order:
            raise ResourceLimitError(f"a table of order {t.n} exceeds the bound {max_order}")
    buckets: dict = {}  # key -> [(class id, representative)], in order of sighting
    ids = []
    classes = 0
    for t in tables:
        bucket = buckets.setdefault((t.n, tuple(sorted(_signature(t.rows)))), [])
        for i, r in bucket:
            if table_isomorphic(t, r, max_order=max_order):
                ids.append(i)
                break
        else:
            ids.append(classes)
            bucket.append((classes, t))
            classes += 1
    return ids
