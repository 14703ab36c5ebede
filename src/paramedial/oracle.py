"""Brute-force ground truth: group actions, orbit partitions, isomorphism.

Nothing in here knows about the structured case analysis used by the
enumerators; it classifies by raw orbit computation and raw table
relabelling so the two routes stay independent.

Aut(G) and G are described once, by ``_automorphisms``: the elements of
Aut(G) in increasing order, a generating set, and the arithmetic of the
action, over Z_p x Z_p the oracle's own 2x2 kernel rather than
``modring``'s: a kernel shared with the enumerators could hide one bug on
both sides.

The isomorphism classes of affine triples (phi, psi, c) are found two
ways from that one description, each class as its least triple, raw
(built from ``_roots`` and the points of G, so it needs no check).
``classify_triples``, the reference, takes the orbits on the whole triple
set at once.  ``classify_two_stage``, which ``verify`` runs, splits the
action as a semidirect product and walks Schreier trees (Holt, Eick &
O'Brien, Handbook of Computational Group Theory, section 4.1): the
conjugacy classes of Aut(G), then per class the orbits of a centralizer
on roots, then the orbits of a stabilizer on the cosets of the
translations.  Each checks the closed form of its cost,
|Aff(G)| = |Aut(G)| * |G|, against its own bound before any work.

The explicit-table layer takes quasigroups only: ``table_isomorphic``,
``classify_tables`` and ``table_is_simple`` raise ``ValueError`` for a
table that is not latin.  Isomorphism has one mechanism, a canonical
form: label the elements in the order in which closure under the product
reaches them from a shortest generating tuple, and keep the least
relabelled table, pruning the tuples by the automorphisms found on the
way.  ``table_isomorphic`` compares two forms; ``classify_tables``
computes one per table and numbers the distinct ones.  The search takes
the seeds one size k at a time, and before it tries any seed of size k
it holds their cost, n^2 for each of the seeds of up to k elements, to
``MAX_FORM_COST``.  It stops at the smallest k that generates, at most
log2(n) + 1, and that k is the same for isomorphic tables, so whether a
table is refused depends on its class alone.  ``table_is_simple`` asks
whether the principal congruences Cg(0, x) are all total; it is the
table-level reference for ``affine.is_simple``, its O(n^3) cost bounded
by the order.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from operator import itemgetter

from .affine import CyclicGroup, GroupDescriptor, QuasigroupTable, ResourceLimitError, is_latin
from .modring import unit_group

MAX_POINTS = 10**7  # orbits: points of the action at most
REFERENCE_MAX_AFFINE_ORDER = 2**14  # classify_triples: |Aff(G)| = |Aut(G)| * |G| at most
MAX_AFFINE_ORDER = 2**19  # classify_two_stage: the same at most
TABLE_SIMPLE_MAX_ORDER = 128  # table_is_simple: order of the table at most
MAX_FORM_COST = 2**24  # _canonical_form: n^2 * (the seeds of size at most k) at most


class ActionSpec:
    """A finite group action, explicit enough to enumerate its orbits: the
    points, ``act(g, x)``, and ``generators`` of the group, which may be a
    proper generating subset, since orbit traversal only ever applies
    generators.  Mutable, so a tracer may swap ``act`` for a counting one."""

    def __init__(self, points: Sequence, act: Callable[[object, object], object], generators: Sequence):
        self.points = points
        self.act = act
        self.generators = generators


class OrbitPartition(namedtuple("OrbitPartition", "orbits representatives index")):
    """The orbits, each a sorted tuple, in the order of their least points,
    those least points, and each point mapped to the number of its orbit."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbits(spec: ActionSpec) -> OrbitPartition:
    """Exact orbit partition of the point set under the action.

    Representatives are the least point of each orbit; orbits are listed
    in representative order.  The computation is a plain closure under
    the generators, so it is deterministic regardless of how the point
    set was ordered; it needs neither the group's elements nor its order.
    """
    points = list(spec.points)
    if len(points) > MAX_POINTS:
        raise ResourceLimitError(f"{len(points)} points exceed the budget of {MAX_POINTS}")
    point_set = set(points)

    seen: set = set()
    orbit_lists: list[tuple] = []
    for seed in points:
        if seed in seen:
            continue
        members, frontier = {seed}, [seed]
        while frontier:
            x = frontier.pop()
            for g in spec.generators:
                y = spec.act(g, x)
                if y not in members:
                    if y not in point_set:
                        raise ValueError(f"action leaves the point set at {y!r}")
                    members.add(y)
                    frontier.append(y)
        seen |= members
        orbit_lists.append(tuple(sorted(members)))

    orbit_lists.sort(key=lambda orb: orb[0])
    index = {pt: i for i, orb in enumerate(orbit_lists) for pt in orb}
    return OrbitPartition(tuple(orbit_lists), tuple(orb[0] for orb in orbit_lists), index)


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
#   cosets      an endomorphism m -> the map from each point c to the least
#               point of c + Im(m), and those least points in increasing order
_Automorphisms = namedtuple(
    "_Automorphisms", "elements generators identity mul inv apply add points basis one_minus cosets"
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
            cosets=lambda m: (lambda c, d=math.gcd(m, n): c % d, range(math.gcd(m, n))),  # Im(m) = gcd(m, n) Z_n
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

    points = list(itertools.product(range(p), repeat=2))

    def cosets(m):  # Im(m) is G, or the line through a column (u, v) != 0, or 0
        if (m[0] * m[3] - m[1] * m[2]) % p:
            return (lambda c: (0, 0)), [(0, 0)]
        u, v = (m[0], m[2]) if m[0] or m[2] else (m[1], m[3])
        if u:  # each coset meets the points (0, y) once
            r = v * pow(u, -1, p)
            return (lambda c: (0, (c[1] - c[0] * r) % p)), [(0, y) for y in range(p)]
        if v:  # the cosets are the points (x, y) of one x
            return (lambda c: (c[0], 0)), [(x, 0) for x in range(p)]
        return (lambda c: c), points

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
        points=points,
        basis=[(1, 0), (0, 1)],
        one_minus=one_minus,
        cosets=cosets,
    )


def _roots(aut: _Automorphisms) -> dict:
    """Each square of an automorphism, mapped to its roots in increasing order."""
    by_square: dict = {}
    for a in aut.elements:
        by_square.setdefault(aut.mul(a, a), []).append(a)
    return by_square


def triple_action_spec(group: GroupDescriptor) -> ActionSpec:
    """The isomorphism action on all valid triples (phi, psi, c) over G.

    A group element is (alpha, alpha^-1, d), the map x -> alpha(x) + d;
    the generators are those of Aut(G), with d = 0, and the translations
    by a basis of G, with alpha the identity.
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

    ident, by_square = aut.identity, _roots(aut)
    return ActionSpec(  # phi^2 = psi^2, in increasing order
        points=[(phi, psi, c) for phi in aut.elements for psi in by_square[mul(phi, phi)] for c in aut.points],
        act=act,
        generators=[(g, aut.inv(g), zero) for g in aut.generators] + [(ident, ident, e) for e in aut.basis],
    )


def _affine_order(group: GroupDescriptor) -> int:
    """|Aut(G)| * |G| in closed form: Aut(G) is the n - n/p units of Z_n
    for n = p^k, or GL(2, p), of order (n - 1)(n - p) for n = p^2."""
    n = group.order
    if isinstance(group, CyclicGroup):
        return n * (n - n // group.modulus.p)
    return n * (n - 1) * (n - group.p)


def _require_affine_order(group: GroupDescriptor, bound: int) -> None:
    """Refuse, before ``_automorphisms`` builds anything, a G with |Aff(G)| above `bound`."""
    if (size := _affine_order(group)) > bound:
        raise ResourceLimitError(f"|Aff({group.describe()})| = {size} exceeds the oracle's bound {bound}")


def classify_triples(group: GroupDescriptor) -> OrbitPartition:
    """Isomorphism classes of paramedial quasigroups affine over G.

    The orbits of the isomorphism action on the exhaustive triple set;
    the lexicographically least triple of each orbit is its canonical
    representative.  Every G of order at most 27 is within its bound.
    """
    _require_affine_order(group, REFERENCE_MAX_AFFINE_ORDER)
    return orbits(triple_action_spec(group))


# -- the same classes in two stages, by Schreier trees --------------------------


def _conjugation_trees(points, generators, mul, identity) -> tuple[dict, dict]:
    """Schreier trees of conjugation by ``generators``, pairs (g, g^-1), on
    ``points`` in increasing order, each orbit entered at its least point x0:
    x maps to (x0, b, b^-1) with b x b^-1 = x0, x0 to the edges (x, g, g^-1,
    y = g x g^-1) outside its tree."""
    tree, edges = {}, {}
    for seed in points:
        if seed not in tree:
            tree[seed], edges[seed], frontier = (seed, identity, identity), [], [seed]
            for x in frontier:
                _, b, b_inv = tree[x]
                for g, g_inv in generators:
                    y = mul(mul(g, x), g_inv)
                    if y in tree:
                        edges[seed].append((x, g, g_inv, y))
                    else:
                        tree[y] = (seed, mul(b, g_inv), mul(g, b_inv))
                        frontier.append(y)
    return tree, edges


def _schreier_generators(tree: dict, edges: list, mul, identity) -> list:
    """Generators (s, s^-1) of the stabilizer of an orbit's least point, by
    Schreier's lemma: s = b_y g b_x^-1 for each edge x -> y outside the
    tree (a tree edge gives the identity), each distinct s once."""
    found: dict = {}
    for x, g, g_inv, y in edges:
        (_, bx, bx_inv), (_, by, by_inv) = tree[x], tree[y]
        s = mul(mul(by, g), bx_inv)
        if s != identity and s not in found:
            found[s] = mul(mul(bx, g_inv), by_inv)
    return list(found.items())


class StagedClassification(namedtuple("StagedClassification", "representatives aut classes roots constants")):
    """The classes of ``classify_triples``, found in two stages: the least
    triple (phi, psi, c) of each, in increasing order, and the trees and
    coset indexes of ``classify_two_stage`` that ``orbit_of`` reads."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.representatives)

    def orbit_of(self, phi, psi, c) -> int | None:
        """The class of (phi, psi, c), that of (phi0, psi0, gamma beta (c)), or
        None for a triple outside the classified set, such as an unreduced one."""
        aut = self.aut
        if phi not in self.classes or psi not in self.classes or c not in aut.points:
            return None
        phi0, beta, beta_inv = self.classes[phi]
        root = self.roots[phi0].get(aut.mul(aut.mul(beta, psi), beta_inv))
        if root is None:  # psi^2 != phi^2
            return None
        least, index = self.constants[phi0, root[0]]
        return index[least(aut.apply(aut.mul(root[1], beta), c))]


def classify_two_stage(group: GroupDescriptor) -> StagedClassification:
    """The classes of ``classify_triples``, with the same representatives
    in the same order, without acting on every triple.

    alpha acts on the pairs (phi, psi) by conjugation, and a pair is fixed
    by its stabilizer and by the translations by T = Im(1 - phi - psi),
    which move c only.  Stage 1: a Schreier tree of the conjugacy classes
    of Aut(G), seeded in increasing order, gives every phi a transporter to
    the least phi0 of its class and generators of its centralizer; a tree
    of their action on the roots psi of phi0^2 gives transporters to the
    least psi0 of their orbits and generators of the stabilizer of the
    least pair (phi0, psi0).  Stage 2: the classes there are the orbits of
    those generators on the cosets of T, each named by its least point.
    """
    _require_affine_order(group, MAX_AFFINE_ORDER)
    aut = _automorphisms(group)
    mul, identity, by_square = aut.mul, aut.identity, _roots(aut)
    classes, class_edges = _conjugation_trees(aut.elements, [(g, aut.inv(g)) for g in aut.generators], mul, identity)
    roots, constants, reps = {}, {}, []
    for phi0, edges in class_edges.items():  # in increasing order
        centralizer = _schreier_generators(classes, edges, mul, identity)
        roots[phi0], root_edges = _conjugation_trees(by_square[mul(phi0, phi0)], centralizer, mul, identity)
        for psi0, edges in root_edges.items():
            least, cosets = aut.cosets(aut.one_minus(phi0, psi0))
            stabilizer = _schreier_generators(roots[phi0], edges, mul, identity) if len(cosets) > 1 else []
            index: dict = {}
            constants[phi0, psi0] = (least, index)
            for c in cosets:  # in increasing order: c is the least of its orbit
                if c not in index:
                    index[c], orbit = len(reps), [c]
                    for u in orbit:
                        for v in {least(aut.apply(s, u)) for s, _ in stabilizer} - index.keys():
                            index[v] = len(reps)
                            orbit.append(v)
                    reps.append((phi0, psi0, c))
    return StagedClassification(tuple(reps), aut, classes, roots, constants)


# -- raw Cayley-table isomorphism ---------------------------------------------


def _require_latin(table: QuasigroupTable) -> None:
    if not is_latin(table):
        raise ValueError(f"a table of order {table.n} is not latin, so not a quasigroup")


def _form_cost(n: int, k: int) -> int:
    """The cost bound of ``_canonical_form`` on a table of order n whose
    smallest generating seed has k elements: n^2 per seed, for every seed
    of at most k distinct elements, sum_{j=1..k} n!/(n-j)! of them."""
    return n * n * sum(math.perm(n, j) for j in range(1, k + 1))


def _check_quasigroup(table: QuasigroupTable) -> None:
    """A latin table whose one-element seeds cost at most ``MAX_FORM_COST``:
    that cost, n^3, depends on n alone, so it is checked before the table
    is read.  The larger seeds are held to the bound by ``_canonical_form``."""
    n = table.n
    if (cost := _form_cost(n, 1)) > MAX_FORM_COST:
        raise ResourceLimitError(
            f"a canonical form of order {n} costs at least {cost}, above the bound {MAX_FORM_COST}"
        )
    _require_latin(table)


def _canonical_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A complete isomorphism invariant of a quasigroup table.

    A seed is a tuple of distinct elements, labelled 0, 1, ... in order.
    Closure labels every other element when it is first reached: for the
    labels m = 0, 1, ... and b = 0, ..., m, the products x*y and y*x of the
    elements x, y labelled m, b.  A seed that reaches all n elements gives
    its relabelled table, read row by row; the form is the least of these
    over the seeds of the smallest size k that generate.  An isomorphism
    carries seeds to seeds and their labellings along, so isomorphic tables
    get equal forms, and a form is a table, so equal forms mean isomorphic
    tables.

    Before any seed of size k is tried, their cost ``_form_cost(n, k)`` is
    held to ``MAX_FORM_COST``, and a ``ResourceLimitError`` names k and that
    cost.  The search stops at the smallest k that generates, which
    isomorphic tables share, so whether a table is refused depends on its
    class alone.  A refusal at size k has spent at most
    ``_form_cost(n, k - 1)``, itself within the bound: the bound is still
    checked before the work it bounds, though a caller may have computed
    other forms before the refusal.  For a subquasigroup S and x outside
    it, S*x has |S| elements, none in S, so each generator added at least
    doubles what is generated and k <= log2(n) + 1, Miller's bound
    (G. L. Miller, "On the n^(log n) isomorphism technique", STOC 1978).

    Seeds are pruned by automorphisms, as McKay and Piperno prune
    (J. Symbolic Comput. 60, 2014).  Two seeds with equal forms differ by
    the automorphism mapping one labelling onto the other, which carries
    the seeds that start with x onto those that start with its image,
    with the same forms.  So a first element in the orbit of one already
    tried, under the automorphisms found so far, adds no form.
    """
    n = len(rows)
    if n < 2:  # () or ((0,),), whose one labelling is itself; itemgetter below needs two indices
        return tuple(itertools.chain.from_iterable(rows))
    columns = list(zip(*rows))
    for k in range(1, n + 1):
        if (cost := _form_cost(n, k)) > MAX_FORM_COST:
            raise ResourceLimitError(
                f"a canonical form of order {n} needs seeds of {k} elements, "
                f"which cost {cost}, above the bound {MAX_FORM_COST}"
            )
        best, orbit, tried = None, list(range(n)), []
        for first in range(n):
            if orbit[first] in {orbit[x] for x in tried}:
                continue
            tried.append(first)
            for rest in itertools.permutations([x for x in range(n) if x != first], k - 1):
                order = [first, *rest]
                label = [-1] * n
                for i, x in enumerate(order):
                    label[x] = i
                m = 0
                while m < len(order) < n:
                    row, column = rows[order[m]], columns[order[m]]
                    for y in order[: m + 1]:
                        for z in (row[y], column[y]):  # x*y, then y*x
                            if label[z] < 0:
                                label[z] = len(order)
                                order.append(z)
                    m += 1
                if len(order) < n:
                    continue
                get = itemgetter(*order)
                form = tuple(map(label.__getitem__, itertools.chain.from_iterable(map(get, map(rows.__getitem__, order)))))
                if best is None or form < best:
                    best, best_order = form, order
                elif form == best:  # best_order[i] -> order[i] is an automorphism
                    for x, y in zip(best_order, order):
                        if orbit[x] != orbit[y]:
                            orbit = [orbit[x] if o == orbit[y] else o for o in orbit]
                    if orbit[first] in {orbit[x] for x in tried[:-1]}:
                        break  # first's forms are those of one tried before
        if best is not None:
            return best
    raise AssertionError("the seed of all n elements generates")


def table_isomorphic(t1: QuasigroupTable, t2: QuasigroupTable) -> bool:
    """Whether a bijection s exists with s(x*y) = s(x) o s(y), for quasigroups
    (``ValueError`` for a table of equal order that is not latin): whether
    the two tables have the same ``_canonical_form``.  Both are checked to
    be latin, with n^3 within ``MAX_FORM_COST``, before either form is
    computed; the second form may still be refused at a larger seed size.
    """
    if t1.n != t2.n:
        return False
    _check_quasigroup(t1)
    _check_quasigroup(t2)
    return _canonical_form(t1.rows) == _canonical_form(t2.rows)


# -- congruences on explicit tables -------------------------------------------


def principal_congruence(table: QuasigroupTable, a: int, b: int) -> tuple[int, ...]:
    """Smallest congruence identifying a and b, as a class-id vector.

    Union-find closure: whenever two classes merge, products against all
    elements are merged as well, until one class is left.  On a finite
    quasigroup the result is automatically compatible with both divisions.
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
    classes = n
    while queue and classes > 1:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        classes -= 1
        queue += zip(t[x], t[y])
        queue += ((row[x], row[y]) for row in t)
    roots = [find(x) for x in range(n)]
    relabel = {}
    return tuple(relabel.setdefault(r, len(relabel)) for r in roots)


def table_is_simple(table: QuasigroupTable) -> bool:
    """Whether a quasigroup has no congruence but equality and the total one
    (``ValueError`` for a table that is not latin).

    In a finite quasigroup all classes of a congruence have the same size:
    if x*y = z, right translation by y maps x's class injectively into z's,
    and every z is some x*y.  So a congruence other than equality puts some
    x != 0 in the class of 0 and contains Cg(0, x): the table is simple
    exactly when each of the n - 1 principal congruences Cg(0, x) is total.
    """
    if table.n > TABLE_SIMPLE_MAX_ORDER:
        raise ResourceLimitError(f"a table of order {table.n} exceeds the bound {TABLE_SIMPLE_MAX_ORDER}")
    _require_latin(table)
    return all(max(principal_congruence(table, 0, x)) == 0 for x in range(1, table.n))


def classify_tables(tables: Sequence[QuasigroupTable]) -> list[int]:
    """Partition quasigroup tables into isomorphism classes; returns class ids.

    Every table is checked, as ``table_isomorphic`` checks its two, before
    any form is computed; a form refused at a larger seed size refuses the
    call after the forms before it.  Classes are numbered in order of first
    sighting, keyed by each table's order and ``_canonical_form``, one form
    per table.
    """
    for t in tables:
        _check_quasigroup(t)
    classes: dict = {}
    return [classes.setdefault((t.n, _canonical_form(t.rows)), len(classes)) for t in tables]
