"""Affine paramedial quasigroups and their Cayley tables.

A quasigroup is paramedial when it satisfies (x*y)*(u*v) = (v*y)*(u*x).
Every finite paramedial quasigroup is affine over an abelian group G:
its operation can be written x*y = phi(x) + psi(y) + c for automorphisms
phi, psi of G with phi^2 = psi^2 and a constant c.  This module builds
the quasigroup from such data, checks an explicit table by recovering
that affine form from it (O(n^2 log n); the n^4 identity check itself
lives with the tests as the reference), and decides simplicity in closed
form from phi and psi alone.  The table functions take O(n log n) Python steps
per table, each step over n entries a C-level itemgetter, map or slice.

Two underlying groups are supported: the cyclic group Z_{p^k} and the
rank-two elementary abelian group Z_p x Z_p.  Elements are encoded as
indices 0..n-1: a residue encodes as itself, and a vector (x, y) over
Z_p encodes as x*p + y.  Table equality and all file output depend on
this encoding, so it is fixed.  ``AffineForm`` is where affine data is
validated: over Z_{p^k} phi, psi and c are ints, over Z_p x Z_p a pair
of 4-tuples (row-major matrices) and a 2-tuple, all reduced on
construction; everything downstream relies on that.  The one exception
is the enumerators' rows, plain tuples (phi, psi, c, case, simple) in
that same shape, which ``cli enumerate`` renders and ``cli verify``
checks as they are, building no form.  Both enumerators return them as a
``Classification``, which checks the closed-form count against
``MAX_RECORDS`` before it draws a row, and whose ``records()`` and
``forms`` build checked objects from them on request.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, itemgetter, ne

from .modring import MAX_MODULUS, Mat2, Modulus, Value, Vec2, is_prime, mat_det, mat_mul, mat_vec, require_int

MAX_RECORDS = 2**20  # Classification: classes of the group at most


class ParamedialConditionError(ValueError):
    """Affine data whose automorphisms do not satisfy phi^2 = psi^2."""


class ResourceLimitError(RuntimeError):
    """A configured size or memory budget would be exceeded."""


class GroupDescriptor:
    """The base of the two group classes, each the one place that knows its
    kind: ``params()`` names it as json output and cache keys do,
    ``closed_count`` and ``rows`` reach its enumerator and ``dim`` counts
    an element's coordinates."""

    __slots__ = ()

    def describe(self) -> str:
        """The group as ``kind(p[,k])``, e.g. cyclic(3,2) or elem2(5)."""
        params = self.params()
        return f"{params.pop('kind')}({','.join(map(str, params.values()))})"


class CyclicGroup(GroupDescriptor, Value):
    """The cyclic group Z_{p^k} with elements encoded as 0..p^k-1."""

    __slots__ = ("modulus",)
    dim = 1

    def __init__(self, modulus: Modulus):
        self._set("modulus", modulus)

    @property
    def order(self) -> int:
        return self.modulus.n

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.modulus.n

    def apply(self, aut: int, x: int) -> int:
        return aut * x % self.modulus.n

    def images(self, aut: int) -> list[int]:
        """(aut(x) for x in 0..n-1)."""
        n = self.modulus.n
        return [aut * x % n for x in range(n)]

    @staticmethod
    @lru_cache(maxsize=4)
    def _translations(n: int) -> tuple[tuple[int, ...], ...]:
        doubled = tuple(range(n)) * 2
        return tuple(doubled[a : a + n] for a in range(n))

    def translations(self) -> tuple[tuple[int, ...], ...]:
        """The table of +, row a being (a + y for y in 0..n-1): slices of
        0..n-1 written twice, built once per n, as many entries as one
        materialized table has."""
        return self._translations(self.modulus.n)

    def encode(self, element: int) -> int:
        return element

    def params(self) -> dict:
        return {"kind": "cyclic", "p": self.modulus.p, "k": self.modulus.k}

    def closed_count(self, simple_only: bool = False) -> int:
        """The number of classes, or of simple ones: all when k = 1, none when k > 1."""
        from . import enum_cyclic  # through the module, whose globals a tracer may wrap

        if simple_only and self.modulus.k > 1:
            return 0
        return enum_cyclic.closed_form_count(self.modulus)

    def rows(self) -> tuple[tuple[int, int, int, str, bool], ...]:
        from . import enum_cyclic

        return enum_cyclic.enumerate_cyclic(self.modulus).rows


class ElemAbelian2Group(GroupDescriptor, Value):
    """The group Z_p x Z_p with (x, y) encoded as x*p + y."""

    __slots__ = ("p",)
    dim = 2

    def __init__(self, p: int):
        require_int("p", p)
        if p >= MAX_MODULUS:  # before the trial division of is_prime
            raise ValueError(f"p={p} exceeds the supported range (< 2^31)")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        self._set("p", p)

    @property
    def order(self) -> int:
        return self.p * self.p

    def add(self, x: int, y: int) -> int:
        p = self.p
        return (x // p + y // p) % p * p + (x % p + y % p) % p

    def apply(self, aut: Mat2, x: int) -> int:
        return self.encode(mat_vec(aut, divmod(x, self.p), self.p))

    def images(self, aut: Mat2) -> list[int]:
        """(aut(x) for x in 0..n-1), the encoded x = (u, v) in order."""
        p, (a, b, c, d) = self.p, aut
        return [(a * u + b * v) % p * p + (c * u + d * v) % p for u in range(p) for v in range(p)]

    @staticmethod
    @lru_cache(maxsize=4)
    def _translations(p: int) -> tuple[tuple[int, ...], ...]:
        n = p * p
        high, low = tuple(y - y % p for y in range(n)) * 2, tuple(range(p)) * (2 * p)
        return tuple(tuple(map(add, high[a - a % p : a - a % p + n], low[a % p : a % p + n])) for a in range(n))

    def translations(self) -> tuple[tuple[int, ...], ...]:
        """The table of +, row a being (a + y for y in 0..n-1): the encoded
        coordinates y - y % p and y % p of 0..n-1, each written twice,
        rotated by a's as slices and added, built once per p."""
        return self._translations(self.p)

    def encode(self, element: Vec2) -> int:
        return element[0] * self.p + element[1]

    def params(self) -> dict:
        return {"kind": "elem2", "p": self.p}

    def closed_count(self, simple_only: bool = False) -> int:
        """The number of classes, or of simple ones."""
        from . import enum_cyclic

        return (enum_cyclic.simple_closed_count if simple_only else enum_cyclic.gl2_closed_count)(self.p)

    def rows(self) -> tuple[tuple[Mat2, Mat2, Vec2, str, bool], ...]:
        from . import enum_gl2

        return enum_gl2.enumerate_gl2(self.p).rows


class AffineForm(Value):
    """One isomorphism-class representative (G, phi, psi, c).

    Over Z_{p^k}, phi and psi are units u (the automorphisms x -> u x)
    and c is an element, all plain ints; over Z_p x Z_p they are 4-tuples
    (a, b, c, d) of ints, the matrices ((a,b),(c,d)), and a 2-tuple of
    ints.  Construction reduces every entry mod p^k or p (a value of the
    wrong type or arity, a bool included, raises TypeError), checks that
    phi and psi are invertible (ValueError) and that phi^2 = psi^2;
    violating the latter raises ParamedialConditionError so the
    paramedial invariant is structural.
    """

    __slots__ = ("group", "phi", "psi", "c")

    def __init__(self, group: GroupDescriptor, phi: int | Mat2, psi: int | Mat2, c: int | Vec2):
        if isinstance(group, CyclicGroup):
            m = group.modulus
            if not (type(phi) is int and type(psi) is int and type(c) is int):
                raise TypeError("cyclic forms take int automorphisms and constant")
            n = m.n
            phi, psi, c = phi % n, psi % n, c % n
            if phi % m.p == 0 or psi % m.p == 0:
                raise ValueError(f"phi and psi must be units mod {n}")
            if (phi**2 - psi**2) % n != 0:
                raise ParamedialConditionError(f"phi^2 != psi^2 for (phi, psi) = ({phi}, {psi}) mod {n}")
        else:
            p = group.p
            for f, v, size in (("phi", phi, 4), ("psi", psi, 4), ("c", c, 2)):
                if not (isinstance(v, tuple) and len(v) == size and all(type(x) is int for x in v)):
                    raise TypeError(f"{f} must be a {size}-tuple of ints, got {v!r}")
            phi, psi, c = tuple(x % p for x in phi), tuple(x % p for x in psi), tuple(x % p for x in c)
            if mat_det(phi, p) == 0 or mat_det(psi, p) == 0:
                raise ValueError("phi and psi must be invertible")
            if mat_mul(phi, phi, p) != mat_mul(psi, psi, p):
                raise ParamedialConditionError(f"phi^2 != psi^2 for phi={phi}, psi={psi}")
        self._set("group", group)
        self._set("phi", phi)
        self._set("psi", psi)
        self._set("c", c)


class ClassRecord(Value):
    """An affine form with its classification row label and whether it is simple."""

    __slots__ = ("form", "case", "simple")

    def __init__(self, form: AffineForm, case: str, simple: bool):
        self._set("form", form)
        self._set("case", case)
        self._set("simple", simple)


class Classification:
    """The classes over `group` as enumerator rows (phi, psi, c, case, simple), in output order."""

    def __init__(self, group: GroupDescriptor, rows):
        if (count := group.closed_count()) > MAX_RECORDS:
            raise ResourceLimitError(f"enumeration is bounded to {MAX_RECORDS} classes, {group.describe()} has {count}")
        self.group = group
        self.rows = tuple(rows)

    @property
    def count(self) -> int:
        return len(self.rows)

    def records(self) -> list[ClassRecord]:
        """The rows as records, each form checked."""
        group = self.group
        return [ClassRecord(AffineForm(group, phi, psi, c), case, simple) for phi, psi, c, case, simple in self.rows]

    @property
    def forms(self) -> tuple[AffineForm, ...]:
        """The rows' checked forms, built here rather than by ``records()``, which a tracer may time."""
        return tuple(AffineForm(self.group, phi, psi, c) for phi, psi, c, _, _ in self.rows)


class QuasigroupTable(Value):
    """An explicit n x n Cayley table over the element encoding 0..n-1."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        if len(rows) != n or not set(map(len, rows)) <= {n}:
            raise ValueError("table shape does not match the stated order")
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:  # as require_int, a bool refused too
            bad = next(x for row in rows for x in row if type(x) is not int)
            raise TypeError(f"table entries must be ints, got {bad!r}")
        if not set().union(*rows) <= set(range(n)):
            raise ValueError(f"table entries must lie in 0..{n - 1}")
        self._set("n", n)
        self._set("rows", rows)


def materialize(form: AffineForm) -> QuasigroupTable:
    """Cayley table of x*y = phi(x) + psi(y) + c: row x is phi(x)'s translation read at psi(y) + c."""
    g = form.group
    plus = g.translations()
    get = itemgetter(*map(plus[g.encode(form.c)].__getitem__, g.images(form.psi)))  # n >= 2: a tuple
    return QuasigroupTable(g.order, tuple(map(get, map(plus.__getitem__, g.images(form.phi)))))


def is_latin(table: QuasigroupTable) -> bool:
    """Every row and every column is a permutation of 0..n-1 (the entries lie in 0..n-1)."""
    return {*map(len, map(set, table.rows)), *map(len, map(set, zip(*table.rows)))} <= {table.n}


def _walk_generators(s: list[tuple[int, ...]], z: int) -> list[int] | None:
    """Generators of the commutative table `s` found by walking from {z}:
    each is the least element not yet reached, and its walk adds the
    images of the reach under x -> x + a, a translate at a time, until a
    translate starts at a reached element.  In an abelian group (+) with
    zero z the reach is then the subgroup the generators so far generate,
    each generator at least doubles it, and there are at most
    floor(log2 n) of them, found reading O(n) entries; None past
    n.bit_length() generators, which no group needs.  In any table every
    element is a generator or a reached sum built from z and generators."""
    n = len(s)
    reach, seen, gens = [z], {z}, []
    for a in range(n):
        if a in seen:
            continue
        if len(gens) == n.bit_length():
            return None
        gens.append(a)
        translate = reach
        while True:
            translate = list(map(s[a].__getitem__, translate))
            if translate[0] in seen:
                break
            seen.update(translate)
        reach = list(seen)
    return gens


def is_paramedial(table: QuasigroupTable) -> bool:
    """Whether the table is a paramedial quasigroup, in O(n^2 log n).

    Recovers the affine form instead of testing (x*y)*(u*v) = (v*y)*(u*x)
    on all n^4 quadruples.  Fix e = 0, let R(x) = x*e and L(y) = e*y, and
    read off the principal isotope x + y = R^-1(x) * L^-1(y), whose zero
    is z = e*e.  Let phi(x) = R(x) - R(z) and psi(y) = L(y) - L(z).  The
    table passes when R and L are permutations, + is commutative, the
    walk of ``_walk_generators`` from z finds at most n.bit_length()
    generators g, each with some x + g = z and with (x + g) + y =
    x + (g + y) and f(x + g) = f(x) + f(g) for f = phi, psi and all x, y,
    and phi^2 = psi^2.  A group needs at most floor(log2 n) generators, so
    a walk that needs more gives False at once.

    Exactness.  z is a zero of +, and every element is a generator or a
    sum of z and generators, which the walk reached.  The a with
    (x + a) + y = x + (a + y) for all x, y form a closed set (Light's
    associativity test) holding z and the generators, so it holds every
    element: + is associative, so with the inverses of the generators
    (G, +) is an abelian group.  Then the b with f(a + b) = f(a) + f(b)
    for all a form a closed set holding f(z) = z and the generators, so
    phi and psi, translates of the permutations R and L, are
    automorphisms.  The table is latin, its rows and columns being those
    of s, the table of +, reordered by R and L.  And x*y = R(x) + L(y) =
    phi(x) + psi(y) + c with c = R(z) + L(z).  Expanding both sides of the
    identity leaves phi^2 x + psi^2 v = phi^2 v + psi^2 x, which holds
    since phi^2 = psi^2: the table is paramedial.  Conversely, a
    paramedial quasigroup is affine, x*y = f(x) (+) g(y) (+) c over an
    abelian group (+) with f^2 = g^2 (Nemec-Kepka, after Toyoda-Bruck).
    Then x + y = x (+) y (-) z, a translate of (+), isomorphic to it by
    t(x) = x (-) z; under t the recovered phi and psi are f and g, so
    every check passes.

    A table that is not latin gives False, even where the identity holds
    (a constant table); the tests' ``satisfies_paramedial_identity`` tests
    the raw identity on any magma.
    """
    n = table.n
    if n <= 1:  # the one table of order 1 is Z_1; itemgetter of one index returns no tuple
        return True
    t = table.rows
    r, l, z = tuple(map(itemgetter(0), t)), t[0], t[0][0]  # R(x) = x*e, L(y) = e*y, z = e*e
    if len(set(r)) < n or len(set(l)) < n:
        return False
    r_inv, l_inv = (sorted(range(n), key=f.__getitem__) for f in (r, l))
    s = list(map(itemgetter(*l_inv), map(t.__getitem__, r_inv)))  # s[a][b] = a + b
    if s != list(zip(*s)):
        return False
    gens = _walk_generators(s, z)
    if gens is None or any(z not in s[g] for g in gens):
        return False
    for g in gens:
        if any(map(ne, map(s.__getitem__, s[g]), map(itemgetter(*s[g]), s))):  # (x + g) + y vs x + (g + y)
            return False
    phi = itemgetter(*r)(s[s[r[z]].index(z)])  # R(x) + (-R(z))
    psi = itemgetter(*l)(s[s[l[z]].index(z)])
    phi_of, psi_of = itemgetter(*phi), itemgetter(*psi)
    for g in gens:
        get = itemgetter(*s[g])
        if get(phi) != phi_of(s[phi[g]]) or get(psi) != psi_of(s[psi[g]]):  # f(x + g) vs f(x) + f(g)
            return False
    return phi_of(phi) == psi_of(psi)


def table_to_text(table: QuasigroupTable) -> str:
    """Serialize as 'order n' followed by n rows of space-separated indices."""
    # for n = 1 the getter returns "0", which joins to itself
    names = dict(zip(range(table.n), map(str, range(table.n))))
    return "\n".join([f"order {table.n}", *[" ".join(itemgetter(*row)(names)) for row in table.rows], ""])


def table_from_text(text: str) -> QuasigroupTable:
    """Parse table_to_text's format, blank lines aside; malformed text raises ValueError."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "order":
        raise ValueError("expected leading 'order n' line")
    n = int(lines[0][1])
    if len(lines) - 1 > n:
        raise ValueError(f"expected {n} rows after the 'order {n}' line, got {len(lines) - 1}")
    return QuasigroupTable(n, tuple(tuple(map(int, ln)) for ln in lines[1:]))


# -- simplicity ------------------------------------------------------------------


def is_simple(group: GroupDescriptor, phi: int | Mat2, psi: int | Mat2) -> bool:
    """Whether x*y = phi(x) + psi(y) + c over `group` is simple, whatever c,
    by O(1) arithmetic on the entries mod p (so an unreduced or singular
    pair gets an answer too).

    Its congruences are the cosets of the subgroups N that phi and psi map
    into N.  Over Z_{p^k} every proper N > 0 is some p^i Z_{p^k}, which is
    characteristic: simple iff k = 1.  Over Z_p x Z_p the N are the lines
    <v> with v a common eigenvector.  Let C = phi psi - psi phi.  If C != 0,
    there is one iff det C = 0 (Shemesh): Cv = 0 for such v; conversely
    tr C = 0 gives C^2 = -det(C) I, and Cayley-Hamilton gives
    phi C + C phi = tr(phi) C, likewise for psi, so if det C = 0 the line
    Im C = ker C is invariant under both.  If C = 0 and phi is not scalar,
    it is cyclic, psi lies in F_p[phi], and the invariant lines are phi's
    eigenlines; if phi is scalar, they are psi's.  So there is none iff the
    characteristic polynomial of that one has no root in F_p (Euler's
    criterion on the discriminant for odd p; both field elements for p = 2)."""
    if isinstance(group, CyclicGroup):
        return group.modulus.k == 1
    p = group.p
    (a, b, c, d), (e, f, g, h) = phi, psi
    x, y, z = b * g - c * f, f * (a - d) - b * (e - h), c * (e - h) - g * (a - d)  # C = ((x, y), (z, -x))
    if x % p or y % p or z % p:
        return (x * x + y * z) % p != 0  # -det C
    if not (b % p or c % p or (a - d) % p):  # phi scalar: psi decides (scalar too: a double root)
        a, b, c, d = psi
    t, det = a + d, a * d - b * c  # the characteristic polynomial s^2 - t s + det
    if p == 2:
        return all((s * s - t * s + det) % 2 for s in (0, 1))
    return pow(t * t - 4 * det, (p - 1) // 2, p) == p - 1
