"""Affine paramedial quasigroups and their Cayley tables.

A quasigroup is paramedial when it satisfies (x*y)*(u*v) = (v*y)*(u*x).
Every finite paramedial quasigroup is affine over an abelian group G:
its operation can be written x*y = phi(x) + psi(y) + c for automorphisms
phi, psi of G with phi^2 = psi^2 and a constant c.  This module builds
the quasigroup from such data, checks an explicit table by recovering
that affine form from it (O(n^2 log n); the n^4 identity check itself
lives in ``oracle`` as the reference), and decides simplicity via
invariant subgroups.  The table functions take O(n log n) Python steps
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
``Classification``, whose ``records()`` and ``forms`` build checked
objects from them on request, and the tests build an ``AffineForm`` from
every row.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter, ne

from .modring import MAX_MODULUS, Mat2, Modulus, Value, Vec2, is_prime, mat_det, mat_mul, mat_vec, require_int


class ParamedialConditionError(ValueError):
    """Affine data whose automorphisms do not satisfy phi^2 = psi^2."""


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

    @staticmethod
    @lru_cache(maxsize=16)
    def _doubled(n: int) -> tuple[int, ...]:
        return tuple(range(n)) * 2

    def translation(self, a: int) -> tuple[int, ...]:
        """(a + y for y in 0..n-1), a slice of 0..n-1 written twice."""
        return self._doubled(self.modulus.n)[a : a + self.modulus.n]

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

    @staticmethod
    @lru_cache(maxsize=16)
    def _doubled(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The encoded coordinates y - y % p and y % p of 0..n-1, each written twice."""
        return tuple(y - y % p for y in range(p * p)) * 2, tuple(range(p)) * (2 * p)

    def translation(self, a: int) -> tuple[int, ...]:
        """(a + y for y in 0..n-1), y's coordinates rotated by a's as slices and added."""
        p, n, a2 = self.p, self.p * self.p, a % self.p
        high, low = self._doubled(p)
        return tuple(map(add, high[a - a2 : a - a2 + n], low[a2 : a2 + n]))

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

    def __init__(self, group: GroupDescriptor, rows: tuple):
        self.group = group
        self.rows = rows

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
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("table shape does not match the stated order")
        if n and not (0 <= min(map(min, rows)) and max(map(max, rows)) < n):
            raise ValueError(f"table entries must lie in 0..{n - 1}")
        self._set("n", n)
        self._set("rows", rows)


def materialize(form: AffineForm) -> QuasigroupTable:
    """Cayley table of x*y = phi(x) + psi(y) + c: row x is phi(x)'s translation read at psi(y) + c."""
    g = form.group
    n = g.order
    c = g.encode(form.c)
    get = itemgetter(*(g.add(g.apply(form.psi, y), c) for y in range(n)))  # n >= 2: a tuple
    return QuasigroupTable(n, tuple(get(g.translation(g.apply(form.phi, x))) for x in range(n)))


def is_latin(table: QuasigroupTable) -> bool:
    """Every row and every column is a permutation of 0..n-1 (the entries lie in 0..n-1)."""
    return all(len(set(line)) == table.n for line in (*table.rows, *zip(*table.rows)))


def _generators(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """Generators of the finite commutative quasigroup `rows`, picked
    greedily: each lies outside the closure of those before.  Closures grow
    in one pass over pairs, O(n^2) in all, associative or not, multiplying
    on one side only, which is why the table must be commutative (the one
    caller, ``is_paramedial``, passes s once s equals its transpose).  A
    closure is a subquasigroup, and a proper one H has at most half the
    order (x*H misses H for x outside it), so there are at most
    floor(log2 n) + 1 generators."""
    closure: set[int] = set()
    gens = []
    for g in range(len(rows)):
        if g not in closure:
            gens.append(g)
            new = {g}
            while new:  # multiply each new element with all found so far
                closure |= new
                found: set[int] = set()
                for x in new:
                    found.update(map(rows[x].__getitem__, closure))
                new = found - closure
    return gens


def is_paramedial(table: QuasigroupTable) -> bool:
    """Whether the table is a paramedial quasigroup, in O(n^2 log n).

    Recovers the affine form instead of testing (x*y)*(u*v) = (v*y)*(u*x)
    on all n^4 quadruples.  Fix e = 0, let R(x) = x*e and L(y) = e*y, and
    read off the principal isotope x + y = R^-1(x) * L^-1(y), whose zero
    is z = e*e.  Let phi(x) = R(x) - R(z) and psi(y) = L(y) - L(z).  The
    table passes when its rows are permutations, + is commutative,
    phi^2 = psi^2, and (x + g) + y = x + (g + y) and f(x + g) = f(x) + f(g)
    for f = phi, psi, all x, y and each generator g != z of + (``_generators``).
    Generators suffice: the a with (x + a) + y = x + (a + y) for all x, y
    form a closed set (Light's associativity test), so + is associative;
    then the b with f(a + b) = f(a) + f(b) for all a form a closed set too.

    Exactness.  s, the table of +, is the table with its rows sorted by R
    and its columns by L.  Once s equals its transpose, each column of s
    is a row of s, a permutation, so each column of the table is one too:
    the table is latin (R is a permutation) with no check of its columns.
    If every check passes, (G, +) is an abelian group (a latin
    commutative associative loop), phi and psi are automorphisms of it,
    and x*y = R(x) + L(y) = phi(x) + psi(y) + c with c = R(z) + L(z).
    Expanding both sides of the identity leaves phi^2 x + psi^2 v =
    phi^2 v + psi^2 x, which holds since phi^2 = psi^2: the table is
    paramedial.  Conversely, a paramedial quasigroup is affine,
    x*y = f(x) (+) g(y) (+) c over an abelian group (+) with f^2 = g^2
    (Nemec-Kepka, after Toyoda-Bruck).  Then x + y = x (+) y (-) z, a
    translate of (+), isomorphic to it by t(x) = x (-) z; under t the
    recovered phi and psi are f and g, so every check passes.

    A table that is not latin gives False, even where the identity holds
    (a constant table); ``oracle.satisfies_paramedial_identity`` tests the
    raw identity on any magma.
    """
    n = table.n
    if n <= 1:  # the one table of order 1 is Z_1; itemgetter of one index returns no tuple
        return True
    t = table.rows
    r, l, z = tuple(map(itemgetter(0), t)), t[0], t[0][0]  # R(x) = x*e, L(y) = e*y, z = e*e
    if min(map(len, map(set, t))) < n:
        return False
    r_inv, l_inv = (sorted(range(n), key=f.__getitem__) for f in (r, l))
    s = list(map(itemgetter(*l_inv), map(t.__getitem__, r_inv)))  # s[a][b] = a + b
    if s != list(zip(*s)):
        return False
    phi = itemgetter(*r)(s[s[r[z]].index(z)])  # R(x) + (-R(z))
    psi = itemgetter(*l)(s[s[l[z]].index(z)])
    phi_of, psi_of = itemgetter(*phi), itemgetter(*psi)
    for g in set(_generators(s)) - {z}:  # the zero passes both checks
        get = itemgetter(*s[g])
        if any(map(ne, map(s.__getitem__, s[g]), map(get, s))):  # (x + g) + y vs x + (g + y)
            return False
        if get(phi) != phi_of(s[phi[g]]) or get(psi) != psi_of(s[psi[g]]):  # f(x + g) vs f(x) + f(g)
            return False
    return phi_of(phi) == psi_of(psi)


def table_to_text(table: QuasigroupTable) -> str:
    """Serialize as 'order n' followed by n rows of space-separated indices."""
    row = " ".join(["%d"] * table.n) + "\n"
    return f"order {table.n}\n" + "".join(map(row.__mod__, table.rows))


def table_from_text(text: str) -> QuasigroupTable:
    """Parse table_to_text's format, blank lines aside; malformed text raises ValueError."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "order":
        raise ValueError("expected leading 'order n' line")
    n = int(lines[0][1])
    if len(lines) - 1 > n:
        raise ValueError(f"expected {n} rows after the 'order {n}' line, got {len(lines) - 1}")
    return QuasigroupTable(n, tuple(tuple(map(int, ln)) for ln in lines[1:]))


# -- subgroup structure and simplicity ----------------------------------------


def proper_subgroups(group: GroupDescriptor) -> list[tuple[int, ...]]:
    """All proper non-trivial subgroups, as sorted tuples of encoded elements.

    Z_{p^k} has exactly the chain p^i Z_{p^k} (0 < i < k); Z_p x Z_p has
    the p + 1 lines through the origin.
    """
    if isinstance(group, CyclicGroup):
        m = group.modulus
        return [tuple(range(0, m.n, m.p**i)) for i in range(1, m.k)]
    p = group.p
    lines = [tuple(range(p))]  # the span of (0, 1)
    lines += [tuple(s * p + s * t % p for s in range(p)) for t in range(p)]  # of (1, t)
    return sorted(lines)


@lru_cache(maxsize=16)
def _subgroup_sets(group: GroupDescriptor) -> tuple[tuple[tuple[int, ...], frozenset], ...]:
    return tuple((sub, frozenset(sub)) for sub in proper_subgroups(group))


def is_simple(group: GroupDescriptor, phi: int | Mat2, psi: int | Mat2) -> bool:
    """Whether x*y = phi(x) + psi(y) + c over `group` is simple, whatever c.

    Its congruences are the cosets of the subgroups N with phi(N) = psi(N) = N.
    Every proper subgroup here is cyclic, generated by its least non-zero
    element sub[1] (p^i in Z_{p^k}, any non-zero point of a line), and phi,
    psi are bijective, so N is invariant exactly when sub[1] maps into N
    under both: over Z_p x Z_p, N is an eigenline of both phi and psi; over
    Z_{p^k} every N is, the chain p^i Z_{p^k} being characteristic."""
    apply = group.apply
    return not any(apply(phi, sub[1]) in elems and apply(psi, sub[1]) in elems for sub, elems in _subgroup_sets(group))
