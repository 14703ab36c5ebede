"""Affine paramedial quasigroups and their Cayley tables.

A quasigroup is paramedial when it satisfies (x*y)*(u*v) = (v*y)*(u*x).
Every finite paramedial quasigroup is affine over an abelian group G:
its operation can be written x*y = phi(x) + psi(y) + c for automorphisms
phi, psi of G with phi^2 = psi^2 and a constant c.  This module builds
the quasigroup from such data, checks an explicit table by recovering
that affine form from it (O(n^3); the n^4 identity check itself lives in
``oracle`` as the reference), and decides simplicity via invariant
subgroups.

Two underlying groups are supported: the cyclic group Z_{p^k} and the
rank-two elementary abelian group Z_p x Z_p.  Elements are encoded as
indices 0..n-1: a residue encodes as itself, and a vector (x, y) over
Z_p encodes as x*p + y.  Table equality and all file output depend on
this encoding, so it is fixed.  ``AffineForm`` is where affine data is
validated: over Z_{p^k} phi, psi and c are ints, over Z_p x Z_p a pair
of 4-tuples (row-major matrices) and a 2-tuple, all reduced on
construction; everything downstream relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .modring import MAX_MODULUS, Mat2, Modulus, Vec2, is_prime, mat_det, mat_mul, mat_vec


class ParamedialConditionError(ValueError):
    """Affine data whose automorphisms do not satisfy phi^2 = psi^2."""


@dataclass(frozen=True)
class CyclicGroup:
    """The cyclic group Z_{p^k} with elements encoded as 0..p^k-1."""

    modulus: Modulus

    @property
    def order(self) -> int:
        return self.modulus.n

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.modulus.n

    def apply(self, aut: int, x: int) -> int:
        return aut * x % self.modulus.n

    def encode(self, element: int) -> int:
        return element

    def describe(self) -> str:
        return f"cyclic({self.modulus.p},{self.modulus.k})"


@dataclass(frozen=True)
class ElemAbelian2Group:
    """The group Z_p x Z_p with (x, y) encoded as x*p + y."""

    p: int

    def __post_init__(self):
        if self.p >= MAX_MODULUS:  # before the trial division of is_prime
            raise ValueError(f"p={self.p} exceeds the supported range (< 2^31)")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p * self.p

    def add(self, x: int, y: int) -> int:
        p = self.p
        return (x // p + y // p) % p * p + (x % p + y % p) % p

    def apply(self, aut: Mat2, x: int) -> int:
        return self.encode(mat_vec(aut, divmod(x, self.p), self.p))

    def encode(self, element: Vec2) -> int:
        return element[0] * self.p + element[1]

    def describe(self) -> str:
        return f"elem2({self.p})"


GroupDescriptor = Union[CyclicGroup, ElemAbelian2Group]


@dataclass(frozen=True)
class AffineForm:
    """One isomorphism-class representative (G, phi, psi, c).

    Over Z_{p^k}, phi and psi are units u (the automorphisms x -> u x)
    and c is an element, all plain ints; over Z_p x Z_p they are 4-tuples
    (a, b, c, d) of ints, the matrices ((a,b),(c,d)), and a 2-tuple of
    ints.  Construction reduces every entry mod p^k or p (a value of the
    wrong type or arity raises TypeError), checks that phi and psi are
    invertible (ValueError) and that phi^2 = psi^2; violating the latter
    raises ParamedialConditionError so the paramedial invariant is
    structural.
    """

    group: GroupDescriptor
    phi: Union[int, Mat2]
    psi: Union[int, Mat2]
    c: Union[int, Vec2]

    def __post_init__(self):
        if isinstance(self.group, CyclicGroup):
            m = self.group.modulus
            if not all(isinstance(v, int) for v in (self.phi, self.psi, self.c)):
                raise TypeError("cyclic forms take int automorphisms and constant")
            for f in ("phi", "psi", "c"):
                object.__setattr__(self, f, getattr(self, f) % m.n)
            if self.phi % m.p == 0 or self.psi % m.p == 0:
                raise ValueError(f"phi and psi must be units mod {m.n}")
            if (self.phi**2 - self.psi**2) % m.n != 0:
                raise ParamedialConditionError(
                    f"phi^2 != psi^2 for (phi, psi) = ({self.phi}, {self.psi}) mod {m.n}"
                )
        else:
            p = self.group.p
            for f, size in (("phi", 4), ("psi", 4), ("c", 2)):
                v = getattr(self, f)
                if not (isinstance(v, tuple) and len(v) == size and all(isinstance(x, int) for x in v)):
                    raise TypeError(f"{f} must be a {size}-tuple of ints, got {v!r}")
                object.__setattr__(self, f, tuple(x % p for x in v))
            if mat_det(self.phi, p) == 0 or mat_det(self.psi, p) == 0:
                raise ValueError("phi and psi must be invertible")
            if mat_mul(self.phi, self.phi, p) != mat_mul(self.psi, self.psi, p):
                raise ParamedialConditionError(f"phi^2 != psi^2 for phi={self.phi}, psi={self.psi}")


@dataclass(frozen=True)
class ClassRecord:
    """An affine form with its classification row label and whether it is simple."""

    form: AffineForm
    case: str
    simple: bool


@dataclass(frozen=True)
class QuasigroupTable:
    """An explicit n x n Cayley table over the element encoding 0..n-1."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError("table shape does not match the stated order")
        if self.n and not (0 <= min(map(min, self.rows)) and max(map(max, self.rows)) < self.n):
            raise ValueError(f"table entries must lie in 0..{self.n - 1}")


def materialize(form: AffineForm) -> QuasigroupTable:
    """Cayley table of x*y = phi(x) + psi(y) + c in the natural encoding."""
    g = form.group
    n = g.order
    c = g.encode(form.c)
    phi_img = [g.apply(form.phi, x) for x in range(n)]
    psi_img = [g.add(g.apply(form.psi, y), c) for y in range(n)]
    rows = tuple(tuple(g.add(phi_img[x], psi_img[y]) for y in range(n)) for x in range(n))
    return QuasigroupTable(n, rows)


def is_latin(table: QuasigroupTable) -> bool:
    """Every row and every column is a permutation of 0..n-1."""
    full = set(range(table.n))
    if any(set(row) != full for row in table.rows):
        return False
    return all(set(row[j] for row in table.rows) == full for j in range(table.n))


def is_paramedial(table: QuasigroupTable) -> bool:
    """Whether the table is a paramedial quasigroup, in O(n^3).

    Recovers the affine form instead of testing (x*y)*(u*v) = (v*y)*(u*x)
    on all n^4 quadruples.  Fix e = 0, let R(x) = x*e and L(y) = e*y, and
    read off the principal isotope x + y = R^-1(x) * L^-1(y), whose zero
    is z = e*e.  The table passes when it is latin, + is commutative and
    associative, phi(x) = R(x) - R(z) and psi(y) = L(y) - L(z) are
    additive, and phi^2 = psi^2.

    Exactness.  If every check passes, (G, +) is an abelian group (a latin
    commutative associative loop), phi and psi are automorphisms of it,
    and x*y = R(x) + L(y) = phi(x) + psi(y) + c with c = R(z) + L(z).
    Expanding both sides of the identity leaves phi^2 x + psi^2 v =
    phi^2 v + psi^2 x, which holds since phi^2 = psi^2: the table is
    paramedial.  Conversely, a paramedial quasigroup is affine,
    x*y = f(x) (+) g(y) (+) c over an abelian group (+) with f^2 = g^2
    (Nemec-Kepka, after Toyoda-Bruck).  Then x + y = x (+) y (-) z, a
    translate of (+), isomorphic to it by t(x) = x (-) z; under t the
    recovered phi and psi are f and g, so every check passes.

    A table that is not latin is not a quasigroup and gives False, even
    where the identity holds (a constant table);
    ``oracle.satisfies_paramedial_identity`` tests the raw identity on any
    magma.  numpy is imported here, its only use in this module, so
    importing the package stays light.
    """
    import numpy as np

    n = table.n
    if n == 0:
        return True
    t = np.array(table.rows, dtype=np.intp)
    idx = np.arange(n)
    if not ((np.sort(t, axis=1) == idx).all() and (np.sort(t, axis=0) == idx[:, None]).all()):
        return False
    r, l = t[:, 0], t[0, :]
    r_inv, l_inv = np.empty_like(r), np.empty_like(l)
    r_inv[r], l_inv[l] = idx, idx
    s = t[r_inv][:, l_inv]  # s[a, b] = a + b
    if not np.array_equal(s, s.T):
        return False
    if not np.array_equal(s[s], s[:, s]):  # (a + b) + c against a + (b + c)
        return False
    z = t[0, 0]
    neg = np.argmax(s == z, axis=1)  # a + neg[a] = z
    phi = s[r, neg[r[z]]]
    psi = s[l, neg[l[z]]]
    for f in (phi, psi):
        if not np.array_equal(f[s], s[f][:, f]):  # f(a + b) against f(a) + f(b)
            return False
    return np.array_equal(phi[phi], psi[psi])


def table_to_text(table: QuasigroupTable) -> str:
    """Serialize as 'order n' followed by n rows of space-separated indices."""
    lines = [f"order {table.n}"]
    lines.extend(" ".join(str(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> QuasigroupTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "order":
        raise ValueError("expected leading 'order n' line")
    n = int(head[1])
    rows = tuple(tuple(int(v) for v in ln.split()) for ln in lines[1 : n + 1])
    return QuasigroupTable(n, rows)


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


def invariant_proper_subgroups(form: AffineForm) -> list[tuple[int, ...]]:
    """Proper subgroups N with phi(N) = psi(N) = N.

    Every proper subgroup here is cyclic and generated by its least
    non-zero element sub[1] (p^i in Z_{p^k}, any non-zero point of a
    line), and phi, psi are bijective, so N is invariant exactly when
    sub[1] maps into N under both.  For Z_p x Z_p these are the lines
    spanned by common eigenvectors of phi and psi; for cyclic groups
    every subgroup qualifies since the chain p^i Z_{p^k} is
    characteristic.
    """
    g = form.group
    return [
        sub
        for sub, elems in _subgroup_sets(g)
        if g.apply(form.phi, sub[1]) in elems and g.apply(form.psi, sub[1]) in elems
    ]


def is_simple(form: AffineForm) -> bool:
    """No proper invariant subgroup, hence no proper congruence."""
    return not invariant_proper_subgroups(form)
