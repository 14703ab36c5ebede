"""Affine paramedial quasigroups and their Cayley tables.

A quasigroup is paramedial when it satisfies (x*y)*(u*v) = (v*y)*(u*x).
Every finite paramedial quasigroup is affine over an abelian group G:
its operation can be written x*y = phi(x) + psi(y) + c for automorphisms
phi, psi of G with phi^2 = psi^2 and a constant c.  This module builds
the quasigroup from such data, checks the defining identities on the
explicit table, and decides simplicity via invariant subgroups.

Two underlying groups are supported: the cyclic group Z_{p^k} and the
rank-two elementary abelian group Z_p x Z_p.  Elements are encoded as
indices 0..n-1: a residue encodes as itself, and a vector (x, y) over
Z_p encodes as x*p + y.  Table equality and all file output depend on
this encoding, so it is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .modring import Mat2, Modulus, Vec2, is_prime


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
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p * self.p

    def add(self, x: int, y: int) -> int:
        p = self.p
        return (x // p + y // p) % p * p + (x % p + y % p) % p

    def apply(self, aut: Mat2, x: int) -> int:
        p = self.p
        v = aut.matvec(Vec2(x // p, x % p, p))
        return v.x * p + v.y

    def encode(self, element: Vec2) -> int:
        return element.x * self.p + element.y

    def describe(self) -> str:
        return f"elem2({self.p})"


GroupDescriptor = Union[CyclicGroup, ElemAbelian2Group]


@dataclass(frozen=True)
class AffineForm:
    """One isomorphism-class representative (G, phi, psi, c).

    Over Z_{p^k}, phi and psi are units u (the automorphisms x -> u x)
    and c is an element, all plain ints reduced mod p^k on construction;
    over Z_p x Z_p they are a Mat2 pair and a Vec2.  Construction checks
    that phi and psi are invertible automorphisms of the stated group and
    that phi^2 = psi^2; violating the latter raises
    ParamedialConditionError so the paramedial invariant is structural.
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
            if not (isinstance(self.phi, Mat2) and isinstance(self.psi, Mat2)):
                raise TypeError("elementary-abelian forms take Mat2 automorphisms")
            if self.phi.p != p or self.psi.p != p:
                raise ValueError("matrix modulus does not match the group")
            if not isinstance(self.c, Vec2) or self.c.p != p:
                raise ValueError("constant must be a vector over the group prime")
            if not (self.phi.is_invertible() and self.psi.is_invertible()):
                raise ValueError("phi and psi must be invertible")
            if self.phi.square() != self.psi.square():
                raise ParamedialConditionError(
                    f"phi^2 != psi^2 for phi={self.phi.entries()}, psi={self.psi.entries()}"
                )


@dataclass(frozen=True)
class ClassRecord:
    """An affine form together with its classification row label."""

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
    """Exhaustive check of (x*y)*(u*v) = (v*y)*(u*x) over all n^4 quadruples.

    Vectorized with one n^3 slab per x so memory stays cubic.  numpy is
    imported here, its only use, so importing the package stays light.
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
    directions = [Vec2(0, 1, p)] + [Vec2(1, t, p) for t in range(p)]
    lines = []
    for d in directions:
        lines.append(tuple(sorted(group.encode(d.smul(t)) for t in range(p))))
    return sorted(lines)


def invariant_proper_subgroups(form: AffineForm) -> list[tuple[int, ...]]:
    """Proper subgroups N with phi(N) = psi(N) = N.

    For Z_p x Z_p these are the lines spanned by common eigenvectors of
    phi and psi; for cyclic groups every subgroup qualifies since the
    chain p^i Z_{p^k} is characteristic.
    """
    g = form.group
    result = []
    for sub in proper_subgroups(g):
        elems = set(sub)
        if {g.apply(form.phi, x) for x in sub} == elems and {
            g.apply(form.psi, x) for x in sub
        } == elems:
            result.append(sub)
    return result


def is_simple(form: AffineForm) -> bool:
    """No proper invariant subgroup, hence no proper congruence."""
    return not invariant_proper_subgroups(form)
