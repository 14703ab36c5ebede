"""Exact arithmetic in Z_{p^k}, its unit group, and 2x2 matrices over Z_p.

Elements and automorphisms of Z_{p^k} are plain ints, least non-negative
residues mod p^k; ``Modulus`` names the ring.  Matrices and vectors over
Z_p are small immutable value types that carry the prime they live over,
and all their operations reduce eagerly to the least non-negative
representative.  Mixing matrices or vectors over different primes is a
programming error and raises ``MixedModulusError`` instead of coercing.

Supported range: the modulus p^k must stay below 2**31 so that products
of two reduced values fit comfortably in native integers before Python
would even need big ints; constructors reject anything larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

MAX_MODULUS = 2**31
MAX_EXPONENT = 30  # p^k < 2^31 with p >= 2 needs k <= 30


class MixedModulusError(ValueError):
    """Arithmetic between values over different moduli."""


class SingularMatrixError(ZeroDivisionError):
    """Inversion of a matrix with zero determinant."""


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, order=True)
class Modulus:
    """A prime power p^k, the order of the cyclic group Z_{p^k}."""

    p: int
    k: int

    def __post_init__(self):
        # Range checks first: trial division of a huge p, or p**k for a
        # huge k, would run for an unbounded time before refusing it.
        if self.p >= MAX_MODULUS:
            raise ValueError(f"p={self.p} exceeds the supported range (< 2^31)")
        if self.k < 1:
            raise ValueError(f"exponent k={self.k} must be >= 1")
        if self.k > MAX_EXPONENT:
            raise ValueError(f"exponent k={self.k} exceeds the supported range (<= {MAX_EXPONENT})")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.p**self.k >= MAX_MODULUS:
            raise ValueError(f"{self.p}^{self.k} exceeds the supported range (< 2^31)")

    @property
    def n(self) -> int:
        return self.p**self.k


def unit_group(m: Modulus) -> list[int]:
    """All units of Z_{p^k} in ascending order; size p^k - p^(k-1).

    The units are exactly the automorphisms x -> u x of Z_{p^k}.
    """
    return [v for v in range(1, m.n) if v % m.p != 0]


# -- square roots in the field Z_p -------------------------------------------


@lru_cache(maxsize=None)
def _sqrt_table(p: int) -> dict[int, int]:
    """Map each square x to its least root; built by squaring 0..p-1."""
    table: dict[int, int] = {}
    for r in range(p):
        table.setdefault(r * r % p, r)
    return table


def sqrt_mod_prime(x: int, p: int) -> tuple[int, ...]:
    """Square roots of x in Z_p for an odd prime p.

    Returns () when x is a non-square, (0,) when x = 0, and the pair
    (r, p - r) with r < p - r otherwise.  The first entry is the
    canonical root: determinism matters downstream, any fixed choice
    of root works mathematically.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"modulus {p} is not an odd prime")
    x %= p
    r = _sqrt_table(p).get(x)
    if r is None:
        return ()
    if x == 0:
        return (0,)
    return (r, p - r)


def is_square_mod(x: int, p: int) -> bool:
    return x % p in _sqrt_table(p)


# -- 2x2 matrices and vectors over Z_p ----------------------------------------


@lru_cache(maxsize=None)
def _check_mat_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"matrix modulus {p} is not prime")


@dataclass(frozen=True, order=True)
class Vec2:
    """A vector in Z_p^2; ordering is lexicographic by (x, y)."""

    x: int
    y: int
    p: int

    def __post_init__(self):
        _check_mat_prime(self.p)
        object.__setattr__(self, "x", self.x % self.p)
        object.__setattr__(self, "y", self.y % self.p)

    def smul(self, t: int) -> "Vec2":
        return Vec2(t * self.x, t * self.y, self.p)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def entries(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True, order=True)
class Mat2:
    """A 2x2 matrix ((a, b), (c, d)) over Z_p, row-major.

    Ordering is lexicographic by entries, which is the canonical order
    used whenever a deterministic representative has to be picked.
    """

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        _check_mat_prime(self.p)
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, getattr(self, f) % self.p)

    @classmethod
    def identity(cls, p: int) -> "Mat2":
        return cls(1, 0, 0, 1, p)

    @classmethod
    def scalar(cls, t: int, p: int) -> "Mat2":
        return cls(t, 0, 0, t, p)

    @classmethod
    def diag(cls, a: int, d: int, p: int) -> "Mat2":
        return cls(a, 0, 0, d, p)

    def _check(self, other: "Mat2") -> None:
        if self.p != other.p:
            raise MixedModulusError(f"p={self.p} vs p={other.p}")

    def __matmul__(self, other: "Mat2") -> "Mat2":
        self._check(other)
        p = self.p
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            p,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        self._check(other)
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d, self.p)

    def __sub__(self, other: "Mat2") -> "Mat2":
        self._check(other)
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d, self.p)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d, self.p)

    def smul(self, t: int) -> "Mat2":
        return Mat2(t * self.a, t * self.b, t * self.c, t * self.d, self.p)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    def tr(self) -> int:
        return (self.a + self.d) % self.p

    def rank(self) -> int:
        if self.det() != 0:
            return 2
        if self.a or self.b or self.c or self.d:
            return 1
        return 0

    def is_invertible(self) -> bool:
        return self.det() != 0

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def inv(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise SingularMatrixError(f"{self} has determinant 0")
        di = pow(det, -1, self.p)
        return Mat2(di * self.d, -di * self.b, -di * self.c, di * self.a, self.p)

    def square(self) -> "Mat2":
        return self @ self

    def matvec(self, v: Vec2) -> Vec2:
        if self.p != v.p:
            raise MixedModulusError(f"p={self.p} vs p={v.p}")
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y, self.p)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


def all_matrices(p: int) -> Iterator[Mat2]:
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    yield Mat2(a, b, c, d, p)


def gl2(p: int) -> list[Mat2]:
    """All invertible 2x2 matrices over Z_p; |GL(2,p)| = (p^2-1)(p^2-p)."""
    return [m for m in all_matrices(p) if m.det() != 0]


def vector_outside_line(direction: Vec2) -> Vec2:
    """Lexicographically least vector not on the line spanned by a non-zero
    direction: (0, 1), unless the line is the y-axis, then (1, 0)."""
    if direction.is_zero():
        raise ValueError("direction vector is zero")
    if direction.x:
        return Vec2(0, 1, direction.p)
    return Vec2(1, 0, direction.p)
