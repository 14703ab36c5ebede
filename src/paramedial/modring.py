"""Exact arithmetic in Z_{p^k}, its unit group, and 2x2 matrices over Z_p.

Elements and automorphisms of Z_{p^k} are plain ints, least non-negative
residues mod p^k; ``Modulus`` names the ring.  ``Value`` is the base of
the package's immutable value classes, ``Modulus`` among them.  A
matrix over Z_p is the flat row-major tuple (a, b, c, d) of least
residues and a vector is (x, y), so tuple order is the canonical
lexicographic order.  The
functions below take p, expect reduced entries and return reduced
tuples; data from outside is validated and reduced once, by
``affine.AffineForm``.

Supported range: the modulus p^k must stay below 2**31 so that products
of two reduced values fit comfortably in native integers before Python
would even need big ints; constructors reject anything larger.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from functools import lru_cache

MAX_MODULUS = 2**31
MAX_EXPONENT = 30  # p^k < 2^31 with p >= 2 needs k <= 30


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


class Value:
    """Base of the immutable value classes: ``==`` by class and by the
    fields in ``__slots__``, ``hash`` by the fields, and no assignment
    after ``__init__``, which sets each field with ``self._set(name, value)``.

    Objects of different classes never compare equal, so, unlike a
    NamedTuple, a value is never equal to a plain tuple of its fields.
    """

    __slots__ = ()
    _set = object.__setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = operator.attrgetter(*cls.__slots__)  # called as self._key(obj): not a method

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __setstate__(self, state):  # pickle and copy restore (None, {slot: value})
        for name, value in state[1].items():
            self._set(name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def require_int(name: str, value) -> None:
    """TypeError unless value is an int; a bool is refused too."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")


class Modulus(Value):
    """A prime power p^k, the order of the cyclic group Z_{p^k}; n = p^k."""

    __slots__ = ("p", "k", "n")

    def __init__(self, p: int, k: int):
        require_int("p", p)
        require_int("k", k)
        # Range checks first: trial division of a huge p, or p**k for a
        # huge k, would run for an unbounded time before refusing it.
        if p >= MAX_MODULUS:
            raise ValueError(f"p={p} exceeds the supported range (< 2^31)")
        if k < 1:
            raise ValueError(f"exponent k={k} must be >= 1")
        if k > MAX_EXPONENT:
            raise ValueError(f"exponent k={k} exceeds the supported range (<= {MAX_EXPONENT})")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p**k >= MAX_MODULUS:
            raise ValueError(f"{p}^{k} exceeds the supported range (< 2^31)")
        self._set("p", p)
        self._set("k", k)
        self._set("n", p**k)


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

Mat2 = tuple[int, int, int, int]  # ((a, b), (c, d)) row-major as (a, b, c, d)
Vec2 = tuple[int, int]


def mat_mul(m: Mat2, n: Mat2, p: int) -> Mat2:
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def mat_neg(m: Mat2, p: int) -> Mat2:
    return (-m[0] % p, -m[1] % p, -m[2] % p, -m[3] % p)


def mat_det(m: Mat2, p: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % p


def mat_inv(m: Mat2, p: int) -> Mat2:
    det = mat_det(m, p)
    if det == 0:
        raise SingularMatrixError(f"{m} has determinant 0 mod {p}")
    di = pow(det, -1, p)
    return (di * m[3] % p, -di * m[1] % p, -di * m[2] % p, di * m[0] % p)


def mat_vec(m: Mat2, v: Vec2, p: int) -> Vec2:
    return ((m[0] * v[0] + m[1] * v[1]) % p, (m[2] * v[0] + m[3] * v[1]) % p)


def all_matrices(p: int) -> Iterator[Mat2]:
    """All p^4 matrices over Z_p in lexicographic order."""
    return itertools.product(range(p), repeat=4)


def gl2(p: int) -> list[Mat2]:
    """All invertible 2x2 matrices over Z_p; |GL(2,p)| = (p^2-1)(p^2-p)."""
    return [m for m in all_matrices(p) if mat_det(m, p) != 0]
