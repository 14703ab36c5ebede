"""Isomorphism-class representatives of paramedial quasigroups over Z_{p^k}.

Aut(Z_{p^k}) is the unit group, which is abelian, so the classification
reduces to picking every pair of units (phi, psi) with phi^2 = psi^2 and
then a transversal of the unit action on Z_{p^k} / Im(1 - phi - psi).

For odd p the pairs are exactly psi = +-phi and the constants depend on
i = v_p(1 - 2 phi): the transversal is {0, 1, p, ..., p^(i-1)}.  For
p = 2 every unit squares to 1 mod 2 and mod 4, so with k <= 2 psi runs
over all units; with k >= 3 the square roots of phi^2 mod 2^k are exactly
+-phi and +-phi + 2^(k-1).  Either way 1 - phi - psi is odd, a unit, so
Im(1 - phi - psi) is everything and c = 0 throughout.  Every case is a
closed form; nothing here runs the orbit oracle.

The classes come out as one stream of plain rows (phi, psi, c, case,
simple) in output order, each labelled by the branch that produced it
(``cyclic.p2``, ``cyclic.psi-minus`` or ``cyclic.psi-plus.i{i}``), in
an ``affine.Classification``, whose ``records()`` and ``forms`` build the
checked objects from the rows only when asked; ``cli enumerate`` renders
the rows as they are.
Simplicity is a closed form too: a class is simple exactly when k = 1.
Every proper non-trivial subgroup of Z_{p^k} is one of the chain
p^i Z_{p^k} (0 < i < k), and each is characteristic, so it is invariant
under every phi and psi; there is one exactly when k > 1.  Only the
tests check these flags against ``affine.is_simple``.
"""

from __future__ import annotations

from collections.abc import Iterator

from .affine import Classification, CyclicGroup
from .modring import MAX_MODULUS, Modulus, unit_group

CASE_P2 = "cyclic.p2"
CASE_PSI_MINUS = "cyclic.psi-minus"


class UnsupportedOrder(ValueError):
    """An order whose abelian-group shapes fall outside the classification."""


def closed_form_count(m: Modulus) -> int:
    """Number of classes over Z_{p^k}: 2p^k - p^(k-1) + sum_{i<=k-2} p^i
    for odd p, and 1, 4, 2^(k+1) for p = 2 with k = 1, 2, > 2."""
    p, k = m.p, m.k
    if p == 2:
        if k == 1:
            return 1
        if k == 2:
            return 4
        return 2 ** (k + 1)
    return 2 * p**k - p ** (k - 1) + sum(p**i for i in range(k - 1))


def _image_exponent(phi: int, m: Modulus) -> int:
    """The i with p^i = gcd(1 - 2 phi, p^k): for psi = phi the constants
    are zero plus the powers p^0..p^(i-1)."""
    v = (1 - 2 * phi) % m.n
    if v == 0:
        return m.k
    i = 0
    while v % m.p == 0:
        v //= m.p
        i += 1
    return i


def _rows(m: Modulus) -> Iterator[tuple[int, int, int, str, bool]]:
    """Every class over Z_{p^k} as (phi, psi, c, case, simple), ordered by (phi, psi, c) ascending."""
    n = m.n
    simple = m.k == 1
    if m.p == 2:
        half = n // 2
        units = unit_group(m)
        for phi in units:
            if m.k <= 2:
                matches = units
            else:
                matches = sorted({phi, n - phi, (phi + half) % n, (half - phi) % n})
                if len(matches) != 4:
                    raise AssertionError(f"unit {phi} mod {n} has {len(matches)} square-matches, expected 4")
            for psi in matches:
                yield phi, psi, 0, CASE_P2, simple
        return
    plus_cases = [f"cyclic.psi-plus.i{i}" for i in range(m.k + 1)]
    for phi in unit_group(m):
        # n is odd, so psi = -phi differs from phi and sorts on one side of it.
        minus = (phi, n - phi, 0, CASE_PSI_MINUS, simple)
        if n - phi < phi:
            yield minus
        i = _image_exponent(phi, m)
        for c in [0] + [m.p**j for j in range(i)]:
            yield phi, phi, c, plus_cases[i], simple
        if n - phi > phi:
            yield minus


def enumerate_cyclic(m: Modulus) -> Classification:
    """All classes over Z_{p^k}, ordered by (phi, psi, c) ascending."""
    return Classification(CyclicGroup(m), tuple(_rows(m)))


def gl2_closed_count(p: int) -> int:
    """Number of classes over Z_p x Z_p: 4p^2 - 2 for odd p, 7 for p = 2."""
    return 7 if p == 2 else 4 * p * p - 2


def simple_closed_count(p: int) -> int:
    """Number of simple classes over Z_p x Z_p: p(2p - 3) for odd p, 3 for
    p = 2.  For odd p they are the diag0.psi-family members with k != +-a
    and every irreducible phi's psi; see enum_gl2.y_phi."""
    return 3 if p == 2 else p * (2 * p - 3)


def _abelian_count_for_prime_power(p: int, e: int) -> int:
    if e == 1:
        return closed_form_count(Modulus(p, 1))
    if e == 2:
        return closed_form_count(Modulus(p, 2)) + gl2_closed_count(p)
    raise UnsupportedOrder(
        f"order {p}^{e} needs paramedial counts over abelian groups beyond "
        f"Z_{p**e} and Z_{p}^2 (mixed shapes like Z_{p} x Z_{p**(e-1)} and "
        f"elementary abelian groups of rank >= 3 are not classified here)"
    )


def pq_total(n: int) -> int:
    """Total number of paramedial quasigroups of order n, up to isomorphism.

    Multiplicative over coprime factors; each prime power p^e contributes
    the sum over the abelian groups of that order, which this library
    covers for e <= 2 and p^e < MAX_MODULUS.  Trial division stops below
    sqrt(MAX_MODULUS), so a cofactor left at MAX_MODULUS or above has only
    prime factors whose powers are out of range, and is refused.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return 1
    total = 1
    rest = n
    d = 2
    while d * d <= rest and d * d < MAX_MODULUS:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            total *= _abelian_count_for_prime_power(d, e)
        d += 1
    if rest >= MAX_MODULUS:
        raise UnsupportedOrder(
            f"order {n} has a factor {rest} >= 2^31 with no prime factor below {d}; "
            f"only prime powers below 2^31 are classified"
        )
    if rest > 1:
        total *= _abelian_count_for_prime_power(rest, 1)
    return total
