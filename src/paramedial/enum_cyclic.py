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
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffineForm, CyclicGroup
from .modring import MAX_MODULUS, Modulus, unit_group


class UnsupportedOrder(ValueError):
    """An order whose abelian-group shapes fall outside the classification."""


@dataclass(frozen=True)
class CyclicClassification:
    modulus: Modulus
    forms: tuple[AffineForm, ...]

    @property
    def count(self) -> int:
        return len(self.forms)


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


def _coset_transversal(phi: int, m: Modulus) -> list[int]:
    """Constants for psi = phi: zero plus the powers p^0..p^(i-1), where
    p^i = gcd(1 - 2 phi, p^k)."""
    v = (1 - 2 * phi) % m.n
    if v == 0:
        i = m.k
    else:
        i = 0
        while v % m.p == 0:
            v //= m.p
            i += 1
    return [0] + [m.p**j for j in range(i)]


def enumerate_cyclic(m: Modulus) -> CyclicClassification:
    """All classes over Z_{p^k}, ordered by (phi, psi, c) ascending."""
    group = CyclicGroup(m)
    n = m.n
    triples: list[tuple[int, int, int]] = []
    if m.p == 2:
        half = n // 2
        units = unit_group(m)
        for phi in units:
            if m.k <= 2:
                matches = units
            else:
                matches = {phi, n - phi, (phi + half) % n, (half - phi) % n}
                if len(matches) != 4:
                    raise AssertionError(f"unit {phi} mod {n} has {len(matches)} square-matches, expected 4")
            triples.extend((phi, psi, 0) for psi in matches)
    else:
        for phi in unit_group(m):
            triples.append((phi, n - phi, 0))
            triples.extend((phi, phi, c) for c in _coset_transversal(phi, m))
    triples.sort()
    forms = tuple(AffineForm(group, phi, psi, c) for phi, psi, c in triples)
    return CyclicClassification(modulus=m, forms=forms)


def case_label(form: AffineForm) -> str:
    """Classification row label of a cyclic form."""
    m = form.group.modulus
    if m.p == 2:
        return "cyclic.p2"
    if form.psi == -form.phi % m.n:
        return "cyclic.psi-minus"
    i = len(_coset_transversal(form.phi, m)) - 1
    return f"cyclic.psi-plus.i{i}"


def gl2_closed_count(p: int) -> int:
    """Number of classes over Z_p x Z_p: 4p^2 - 2 for odd p, 7 for p = 2."""
    return 7 if p == 2 else 4 * p * p - 2


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
