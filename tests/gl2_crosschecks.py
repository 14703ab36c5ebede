"""Cross-checks of enum_gl2's closed forms that only the tests run.

For the trace-zero irreducible phi = ((0,1),(a,0)), y_phi lists the p - 2
non-central orbits of Y_phi as the levels of t = tr(phi psi), conics with
p + 1 points each.  burnside_orbit_count repeats that partition through
the generic orbit oracle.  The level t = 1 - 2a, where 1 - phi - psi is
singular and psi admits two constants, is the conic that conic_count
counts.
"""

from paramedial.enum_gl2 import ConjClass, sqrt_set, y_phi
from paramedial.modring import is_prime, is_square_mod, mat_inv, mat_mul
from paramedial.oracle import ActionSpec, orbits
from reference import burnside_count, orbit_sizes_divide


def nonsquares(p: int) -> list[int]:
    return [a for a in range(1, p) if not is_square_mod(a, p)]


def conic_solutions(p: int, a: int) -> list[tuple[int, int]]:
    """All (k, l) in Z_p^2 with k^2 - a l^2 + (1 - 2a) l - a = 0, for a
    a non-square mod p.  Exhaustive by construction."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p={p} must be an odd prime")
    if is_square_mod(a, p):
        raise ValueError(f"a={a} is a square mod {p}")
    return [
        (k, l)
        for k in range(p)
        for l in range(p)
        if (k * k - a * l * l + (1 - 2 * a) * l - a) % p == 0
    ]


def conic_count(p: int, a: int) -> int:
    """Point count of the conic above; always p + 1, and every solution
    has l != 0 and differs from (0, +-1)."""
    sols = conic_solutions(p, a)
    if len(sols) != p + 1:
        raise AssertionError(f"conic over Z_{p} with a={a} has {len(sols)} points, expected {p + 1}")
    for (k, l) in sols:
        if l == 0 or (k == 0 and l in (1, p - 1)):
            raise AssertionError(f"degenerate conic solution {(k, l)}")
    return len(sols)


def burnside_orbit_count(cls: ConjClass) -> tuple[int, tuple[int, ...]]:
    """Orbit count and size multiset for the trace-zero irreducible case,
    computed by the generic oracle over all p^2 - 1 elements uI + v phi of
    the centralizer, both by fixed-point averaging and by direct partition.

    Both routes must agree, and the least points of the non-singleton
    orbits must be the psi of y_phi(cls)[2:]; the result is exactly p orbits with
    sizes {1, 1, (p+1) x (p-2)}.
    """
    p = cls.p
    if cls.kind != "irreducible" or cls.b != 0:
        raise ValueError("Burnside counting applies to the ((0,1),(a,0)) representative")
    elements = [(u, v, cls.a * v % p, u) for u in range(p) for v in range(p) if u or v]
    inverses = {g: mat_inv(g, p) for g in elements}
    spec = ActionSpec(
        points=sqrt_set(mat_mul(cls.rep, cls.rep, p), p),
        act=lambda g, m: mat_mul(mat_mul(g, m, p), inverses[g], p),
        generators=elements,
    )
    by_average = burnside_count(spec.points, spec.act, elements)
    part = orbits(spec)
    if not orbit_sizes_divide(part, len(elements)):
        raise AssertionError(f"an orbit size does not divide |C(phi)| = {len(elements)}")
    if by_average != len(part.orbits):
        raise AssertionError(
            f"Burnside average {by_average} disagrees with direct partition {len(part.orbits)}"
        )
    if [psi for psi, _, _ in y_phi(cls)[2:]] != [orb[0] for orb in part.orbits if len(orb) > 1]:
        raise AssertionError("y_phi disagrees with the least points of the non-singleton orbits")
    return by_average, tuple(sorted(len(orb) for orb in part.orbits))
