"""Isomorphism-class representatives of paramedial quasigroups over Z_p x Z_p.

Aut(Z_p^2) = GL(2,p), so the classification walks the conjugacy classes:

  * X: class representatives phi (scalar, distinct-diagonal, Jordan, and
    companion matrices of irreducible quadratics);
  * S_phi: all square roots psi of phi^2 (sqrt_set, by Cayley-Hamilton);
  * Y_phi: orbit representatives of the centralizer C(phi) conjugating
    S_phi, listed without building S_phi;
  * G_{phi,psi}: a transversal of the joint-centralizer action on
    Z_p^2 / Im(1 - phi - psi), which has 1 or 2 elements here.

Each triple (phi, psi, c) with phi in X, psi in Y_phi and c in
G_{phi,psi} is one isomorphism class, 4p^2 - 2 in total for odd p, and
every piece is a closed form.  The classes come out as one stream of
ClassRecords in output order.  y_phi lists each psi with its case
label and whether its classes are simple, both set by the branch that
builds it.  For the trace-zero irreducible phi = ((0,1),(a,0)) the p - 2
non-central orbits of Y_phi are the levels of t = tr(phi psi), conics
with p + 1 points each (see y_phi); burnside_orbit_count repeats that
partition through the generic orbit oracle as an independent
cross-check.  The level t = 1 - 2a, where 1 - phi - psi is singular and
psi admits two constants, is the conic that conic_count counts.

p = 2 degenerates (no 2^-1, no pairs 0 < a < b) and is routed through
the generic orbit oracle instead; it yields 7 classes, each labelled
``p2-oracle`` with its simplicity from affine.is_simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .affine import AffineForm, ClassRecord, ElemAbelian2Group, is_simple
from .modring import (
    Mat2,
    Vec2,
    is_prime,
    is_square_mod,
    sqrt_mod_prime,
    vector_outside_line,
)

CASE_SCALAR_PLUS = "scalar.psi-plus"
CASE_SCALAR_MINUS = "scalar.psi-minus"
CASE_SCALAR_SPLIT = "scalar.psi-split"
CASE_DIAG_PLUS = "diag.psi-plus"
CASE_DIAG_MINUS = "diag.psi-minus"
CASE_DIAG_MIXED_A = "diag.psi-mixed-a"
CASE_DIAG_MIXED_B = "diag.psi-mixed-b"
CASE_DIAG0_LOWER_PLUS = "diag0.psi-lower-plus"
CASE_DIAG0_LOWER_MINUS = "diag0.psi-lower-minus"
CASE_DIAG0_FAMILY = "diag0.psi-family"
CASE_JORDAN_PLUS = "jordan.psi-plus"
CASE_JORDAN_MINUS = "jordan.psi-minus"
CASE_IRRED_PLUS = "irred.psi-plus"
CASE_IRRED_MINUS = "irred.psi-minus"
CASE_IRRED0_ROOT = "irred0.psi-root"
CASE_IRRED0_CONIC = "irred0.psi-conic"
CASE_P2_ORACLE = "p2-oracle"


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p={p} must be an odd prime (p = 2 runs through the oracle path)")


def nonsquares(p: int) -> list[int]:
    return [a for a in range(1, p) if not is_square_mod(a, p)]


# -- conjugacy classes of GL(2,p) -----------------------------------------------


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class of GL(2,p), keyed by its representative shape.

    kind 'scalar': aI; 'diag': diag(a, b) with 0 < a < b; 'jordan':
    ((a,1),(0,a)); 'irreducible': the companion matrix ((0,1),(a,b)) of
    an irreducible x^2 - b x - a.
    """

    kind: str
    a: int
    b: Optional[int]
    rep: Mat2


def conjugacy_classes(p: int) -> list[ConjClass]:
    """Representatives of all p^2 - 1 conjugacy classes of GL(2,p), p odd.

    Irreducibility of x^2 - b x - a is certified by the discriminant
    b^2 + 4a being a non-square.
    """
    _require_odd_prime(p)
    classes: list[ConjClass] = []
    for a in range(1, p):
        classes.append(ConjClass("scalar", a, None, Mat2.scalar(a, p)))
    for a in range(1, p):
        for b in range(a + 1, p):
            classes.append(ConjClass("diag", a, b, Mat2.diag(a, b, p)))
    for a in range(1, p):
        classes.append(ConjClass("jordan", a, None, Mat2(a, 1, 0, a, p)))
    for a in range(1, p):
        for b in range(p):
            if not is_square_mod(b * b + 4 * a, p):
                classes.append(ConjClass("irreducible", a, b, Mat2(0, 1, a, b, p)))
    return classes


# -- square roots of 2x2 matrices ----------------------------------------------


def sqrt_set(a_mat: Mat2) -> list[Mat2]:
    """All X with X^2 = A over Z_p, p odd, in lexicographic order.

    Non-scalar A: Cayley-Hamilton forces X = (A + delta I) / tau with
    delta^2 = det(A) and tau^2 = tr(A) + 2 delta, tau != 0; every such
    candidate is a root, giving at most four.  Scalar A = cI: besides
    +-sqrt(c) I (when c is a square) the trace-zero matrices
    ((k,l),(m,-k)) with k^2 + lm = c all square to cI.
    """
    p = a_mat.p
    if p == 2:
        raise ValueError("square-root formulas need an odd prime")
    roots: set[Mat2] = set()
    if a_mat.is_scalar():
        c = a_mat.a
        for r in sqrt_mod_prime(c, p):
            roots.add(Mat2.scalar(r, p))
            roots.add(Mat2.scalar(-r, p))
        for k in range(p):
            need = (c - k * k) % p
            if need == 0:
                roots.update(Mat2(k, 0, m, -k, p) for m in range(p))
                roots.update(Mat2(k, l, 0, -k, p) for l in range(p))
            else:
                roots.update(
                    Mat2(k, l, need * pow(l, -1, p) % p, -k, p) for l in range(1, p)
                )
    else:
        t = a_mat.tr()
        for delta in sqrt_mod_prime(a_mat.det(), p) or ():
            for sign in (1, -1):
                d = sign * delta % p
                for tau in sqrt_mod_prime(t + 2 * d, p):
                    if tau == 0:
                        continue
                    ti = pow(tau, -1, p)
                    x = (a_mat + Mat2.scalar(d, p)).smul(ti)
                    roots.add(x)
                    roots.add(-x)
    for x in roots:
        assert x.square() == a_mat
    return sorted(roots)


# -- counting points on the relevant conic --------------------------------------


def conic_solutions(p: int, a: int) -> list[tuple[int, int]]:
    """All (k, l) in Z_p^2 with k^2 - a l^2 + (1 - 2a) l - a = 0, for a
    a non-square mod p.  Exhaustive by construction."""
    _require_odd_prime(p)
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


# -- orbit representatives Y_phi -------------------------------------------------


def y_phi(cls: ConjClass) -> list[tuple[Mat2, str, bool]]:
    """Orbit representatives psi of the centralizer conjugation on S_phi,
    each as (psi, case, simple): its case label and whether the classes
    it gives are simple.

    Every kind has a closed-form list.  For the trace-zero diagonal
    phi = diag(a, -a) the family ((k,1),(a^2-k^2,-k)) is simple unless
    k = +-a, where psi shares an eigenvector with phi.  For the trace-zero
    irreducible representative phi = ((0,1),(a,0)), a a non-square, C(phi) is
    F_p[phi]^x = {uI + v phi}; its scalars act trivially, so the acting
    group has order p + 1.  S_phi holds the p^2 - p matrices
    psi = ((k,l),(m,-k)) with k^2 + lm = a, and conjugation by C(phi)
    leaves t = tr(phi psi) = m + a l unchanged.  With m = t - a l, the
    level t is the conic k^2 - a l^2 + t l - a = 0:

      * t = +-2a gives k^2 = a (l -+ 1)^2, so k = 0 and l = +-1 since a is
        a non-square: the level is the fixed point psi = +-phi.
      * Any other t gives a non-degenerate conic (determinant a^2 - t^2/4)
        without points at infinity (k^2 = a l^2 forces k = l = 0), so it
        has p + 1 points.  A non-scalar g in C(phi) generates F_p[phi], so
        g fixing psi would put psi in the field F_p[phi], whose only roots
        of a are +-phi.  The action is therefore free off +-phi: each
        orbit has p + 1 points and fills its level.

    The representative of level t is its least point (k, l): the least k
    for which a l^2 - t l + (a - k^2) = 0 is solvable, i.e. for which
    t^2 - 4a(a - k^2) is a square r^2, then the smaller root
    l = (t +- r) / 2a.  Every level is simple; the level t = 1 - 2a is the
    irred0.psi-conic case, since det(1 - phi - psi) = 1 - 2a - t, and the
    others are irred0.psi-root.  burnside_orbit_count is the all-elements
    cross-check of this partition.
    """
    p = cls.rep.p
    a = cls.a
    phi = cls.rep
    if cls.kind == "scalar":
        return [
            (Mat2.scalar(a, p), CASE_SCALAR_PLUS, False),
            (Mat2.scalar(-a, p), CASE_SCALAR_MINUS, False),
            (Mat2.diag(a, -a, p), CASE_SCALAR_SPLIT, False),
        ]
    if cls.kind == "diag":
        b = cls.b
        reps = [
            (Mat2.diag(a, b, p), CASE_DIAG_PLUS, False),
            (Mat2.diag(-a, -b, p), CASE_DIAG_MINUS, False),
            (Mat2.diag(-a, b, p), CASE_DIAG_MIXED_A, False),
            (Mat2.diag(a, -b, p), CASE_DIAG_MIXED_B, False),
        ]
        if b == p - a:
            reps += [
                (Mat2(a, 0, 1, -a, p), CASE_DIAG0_LOWER_PLUS, False),
                (Mat2(-a, 0, 1, a, p), CASE_DIAG0_LOWER_MINUS, False),
            ]
            reps += [
                (Mat2(k, 1, a * a - k * k, -k, p), CASE_DIAG0_FAMILY, k not in (a, b))
                for k in range(p)
            ]
        return reps
    if cls.kind == "jordan":
        return [(phi, CASE_JORDAN_PLUS, False), (-phi, CASE_JORDAN_MINUS, False)]
    central = [(phi, CASE_IRRED_PLUS, True), (-phi, CASE_IRRED_MINUS, True)]
    if cls.b != 0:
        return central
    inv_2a = pow(2 * a, -1, p)
    conic_level = (1 - 2 * a) % p
    levels = []
    for t in range(p):
        if t in (2 * a % p, -2 * a % p):
            continue
        for k in range(p):
            roots = sqrt_mod_prime(t * t - 4 * a * (a - k * k), p)
            if roots:
                l = min((t + r) * inv_2a % p for r in roots)
                case = CASE_IRRED0_CONIC if t == conic_level else CASE_IRRED0_ROOT
                levels.append((Mat2(k, l, t - a * l, -k, p), case, True))
                break
    square = phi.square()
    for psi, _, _ in levels:
        if psi.square() != square:
            raise AssertionError(f"{psi} is not a square root of {square}")
    return central + sorted(levels)


def burnside_orbit_count(cls: ConjClass) -> tuple[int, tuple[int, ...]]:
    """Orbit count and size multiset for the trace-zero irreducible case,
    computed by the generic oracle over all p^2 - 1 elements uI + v phi of
    the centralizer, both by fixed-point averaging and by direct partition.

    Both routes must agree, and the least points of the non-singleton
    orbits must be the psi of y_phi(cls)[2:]; the result is exactly p orbits with
    sizes {1, 1, (p+1) x (p-2)}.
    """
    from .oracle import ActionSpec, burnside_count, orbits

    p = cls.rep.p
    if cls.kind != "irreducible" or cls.b != 0:
        raise ValueError("Burnside counting applies to the ((0,1),(a,0)) representative")
    elements = [Mat2(u, v, cls.a * v, u, p) for u in range(p) for v in range(p) if u or v]
    inverses = {g: g.inv() for g in elements}
    spec = ActionSpec(
        points=sqrt_set(cls.rep.square()),
        act=lambda g, m: g @ m @ inverses[g],
        compose=lambda g, h: g @ h,
        identity=Mat2.identity(p),
        elements=elements,
    )
    by_average = burnside_count(spec)
    part = orbits(spec)
    if by_average != len(part.orbits):
        raise AssertionError(
            f"Burnside average {by_average} disagrees with direct partition {len(part.orbits)}"
        )
    if [psi for psi, _, _ in y_phi(cls)[2:]] != [orb[0] for orb in part.orbits if len(orb) > 1]:
        raise AssertionError("y_phi disagrees with the least points of the non-singleton orbits")
    return by_average, tuple(sorted(len(orb) for orb in part.orbits))


# -- coset representatives G_{phi,psi} -------------------------------------------


def coset_reps_for(phi: Mat2, psi: Mat2) -> list[Vec2]:
    """Transversal of the joint-centralizer action on Z_p^2 / Im(1-phi-psi).

    Full rank leaves only the zero coset.  Rank one gives {0, w} for any
    w outside the image, because every centralizer contains the scalar
    matrices, which act transitively on the non-zero cosets; w is the
    least such vector.  Rank zero happens only for phi = psi = 2^-1 I,
    where the joint centralizer is all of GL(2,p) and any non-zero
    vector serves: {0, (1,0)}.
    """
    if phi.square() != psi.square():
        raise ValueError("phi^2 != psi^2")
    p = phi.p
    m = Mat2.identity(p) - phi - psi
    zero = Vec2(0, 0, p)
    rank = m.rank()
    if rank == 2:
        return [zero]
    if rank == 0:
        return [zero, Vec2(1, 0, p)]
    col1 = Vec2(m.a, m.c, p)
    direction = col1 if not col1.is_zero() else Vec2(m.b, m.d, p)
    return [zero, vector_outside_line(direction)]


# -- the full classification ------------------------------------------------------


@dataclass(frozen=True)
class Gl2Classification:
    p: int
    classes: tuple[ClassRecord, ...]

    @property
    def total(self) -> int:
        return len(self.classes)

    def records(self) -> list[ClassRecord]:
        return list(self.classes)


def _records(p: int) -> Iterator[ClassRecord]:
    """Every class over Z_p x Z_p in output order: by the conjugacy class
    of phi, then in y_phi's order, then by c."""
    group = ElemAbelian2Group(p)
    if p == 2:
        from .oracle import classify_triples

        for form in classify_triples(group).representatives:
            yield ClassRecord(form, CASE_P2_ORACLE, is_simple(form))
        return
    for cls in conjugacy_classes(p):
        for psi, case, simple in y_phi(cls):
            for c in coset_reps_for(cls.rep, psi):
                yield ClassRecord(AffineForm(group, cls.rep, psi, c), case, simple)


def enumerate_gl2(p: int) -> Gl2Classification:
    """All classes over Z_p x Z_p: 4p^2 - 2 for odd p, 7 for p = 2."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return Gl2Classification(p=p, classes=tuple(_records(p)))
