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
plain rows (phi, psi, c, case, simple) in output order, in an
``affine.Classification``, whose ``records()`` builds the checked
ClassRecords from them only when asked; ``cli enumerate`` renders the
rows as they are.  y_phi lists each psi with its case label and whether
its classes are simple, both set by the branch that builds it.  For the
trace-zero irreducible phi = ((0,1),(a,0)) the p - 2 non-central orbits
of Y_phi are the levels of t = tr(phi psi), conics with p + 1 points
each (see y_phi).

p = 2 degenerates (no 2^-1, no pairs 0 < a < b), so its 7 classes come
from a direct search of the 6 elements of GL(2,2) instead; each is
labelled ``p2-oracle`` with its simplicity from affine.is_simple.
"""

from __future__ import annotations

from collections.abc import Iterator

from .affine import Classification, ElemAbelian2Group, is_simple
from .modring import (
    Mat2,
    Vec2,
    gl2,
    is_prime,
    is_square_mod,
    mat_det,
    mat_inv,
    mat_mul,
    mat_neg,
    sqrt_mod_prime,
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
        raise ValueError(f"p={p} must be an odd prime (p = 2 is classified by direct search)")


# -- conjugacy classes of GL(2,p) -----------------------------------------------


class ConjClass:
    """One conjugacy class of GL(2,p), keyed by its representative shape.

    kind 'scalar': aI; 'diag': diag(a, b) with 0 < a < b; 'jordan':
    ((a,1),(0,a)); 'irreducible': the companion matrix ((0,1),(a,b)) of
    an irreducible x^2 - b x - a.
    """

    def __init__(self, p: int, kind: str, a: int, b: int | None, rep: Mat2):
        self.p = p
        self.kind = kind
        self.a = a
        self.b = b
        self.rep = rep


def conjugacy_classes(p: int) -> list[ConjClass]:
    """Representatives of all p^2 - 1 conjugacy classes of GL(2,p), p odd.

    Irreducibility of x^2 - b x - a is certified by the discriminant
    b^2 + 4a being a non-square.
    """
    _require_odd_prime(p)
    classes: list[ConjClass] = []
    for a in range(1, p):
        classes.append(ConjClass(p, "scalar", a, None, (a, 0, 0, a)))
    for a in range(1, p):
        for b in range(a + 1, p):
            classes.append(ConjClass(p, "diag", a, b, (a, 0, 0, b)))
    for a in range(1, p):
        classes.append(ConjClass(p, "jordan", a, None, (a, 1, 0, a)))
    for a in range(1, p):
        for b in range(p):
            if not is_square_mod(b * b + 4 * a, p):
                classes.append(ConjClass(p, "irreducible", a, b, (0, 1, a, b)))
    return classes


# -- square roots of 2x2 matrices ----------------------------------------------


def sqrt_set(a_mat: Mat2, p: int) -> list[Mat2]:
    """All X with X^2 = A over Z_p, p odd, in lexicographic order.

    Non-scalar A: Cayley-Hamilton forces X = (A + delta I) / tau with
    delta^2 = det(A) and tau^2 = tr(A) + 2 delta, tau != 0; every such
    candidate is a root, giving at most four.  Scalar A = cI: besides
    +-sqrt(c) I (when c is a square) the trace-zero matrices
    ((k,l),(m,-k)) with k^2 + lm = c all square to cI.
    """
    if p == 2:
        raise ValueError("square-root formulas need an odd prime")
    roots: set[Mat2] = set()
    a, b, c, d = a_mat
    if b == 0 and c == 0 and a == d:
        for r in sqrt_mod_prime(a, p):
            roots.add((r, 0, 0, r))
            roots.add((-r % p, 0, 0, -r % p))
        for k in range(p):
            need = (a - k * k) % p
            if need == 0:
                roots.update((k, 0, m, -k % p) for m in range(p))
                roots.update((k, l, 0, -k % p) for l in range(p))
            else:
                roots.update((k, l, need * pow(l, -1, p) % p, -k % p) for l in range(1, p))
    else:
        t = a + d
        for delta in sqrt_mod_prime(mat_det(a_mat, p), p):
            for sign in (1, -1):
                s = sign * delta % p
                for tau in sqrt_mod_prime(t + 2 * s, p):
                    if tau == 0:
                        continue
                    ti = pow(tau, -1, p)
                    x = ((a + s) * ti % p, b * ti % p, c * ti % p, (d + s) * ti % p)
                    roots.add(x)
                    roots.add(mat_neg(x, p))
    for x in roots:
        assert mat_mul(x, x, p) == a_mat
    return sorted(roots)


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
    others are irred0.psi-root.
    """
    p, a, phi = cls.p, cls.a, cls.rep
    if cls.kind == "scalar":
        return [
            (phi, CASE_SCALAR_PLUS, False),
            (mat_neg(phi, p), CASE_SCALAR_MINUS, False),
            ((a, 0, 0, p - a), CASE_SCALAR_SPLIT, False),
        ]
    if cls.kind == "diag":
        b = cls.b
        reps = [
            (phi, CASE_DIAG_PLUS, False),
            (mat_neg(phi, p), CASE_DIAG_MINUS, False),
            ((p - a, 0, 0, b), CASE_DIAG_MIXED_A, False),
            ((a, 0, 0, p - b), CASE_DIAG_MIXED_B, False),
        ]
        if b == p - a:
            reps += [
                ((a, 0, 1, b), CASE_DIAG0_LOWER_PLUS, False),
                ((b, 0, 1, a), CASE_DIAG0_LOWER_MINUS, False),
            ]
            reps += [
                ((k, 1, (a * a - k * k) % p, -k % p), CASE_DIAG0_FAMILY, k not in (a, b))
                for k in range(p)
            ]
        return reps
    if cls.kind == "jordan":
        return [(phi, CASE_JORDAN_PLUS, False), (mat_neg(phi, p), CASE_JORDAN_MINUS, False)]
    central = [(phi, CASE_IRRED_PLUS, True), (mat_neg(phi, p), CASE_IRRED_MINUS, True)]
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
                levels.append(((k, l, (t - a * l) % p, -k % p), case, True))
                break
    square = mat_mul(phi, phi, p)
    for psi, _, _ in levels:
        if mat_mul(psi, psi, p) != square:
            raise AssertionError(f"{psi} is not a square root of {square}")
    return central + sorted(levels)


# -- coset representatives G_{phi,psi} -------------------------------------------


def coset_reps_for(phi: Mat2, psi: Mat2, p: int) -> list[Vec2]:
    """Transversal of the joint-centralizer action on Z_p^2 / Im(1-phi-psi).

    Full rank leaves only the zero coset.  Rank one gives {0, w} for any
    w outside the image, because every centralizer contains the scalar
    matrices, which act transitively on the non-zero cosets; w is the
    least such vector.  That is (0, 1) unless the first row (a, b) of
    1 - phi - psi is zero: only then is the image inside the y-axis, and
    (1, 0) is the least vector off it.  Rank zero happens only for
    phi = psi = 2^-1 I, where the joint centralizer is all of GL(2,p) and
    any non-zero vector serves; the same rule gives {0, (1,0)}.
    """
    if mat_mul(phi, phi, p) != mat_mul(psi, psi, p):
        raise ValueError("phi^2 != psi^2")
    a, b = (1 - phi[0] - psi[0]) % p, (-phi[1] - psi[1]) % p
    c, d = (-phi[2] - psi[2]) % p, (1 - phi[3] - psi[3]) % p
    if (a * d - b * c) % p:
        return [(0, 0)]
    return [(0, 0), (0, 1) if a or b else (1, 0)]


# -- the full classification ------------------------------------------------------


# Only for perfbench/tracer.py, which wraps Gl2Classification.records; ROADMAP item 1 drops it.
Gl2Classification = Classification


def _rows_p2(group: ElemAbelian2Group) -> Iterator[tuple[Mat2, Mat2, Vec2, str, bool]]:
    """The classes over Z_2 x Z_2 by direct search of GL(2,2): the least
    phi of each conjugacy class, the least root psi of phi^2 in each orbit
    of C(phi), and c from coset_reps_for, all in increasing order."""
    gl = gl2(2)

    def least_of_orbits(points: list[Mat2], acting: list[Mat2]) -> list[Mat2]:
        reps: list[Mat2] = []
        seen: set[Mat2] = set()
        for x in points:
            if x not in seen:
                reps.append(x)
                seen.update(mat_mul(mat_mul(g, x, 2), mat_inv(g, 2), 2) for g in acting)
        return reps

    for phi in least_of_orbits(gl, gl):
        roots = [m for m in gl if mat_mul(m, m, 2) == mat_mul(phi, phi, 2)]
        centralizer = [g for g in gl if mat_mul(g, phi, 2) == mat_mul(phi, g, 2)]
        for psi in least_of_orbits(roots, centralizer):
            for c in coset_reps_for(phi, psi, 2):
                yield phi, psi, c, CASE_P2_ORACLE, is_simple(group, phi, psi)


def _rows(group: ElemAbelian2Group) -> Iterator[tuple[Mat2, Mat2, Vec2, str, bool]]:
    """Every class over Z_p x Z_p as (phi, psi, c, case, simple), in output
    order: by the conjugacy class of phi, then in y_phi's order, then by c."""
    if group.p == 2:
        yield from _rows_p2(group)
        return
    for cls in conjugacy_classes(group.p):
        for psi, case, simple in y_phi(cls):
            for c in coset_reps_for(cls.rep, psi, group.p):
                yield cls.rep, psi, c, case, simple


def enumerate_gl2(p: int) -> Classification:
    """All classes over Z_p x Z_p: 4p^2 - 2 for odd p, 7 for p = 2."""
    group = ElemAbelian2Group(p)  # refuses a p that is not a prime below 2^31
    return Classification(group, _rows(group))
