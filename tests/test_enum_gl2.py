import os
import subprocess
import sys
from collections import Counter
from math import comb

import pytest
from gl2_crosschecks import burnside_orbit_count, conic_count, conic_solutions, nonsquares

import paramedial
from paramedial.affine import ElemAbelian2Group, is_simple
from paramedial.enum_cyclic import simple_closed_count
from paramedial.enum_gl2 import (
    CASE_DIAG0_FAMILY,
    CASE_IRRED0_CONIC,
    CASE_IRRED0_ROOT,
    CASE_IRRED_MINUS,
    CASE_IRRED_PLUS,
    conjugacy_classes,
    coset_reps_for,
    enumerate_gl2,
    sqrt_set,
    y_phi,
)
from paramedial.modring import (
    all_matrices,
    gl2,
    is_prime,
    is_square_mod,
    mat_det,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_vec,
)
from paramedial.oracle import ActionSpec, classify_triples, orbits

ODD = [3, 5, 7]
IDENTITY = (1, 0, 0, 1)


def square(m, p):
    return mat_mul(m, m, p)


def conjugation_spec(points, p, **group):
    """GL(2,p) conjugation on `points`; `group` gives elements or generators and order."""
    gens = group.get("elements") or group["generators"]
    inverses = {g: mat_inv(g, p) for g in gens}
    return ActionSpec(
        points=points,
        act=lambda g, x: mat_mul(mat_mul(g, x, p), inverses[g], p),
        compose=lambda g, h: mat_mul(g, h, p),
        identity=IDENTITY,
        **group,
    )


def case_counts(records) -> Counter:
    return Counter(rec.case for rec in records)


def constants_by_pair(records) -> dict:
    """The constants c of the records, grouped by (phi, psi)."""
    grouped: dict = {}
    for rec in records:
        grouped.setdefault((rec.form.phi, rec.form.psi), []).append(rec.form.c)
    return grouped


def psis(cls):
    return [psi for psi, _, _ in y_phi(cls)]


# -- conjugacy classes ----------------------------------------------------------


def test_conjugacy_class_census_p3():
    classes = conjugacy_classes(3)
    assert len(classes) == 8
    kinds = {}
    for c in classes:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    assert kinds == {"scalar": 2, "diag": 1, "jordan": 2, "irreducible": 3}
    scalars = [c.rep for c in classes if c.kind == "scalar"]
    assert scalars == [(1, 0, 0, 1), (2, 0, 0, 2)]
    assert all(c.p == 3 for c in classes)
    for c in classes:
        if c.kind == "irreducible":
            assert not is_square_mod(c.b * c.b + 4 * c.a, 3)


@pytest.mark.parametrize("p", ODD)
def test_class_count_formula(p):
    classes = conjugacy_classes(p)
    expected = (p - 1) + comb(p - 1, 2) + (p - 1) + (p * p - p) // 2
    assert len(classes) == expected == p * p - 1


def _primitive_root(p):
    for g in range(2, p):
        seen, v = set(), 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        if len(seen) == p - 1:
            return g
    raise AssertionError


@pytest.mark.parametrize("p", ODD)
def test_representatives_hit_every_conjugacy_class_once(p):
    elements = gl2(p)
    gens = [(1, 1, 0, 1), (1, 0, 1, 1), (_primitive_root(p), 0, 0, 1)]
    part = orbits(conjugation_spec(elements, p, generators=gens, order=len(elements)))
    reps = [c.rep for c in conjugacy_classes(p)]
    assert len(part.orbits) == len(reps)
    assert sorted(part.index[r] for r in reps) == list(range(len(reps)))


# -- square roots -----------------------------------------------------------------


def test_sqrt_identity_has_14_roots_mod_3():
    roots = sqrt_set(IDENTITY, 3)
    assert len(roots) == 14
    brute = sorted(m for m in all_matrices(3) if square(m, 3) == IDENTITY)
    assert roots == brute


def test_sqrt_scalar_roots_mod_5():
    roots = sqrt_set((4, 0, 0, 4), 5)
    assert (2, 0, 0, 2) in roots and (3, 0, 0, 3) in roots
    for k in range(5):
        for l in range(5):
            for m in range(5):
                if (k * k + l * m) % 5 == 4:
                    assert (k, l, m, -k % 5) in roots


def test_sqrt_nonsquare_scalar_mod_3():
    roots = sqrt_set((2, 0, 0, 2), 3)
    assert len(roots) == 6  # p(p-1): no scalar roots, only trace-zero ones
    assert all((r[0] + r[3]) % 3 == 0 for r in roots)


@pytest.mark.parametrize("p", ODD)
def test_sqrt_set_equals_brute_force_for_all_squared_representatives(p):
    mats = list(all_matrices(p))
    seen = set()
    for cls in conjugacy_classes(p):
        a = square(cls.rep, p)
        if a in seen:
            continue
        seen.add(a)
        assert sqrt_set(a, p) == sorted(x for x in mats if square(x, p) == a)


def test_sqrt_set_rejects_p2():
    with pytest.raises(ValueError):
        sqrt_set(IDENTITY, 2)


# -- Y_phi -------------------------------------------------------------------------


def expected_y_size(cls):
    p = cls.p
    if cls.kind == "scalar":
        return 3
    if cls.kind == "diag":
        return 6 + p if cls.b == p - cls.a else 4
    if cls.kind == "jordan":
        return 2
    return p if cls.b == 0 else 2


@pytest.mark.parametrize("p", ODD)
def test_y_phi_sizes(p):
    for cls in conjugacy_classes(p):
        assert len(y_phi(cls)) == expected_y_size(cls)


@pytest.mark.parametrize("p", [3, 5])
def test_y_phi_hits_each_centralizer_orbit_once(p):
    invertible = gl2(p)
    mats = list(all_matrices(p))
    for cls in conjugacy_classes(p):
        rep = cls.rep
        centralizer = [m for m in invertible if mat_mul(m, rep, p) == mat_mul(rep, m, p)]
        target = square(rep, p)
        roots = [m for m in mats if square(m, p) == target]
        part = orbits(conjugation_spec(roots, p, elements=centralizer))
        hits = sorted(part.index[m] for m in psis(cls))
        assert hits == list(range(len(part.orbits)))


def test_y_phi_members_square_to_phi_squared():
    for p in ODD:
        for cls in conjugacy_classes(p):
            target = square(cls.rep, p)
            for psi in psis(cls):
                assert square(psi, p) == target


# -- Burnside count for the trace-zero irreducible case ----------------------------


def tracezero_irreducible_classes(p):
    return [c for c in conjugacy_classes(p) if c.kind == "irreducible" and c.b == 0]


def test_burnside_p3():
    (cls,) = tracezero_irreducible_classes(3)
    assert cls.a == 2
    assert burnside_orbit_count(cls) == (3, (1, 1, 4))


def test_burnside_p5():
    for cls in tracezero_irreducible_classes(5):
        assert cls.a in (2, 3)
        assert burnside_orbit_count(cls) == (5, (1, 1, 6, 6, 6))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_burnside_orbit_structure(p):
    expected_sizes = tuple(sorted([1, 1] + [p + 1] * (p - 2)))
    for cls in tracezero_irreducible_classes(p):
        count, sizes = burnside_orbit_count(cls)
        assert count == p
        assert sizes == expected_sizes


def _mat_pow(m, e, p):
    result = IDENTITY
    while e:
        if e & 1:
            result = mat_mul(result, m, p)
        m = square(m, p)
        e >>= 1
    return result


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_closed_form_y_phi_matches_a_cyclic_generator_partition(p):
    # C(phi) = F_p[phi]^x is cyclic of order p^2 - 1, so one generator
    # uI + v phi of that order partitions S_phi, taken here by brute
    # force from k^2 + lm = a rather than from sqrt_set
    n = p * p - 1
    factors = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
    for cls in tracezero_irreducible_classes(p):
        a = cls.a
        gen = next(
            g
            for g in ((u, v, a * v % p, u) for u in range(p) for v in range(1, p))
            if all(_mat_pow(g, n // q, p) != IDENTITY for q in factors)
        )
        roots = [
            (k, l, m, -k % p)
            for k in range(p)
            for l in range(p)
            for m in range(p)
            if (k * k + l * m - a) % p == 0
        ]
        part = orbits(conjugation_spec(roots, p, generators=[gen], order=n))
        reps = psis(cls)
        assert reps[:2] == [cls.rep, mat_neg(cls.rep, p)]
        assert sorted(reps) == list(part.representatives)


def test_burnside_rejects_other_kinds():
    cls = next(c for c in conjugacy_classes(5) if c.kind == "scalar")
    with pytest.raises(ValueError):
        burnside_orbit_count(cls)


# -- conic point count ---------------------------------------------------------------


def test_conic_solutions_p3():
    assert conic_solutions(3, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_conic_count_is_p_plus_one(p):
    for a in nonsquares(p):
        assert conic_count(p, a) == p + 1
        for (k, l) in conic_solutions(p, a):
            assert l != 0
            assert (k, l) not in ((0, 1), (0, p - 1))


def test_conic_rejects_square_parameter():
    with pytest.raises(ValueError):
        conic_count(7, 2)  # 2 = 3^2 mod 7
    with pytest.raises(ValueError):
        conic_count(2, 1)


# -- coset representatives -----------------------------------------------------------


def one_minus(phi, psi, p):
    """1 - phi - psi, built entry by entry."""
    a, b, c, d = (-x - y for x, y in zip(phi, psi))
    return ((1 + a) % p, b % p, c % p, (1 + d) % p)


def test_coset_reps_rank_zero_case():
    # phi = psi = 2^-1 I makes 1 - phi - psi vanish; 2^-1 = 2 mod 3
    half = (2, 0, 0, 2)
    assert one_minus(half, half, 3) == (0, 0, 0, 0)
    assert coset_reps_for(half, half, 3) == [(0, 0), (1, 0)]


def test_coset_reps_full_rank():
    phi = IDENTITY
    assert mat_det(one_minus(phi, phi, 5), 5) != 0
    assert coset_reps_for(phi, phi, 5) == [(0, 0)]


def test_coset_reps_rank_one():
    # every rank-one 1 - phi - psi with phi^2 = psi^2: the second
    # representative is the least vector outside the brute-force image
    for p in ODD:
        vectors = [(x, y) for x in range(p) for y in range(p)]
        invertible = gl2(p)
        by_square = {}
        for m in invertible:
            by_square.setdefault(square(m, p), []).append(m)
        rank_one = 0
        for phi in invertible:
            for psi in by_square[square(phi, p)]:
                m = one_minus(phi, psi, p)
                if mat_det(m, p) != 0 or m == (0, 0, 0, 0):
                    continue
                rank_one += 1
                image = {mat_vec(m, v, p) for v in vectors}
                assert len(image) == p
                least_off = next(v for v in vectors if v not in image)
                assert coset_reps_for(phi, psi, p) == [(0, 0), least_off]
        assert rank_one > 0


def test_coset_reps_requires_matching_squares():
    with pytest.raises(ValueError):
        coset_reps_for(IDENTITY, (1, 1, 0, 1), 3)


# -- the classification ---------------------------------------------------------------


@pytest.mark.parametrize("p,total", [(2, 7), (3, 34), (5, 98), (7, 194)])
def test_total_class_count(p, total):
    assert enumerate_gl2(p).count == total


@pytest.mark.parametrize("p", ODD)
def test_family_subtotals(p):
    counts = case_counts(enumerate_gl2(p).records())
    scalar = sum(v for c, v in counts.items() if c.startswith("scalar"))
    diag = sum(v for c, v in counts.items() if c.startswith("diag"))
    jordan = sum(v for c, v in counts.items() if c.startswith("jordan"))
    irred = sum(v for c, v in counts.items() if c.startswith("irred"))
    assert scalar == 3 * p - 1
    assert diag == (5 * p * p - 6 * p - 1) // 2
    assert jordan == 2 * p - 1
    assert irred == (3 * p * p - 4 * p + 1) // 2


@pytest.mark.parametrize("p", ODD)
def test_per_case_counts(p):
    counts = case_counts(enumerate_gl2(p).records())
    assert counts["scalar.psi-plus"] == p
    assert counts["scalar.psi-minus"] == p - 1
    assert counts["scalar.psi-split"] == p
    assert counts["diag.psi-plus"] == comb(p - 2, 2) + 2 * (p - 2)
    assert counts["diag.psi-minus"] == comb(p - 1, 2)
    mixed = counts["diag.psi-mixed-a"] + counts["diag.psi-mixed-b"]
    assert mixed == 2 * comb(p - 2, 2) + (p - 2) + 2 * (p - 2)
    assert counts["diag0.psi-lower-plus"] == (p - 3) // 2 + 2
    assert counts["diag0.psi-lower-minus"] == (p - 1) // 2
    assert counts["diag0.psi-family"] == (p - 1) ** 2 // 2 + (p - 1)
    assert counts["jordan.psi-plus"] == p
    assert counts["jordan.psi-minus"] == p - 1
    assert counts["irred.psi-plus"] == (p * p - p) // 2
    assert counts["irred.psi-minus"] == (p * p - p) // 2
    assert counts.get("irred0.psi-root", 0) == (p - 1) * (p - 3) // 2
    assert counts["irred0.psi-conic"] == p - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rows_are_structurally_valid(p):
    for (phi, psi), constants in constants_by_pair(enumerate_gl2(p).records()).items():
        assert mat_det(phi, p) != 0 and mat_det(psi, p) != 0
        assert square(phi, p) == square(psi, p)
        assert constants[0] == (0, 0)
        if p != 2:
            assert constants == coset_reps_for(phi, psi, p)


def test_p2_search_matches_classify_triples():
    cls = enumerate_gl2(2)
    assert cls.count == 7
    assert tuple(row[:3] for row in cls.rows) == classify_triples(ElemAbelian2Group(2)).representatives
    assert all(r.case == "p2-oracle" for r in cls.records())
    assert sum(1 for r in cls.records() if r.simple) == 3


def test_enumerator_does_not_import_the_oracle():
    code = (
        "import sys; from paramedial.enum_gl2 import enumerate_gl2; "
        "enumerate_gl2(2); enumerate_gl2(3); print('paramedial.oracle' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(paramedial.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


# -- simplicity ---------------------------------------------------------------------


@pytest.mark.parametrize("p,count", [(3, 9), (5, 35), (7, 77), (2, 3), (11, 209), (13, 299), (31, 1829)])
def test_simple_class_count(p, count):
    assert sum(rec.simple for rec in enumerate_gl2(p).records()) == count == simple_closed_count(p)


@pytest.mark.parametrize("p", ODD)
def test_simple_family_counts(p):
    simple = [rec for rec in enumerate_gl2(p).records() if rec.simple]
    counts = case_counts(simple)
    assert counts.get(CASE_IRRED_PLUS, 0) == (p * p - p) // 2
    assert counts.get(CASE_IRRED_MINUS, 0) == (p * p - p) // 2
    assert counts.get(CASE_IRRED0_ROOT, 0) == (p - 1) * (p - 3) // 2
    assert counts.get(CASE_IRRED0_CONIC, 0) == p - 1
    family = counts.get(CASE_DIAG0_FAMILY, 0)
    assert family == (p * p - 4 * p + 5) // 2 + (p - 3)
    # split of the family by number of admissible constants
    family_pairs = constants_by_pair(rec for rec in simple if rec.case == CASE_DIAG0_FAMILY)
    ones = sum(len(cs) for cs in family_pairs.values() if len(cs) == 1)
    twos = sum(len(cs) for cs in family_pairs.values() if len(cs) == 2)
    assert ones == (p * p - 4 * p + 5) // 2
    assert twos == p - 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_simple_flags_agree_with_invariant_subgroup_criterion(p):
    group = ElemAbelian2Group(p)
    for phi, psi, _, _, simple in group.rows():
        assert simple == is_simple(group, phi, psi)


def test_simple_rows_have_no_diagonalizable_scalar_or_jordan_phi():
    for rec in enumerate_gl2(5).records():
        if rec.simple:
            assert rec.case.startswith("irred") or rec.case == CASE_DIAG0_FAMILY


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_stream_simplicity_and_labels_match_their_definitions(p):
    cases = set()
    for rec in enumerate_gl2(p).records():
        phi, psi = rec.form.phi, rec.form.psi
        cases.add(rec.case)
        assert rec.simple == is_simple(rec.form.group, phi, psi)
        if rec.case.startswith("irred0"):
            singular = mat_det(one_minus(phi, psi, p), p) == 0
            assert (rec.case == CASE_IRRED0_CONIC) == singular
        if rec.case == CASE_DIAG0_FAMILY:
            assert rec.simple == (psi[0] not in (phi[0], p - phi[0]))
    assert {CASE_IRRED0_CONIC, CASE_DIAG0_FAMILY} <= cases


# -- oracle equivalence ----------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_equivalence_small(p):
    group = ElemAbelian2Group(p)
    oracle = classify_triples(group)
    cls = enumerate_gl2(p)
    assert oracle.count == cls.count
    hit = sorted(oracle.index[row[:3]] for row in cls.rows)
    assert hit == list(range(oracle.count))
