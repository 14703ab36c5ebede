"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and enforces the stated tolerances, which
are exact equalities throughout, plus the stated runtime budgets.
"""

import time

import pytest
from gl2_crosschecks import burnside_orbit_count, conic_count, conic_solutions, nonsquares

from paramedial.affine import (
    AffineForm,
    CyclicGroup,
    ElemAbelian2Group,
    is_latin,
    is_paramedial,
    is_simple,
    materialize,
)
from paramedial.enum_cyclic import closed_form_count, enumerate_cyclic, pq_total
from paramedial.enum_gl2 import conjugacy_classes, enumerate_gl2, sqrt_set
from paramedial.modring import Modulus, all_matrices, mat_mul
from paramedial.oracle import (
    classify_tables,
    classify_triples,
    table_is_simple,
    triple_action_spec,
)
from reference import satisfies_paramedial_identity


def report(criterion: int, description: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    line = f"ACCEPTANCE {criterion}: {status} - {description}{timing}"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_counts():
    start = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        m1, m2 = Modulus(p, 1), Modulus(p, 2)
        ok &= enumerate_cyclic(m1).count == closed_form_count(m1) == 2 * p - 1
        ok &= enumerate_cyclic(m2).count == closed_form_count(m2) == 2 * p * p - p + 1
    for p in (3, 5, 7):
        ok &= enumerate_gl2(p).count == 4 * p * p - 2
        ok &= pq_total(p * p) == 6 * p * p - p - 1
    for (p, k), expected in [((2, 1), 1), ((2, 2), 4), ((2, 3), 16), ((2, 4), 32)]:
        m = Modulus(p, k)
        ok &= enumerate_cyclic(m).count == closed_form_count(m) == expected
    ok &= classify_triples(ElemAbelian2Group(2)).count == 7
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, "closed-form counts reproduced exactly in under 1s", ok, elapsed)


def test_criterion_2_oracle_equivalence_order_p_squared():
    start = time.perf_counter()
    ok = True
    for p, expected in ((3, 34), (5, 98)):
        oracle = classify_triples(ElemAbelian2Group(p))
        cls = enumerate_gl2(p)
        ok &= oracle.count == expected == cls.count
        hit = sorted(oracle.index[row[:3]] for row in cls.rows)
        ok &= hit == list(range(oracle.count))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(2, "exhaustive orbit classification matches the enumerator (34, 98)", ok, elapsed)


def test_criterion_3_tiny_scale_table_ground_truth():
    start = time.perf_counter()
    ok = True

    # order 3: classify every valid triple by its raw table alone
    group3 = CyclicGroup(Modulus(3, 1))
    spec3 = triple_action_spec(group3)
    raw_ids = classify_tables([materialize(AffineForm(group3, *t)) for t in spec3.points])
    ok &= len(set(raw_ids)) == 5
    ok &= classify_triples(group3).count == 5
    ok &= enumerate_cyclic(Modulus(3, 1)).count == 5

    # order 9: the 16 + 34 = 50 structured representatives are pairwise
    # non-isomorphic, and each is table-isomorphic to the oracle's canonical
    # representative of the same orbit
    structured, canonical = [], []
    for group, forms, expected in (
        (CyclicGroup(Modulus(3, 2)), enumerate_cyclic(Modulus(3, 2)).forms, 16),
        (ElemAbelian2Group(3), enumerate_gl2(3).forms, 34),
    ):
        oracle = classify_triples(group)
        ok &= oracle.count == len(forms) == expected
        for form in forms:
            rep = oracle.representatives[oracle.index[form.phi, form.psi, form.c]]
            structured.append(materialize(form))
            canonical.append(materialize(AffineForm(group, *rep)))
    ok &= classify_tables(structured + canonical) == list(range(50)) * 2
    elapsed = time.perf_counter() - start
    report(3, "raw Cayley-table classification agrees at orders 3 and 9 (5 and 50 classes)", ok, elapsed)


def test_criterion_4_matrix_square_roots():
    start = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        mats = list(all_matrices(p))
        seen = set()
        for cls in conjugacy_classes(p):
            a = mat_mul(cls.rep, cls.rep, p)
            if a in seen:
                continue
            seen.add(a)
            ok &= sqrt_set(a, p) == sorted(x for x in mats if mat_mul(x, x, p) == a)
    elapsed = time.perf_counter() - start
    report(4, "square-root sets equal brute force over all p^4 matrices", ok, elapsed)


def test_criterion_5_conic_point_counts():
    start = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13, 17):
        for a in nonsquares(p):
            ok &= conic_count(p, a) == p + 1
            sols = conic_solutions(p, a)
            ok &= all(l != 0 for _, l in sols)
            ok &= (0, 1) not in sols and (0, p - 1) not in sols
    elapsed = time.perf_counter() - start
    report(5, "conic has exactly p+1 points, none degenerate", ok, elapsed)


def test_criterion_6_burnside_orbit_structure():
    start = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        expected_sizes = tuple(sorted([1, 1] + [p + 1] * (p - 2)))
        for cls in conjugacy_classes(p):
            if cls.kind == "irreducible" and cls.b == 0:
                count, sizes = burnside_orbit_count(cls)  # checks both routes agree
                ok &= count == p and sizes == expected_sizes
    elapsed = time.perf_counter() - start
    report(6, "centralizer action has p orbits sized {1,1,(p+1)^(p-2)}", ok, elapsed)


def test_criterion_7_simplicity():
    start = time.perf_counter()
    ok = True
    ok &= sum(rec.simple for rec in enumerate_gl2(3).records()) == 9
    ok &= sum(rec.simple for rec in enumerate_gl2(5).records()) == 35
    for rec in enumerate_gl2(3).records() + enumerate_gl2(5).records():
        ok &= rec.simple == table_is_simple(materialize(rec.form))
    for m in (Modulus(3, 2), Modulus(5, 2)):
        for form in enumerate_cyclic(m).forms:
            ok &= not is_simple(form.group, form.phi, form.psi)
            ok &= not table_is_simple(materialize(form))
    elapsed = time.perf_counter() - start
    report(7, "simple counts are 9 and 35 and flags match the congruence oracle", ok, elapsed)


def test_criterion_8_structural_property_suite():
    start = time.perf_counter()
    ok = True
    form_sets = []
    for p, k in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2),
                 (7, 1), (11, 1), (13, 1)):
        form_sets.append(enumerate_cyclic(Modulus(p, k)).forms)
    for p in (2, 3, 5):
        form_sets.append(enumerate_gl2(p).forms)
    checked = 0
    for forms in form_sets:
        for form in forms:
            table = materialize(form)  # construction already enforced phi^2 = psi^2
            ok &= is_latin(table)
            ok &= satisfies_paramedial_identity(table)  # the raw n^4 identity
            ok &= is_paramedial(table)
            checked += 1
    # n = 49 through the O(n^2 log n) affine-recovery test only
    large = enumerate_cyclic(Modulus(7, 2)).forms + enumerate_gl2(7).forms
    for form in large:
        table = materialize(form)
        ok &= is_latin(table)
        ok &= is_paramedial(table)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(
        8,
        f"{checked} emitted forms (n <= 25) satisfy the identity and {len(large)} more (n = 49) "
        "pass the affine-recovery test; all tables latin",
        ok,
        elapsed,
    )


def test_criterion_9_multiplicativity():
    ok = pq_total(12) == 55 and pq_total(45) == 450
    report(9, "pq(12) = 11 * 5 and pq(45) = 50 * 9", ok)
