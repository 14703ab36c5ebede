import copy
import math
import itertools
import pickle
import re
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramedial.affine import (
    AffineForm,
    Classification,
    ClassRecord,
    CyclicGroup,
    ElemAbelian2Group,
    ParamedialConditionError,
    QuasigroupTable,
    ResourceLimitError,
    _walk_generators,
    is_latin,
    is_paramedial,
    is_simple,
    materialize,
    table_from_text,
    table_to_text,
)
from paramedial import enum_cyclic, enum_gl2
from paramedial.enum_cyclic import enumerate_cyclic
from paramedial.enum_gl2 import enumerate_gl2
from paramedial.cli import form_from_dict, record_to_dict
from paramedial.modring import Modulus, gl2, mat_mul, mat_vec
from reference import paramedial_by_loop, raw_table, satisfies_paramedial_identity


def cyclic_form(p, k, phi, psi, c):
    return AffineForm(CyclicGroup(Modulus(p, k)), phi, psi, c)


def elem2_form(p, phi, psi, c=(0, 0)):
    return AffineForm(ElemAbelian2Group(p), phi, psi, c)


def test_materialize_identity_automorphisms_gives_addition():
    table = materialize(cyclic_form(3, 1, 1, 1, 0))
    assert table.rows == tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))


def test_materialize_negation_form_is_paramedial():
    table = materialize(cyclic_form(3, 1, 2, 2, 0))
    assert table.rows == tuple(tuple((-x - y) % 3 for y in range(3)) for x in range(3))
    assert paramedial_by_loop(table)
    assert is_paramedial(table)


def test_order_two_quasigroup():
    table = materialize(cyclic_form(2, 1, 1, 1, 0))
    assert table.rows == ((0, 1), (1, 0))
    assert is_latin(table) and is_paramedial(table)


def test_subtraction_and_addition_are_paramedial():
    assert is_paramedial(raw_table(lambda x, y: (x - y) % 5, 5))
    assert is_paramedial(raw_table(lambda x, y: (x + y) % 5, 5))


def test_symmetric_group_table_is_not_paramedial():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(i, j):
        a, b = perms[i], perms[j]
        return index[tuple(a[b[t]] for t in range(3))]

    table = raw_table(compose, 6)
    assert is_latin(table)
    assert not is_paramedial(table)
    assert not satisfies_paramedial_identity(table)
    assert not paramedial_by_loop(table)


# identity 0, symmetric and latin, but (2+2)+4 = 3 != 2 = 2+(2+4)
COMMUTATIVE_LOOP_6 = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 3, 2, 5, 4),
    (2, 3, 4, 5, 0, 1),
    (3, 2, 5, 4, 1, 0),
    (4, 5, 0, 1, 3, 2),
    (5, 4, 1, 0, 2, 3),
)


def test_commutative_loop_that_is_not_a_group_is_not_paramedial():
    rows = COMMUTATIVE_LOOP_6
    table = QuasigroupTable(6, rows)
    assert is_latin(table) and rows[rows[2][2]][4] != rows[2][rows[2][4]]
    assert not is_paramedial(table)
    assert not satisfies_paramedial_identity(table)
    assert not paramedial_by_loop(table)


def closure(rows, elems):
    found = set(elems)
    while True:
        more = found | {rows[x][y] for x in found for y in found}
        if more == found:
            return found
        found = more


def generator_tables():
    # the walk translates on one side only, so it takes commutative tables:
    # the materialized classes with phi = psi, the commutative loop, and the symmetric tables
    tables = [materialize(f) for p in (3, 5, 7) for f in enumerate_gl2(p).forms if f.phi == f.psi]
    for p, k in [(3, 2), (7, 2), (2, 5)]:
        tables += [materialize(f) for f in enumerate_cyclic(Modulus(p, k)).forms if f.phi == f.psi]
    return tables + [QuasigroupTable(6, COMMUTATIVE_LOOP_6)] + symmetric_tables()


def symmetric_tables():
    # commutative tables: the groups (+) that is_paramedial passes in, and
    # commutative quasigroups without an identity
    tables = [raw_table(lambda x, y: (x + y) % n, n) for n in (25, 32, 49)]
    tables += [raw_table(partial(group_add, ElemAbelian2Group(p)), p * p) for p in (3, 5)]
    tables += [raw_table(lambda x, y: (3 * x + 3 * y + 1) % 7, 7), raw_table(lambda x, y: (-x - y) % 27, 27)]
    return tables


def test_generators_are_greedy_and_generate_within_the_log_bound():
    # the walk from 0: with 0 its generators generate the table, or it stops
    # past the log bound, which only a table without the zero 0 reaches here
    for table in generator_tables():
        rows, n = table.rows, table.n
        assert rows == tuple(zip(*rows))
        gens = _walk_generators(rows, 0)
        if gens is None:
            assert rows[0] != tuple(range(n))
            continue
        assert closure(rows, [0, *gens]) == set(range(n))
        assert len(gens) <= n.bit_length()  # floor(log2 n) + 1
        if rows[0] == tuple(range(n)):  # a loop with zero 0: each generator lies outside the closure before it
            assert all(g not in closure(rows, [0, *gens[:i]]) for i, g in enumerate(gens))


def test_a_walk_past_the_log_bound_rejects_a_commutative_loop():
    # a commutative loop with zero 1 that is no group; its isotope below,
    # read off as is_paramedial does, walks {1} -> {0, 1} -> {0, 1, 2, 5} and
    # then from 3 the first translate 2 = 0 + 3 is already reached: a fourth
    # generator would be needed where a group of order 6 needs at most two
    rows = (
        (1, 0, 3, 4, 5, 2),
        (0, 1, 2, 3, 4, 5),
        (3, 2, 1, 5, 0, 4),
        (4, 3, 5, 1, 2, 0),
        (5, 4, 0, 2, 3, 1),
        (2, 5, 4, 0, 1, 3),
    )
    isotope = [
        (1, 0, 5, 2, 3, 4),
        (0, 1, 2, 3, 4, 5),
        (5, 2, 3, 4, 0, 1),
        (2, 3, 4, 1, 5, 0),
        (3, 4, 0, 5, 1, 2),
        (4, 5, 1, 0, 2, 3),
    ]
    table = QuasigroupTable(6, rows)
    r_inv = sorted(range(6), key=[row[0] for row in rows].__getitem__)  # R = L, the table being commutative
    assert isotope == [tuple(rows[x][y] for y in r_inv) for x in r_inv] and isotope == list(zip(*isotope))
    assert _walk_generators(isotope, 1) is None
    assert not is_paramedial(table)
    assert not satisfies_paramedial_identity(table)


# Z_2 x Z_4 with (i, a) encoded as i + 2a, so that the walk from 0 finds the
# generators 1 = (1, 0) and 2 = (0, 1) of +.  Both tables below fail at the
# last generator only; a check that skips it accepts them.


def test_associativity_is_checked_at_every_generator():
    # (i, a) + (j, b) = (i + j + [a = b = 1], a + b): a commutative loop with
    # identity 0 whose nonassociative middles are exactly 2..7
    rows = (
        (0, 1, 2, 3, 4, 5, 6, 7),
        (1, 0, 3, 2, 5, 4, 7, 6),
        (2, 3, 5, 4, 6, 7, 0, 1),
        (3, 2, 4, 5, 7, 6, 1, 0),
        (4, 5, 6, 7, 0, 1, 2, 3),
        (5, 4, 7, 6, 1, 0, 3, 2),
        (6, 7, 0, 1, 2, 3, 4, 5),
        (7, 6, 1, 0, 3, 2, 5, 4),
    )
    table = QuasigroupTable(8, rows)
    assert is_latin(table) and rows == tuple(zip(*rows)) and _walk_generators(rows, 0) == [1, 2]
    n = range(8)
    bad = {m for x in n for m in n for y in n if rows[rows[x][m]][y] != rows[x][rows[m][y]]}
    assert bad == set(range(2, 8))
    assert not is_paramedial(table)
    assert not satisfies_paramedial_identity(table)


def test_additivity_is_checked_at_every_generator():
    # x*y = f(x) + y over the group Z_2 x Z_4, for the involution f swapping
    # (0, 2) and (1, 2): so phi = f and psi is the identity, phi^2 = psi^2,
    # and f(x + (1, 0)) = f(x) + (1, 0), but f((0, 1) + (0, 1)) = (1, 2)
    rows = (
        (0, 1, 2, 3, 4, 5, 6, 7),
        (1, 0, 3, 2, 5, 4, 7, 6),
        (2, 3, 4, 5, 6, 7, 0, 1),
        (3, 2, 5, 4, 7, 6, 1, 0),
        (5, 4, 7, 6, 1, 0, 3, 2),
        (4, 5, 6, 7, 0, 1, 2, 3),
        (6, 7, 0, 1, 2, 3, 4, 5),
        (7, 6, 1, 0, 3, 2, 5, 4),
    )
    table = QuasigroupTable(8, rows)
    f = [row[0] for row in rows]
    n = range(8)
    add = tuple(rows[f[x]] for x in n)  # x + y = f(x) * y, since f is an involution
    assert [f[f[x]] for x in n] == list(n) and add == tuple(zip(*add)) and add[0] == tuple(n)
    assert is_latin(table) and _walk_generators(add, 0) == [1, 2]
    bad = {b for a in n for b in n if f[add[a][b]] != add[f[a]][f[b]]}
    assert bad == set(range(2, 8))
    assert not is_paramedial(table)
    assert not satisfies_paramedial_identity(table)


def test_is_paramedial_matches_loop_reference_on_mixed_tables():
    tables = [
        raw_table(lambda x, y: (x - y) % 4, 4),
        raw_table(lambda x, y: (x + 2 * y) % 5, 5),
        raw_table(lambda x, y: (2 * x + y + 1) % 5, 5),
        raw_table(lambda x, y: (3 * x + 2 * y) % 7, 7),
    ]
    for t in tables:
        assert is_paramedial(t) == satisfies_paramedial_identity(t) == paramedial_by_loop(t)


def test_non_latin_table_is_outside_the_recovery_test():
    # the identity holds in the constant magma, but it is no quasigroup:
    # is_paramedial decides paramedial quasigroups, the oracle the identity
    constant = raw_table(lambda x, y: 0, 3)
    assert satisfies_paramedial_identity(constant) and paramedial_by_loop(constant)
    assert not is_paramedial(constant)
    # entries outside 0..n-1 are no table at all
    with pytest.raises(ValueError):
        QuasigroupTable(2, ((0, 1), (1, 2)))


def test_a_commutative_monoid_that_is_no_group_is_rejected():
    # x * y = max(x, y): its first row and column are the identity, it is
    # commutative and associative, and only the generators' inverses are
    # missing; the identity holds, since both sides are max(x, y, u, v)
    for n in range(2, 6):
        table = raw_table(max, n)
        assert satisfies_paramedial_identity(table) and not is_latin(table)
        assert not is_paramedial(table)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_entries_that_only_equal_an_int_are_refused(bad):
    # is_paramedial indexes rows by the entries, which a float cannot do, so
    # the table refuses any entry that is not an int, as AffineForm does
    with pytest.raises(TypeError, match="entries must be ints"):
        QuasigroupTable(2, ((0, bad), (1, 0)))
    table = QuasigroupTable(2, ((0, 1), (1, 0)))
    assert is_paramedial(table)
    assert table_to_text(table) == "order 2\n0 1\n1 0\n"
    assert table_to_text(QuasigroupTable(1, ((0,),))) == "order 1\n0\n"


@pytest.mark.parametrize("bad", [5, -1])
def test_out_of_range_entries_are_rejected(bad):
    with pytest.raises(ValueError, match="entries"):
        QuasigroupTable(2, ((0, 1), (1, bad)))
    with pytest.raises(ValueError, match="entries"):
        table_from_text(f"order 2\n0 1\n1 {bad}\n")


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "0 1\n1 0\n", "order\n", "order 2\n0 1\n1 0\n1 0\n", "order 2\n0 1\n", "order 2\n0 1\n1\n"],
)
def test_malformed_table_text_is_rejected(text):
    with pytest.raises(ValueError):
        table_from_text(text)


def test_is_latin_counterexamples():
    assert not is_latin(QuasigroupTable(2, ((0, 0), (0, 0))))
    assert not is_latin(QuasigroupTable(2, ((0, 1), (0, 1))))
    assert is_latin(materialize(cyclic_form(5, 1, 2, 3, 4)))


def test_paramedial_condition_is_structural():
    with pytest.raises(ParamedialConditionError):
        cyclic_form(5, 1, 1, 2, 0)
    with pytest.raises(ParamedialConditionError):
        elem2_form(3, (1, 0, 0, 1), (1, 1, 0, 1))
    # psi = -phi always valid
    cyclic_form(5, 1, 2, 3, 0)
    elem2_form(3, (1, 0, 0, 2), (0, 1, 1, 0))


def test_affine_form_rejects_singular_matrices():
    with pytest.raises(ValueError):
        elem2_form(3, (1, 0, 0, 0), (1, 0, 0, 0))


def test_cyclic_form_fields_are_reduced_units():
    form = cyclic_form(3, 2, 10, -1, 20)
    assert (form.phi, form.psi, form.c) == (1, 8, 2)
    with pytest.raises(ValueError):
        cyclic_form(3, 2, 3, 3, 0)
    with pytest.raises(TypeError):
        cyclic_form(3, 2, 1.0, 1, 0)


def test_elem2_form_fields_are_reduced_int_tuples():
    form = elem2_form(3, (4, -3, 9, -1), (1, 0, 0, 2), (5, -1))
    assert (form.phi, form.psi, form.c) == ((1, 0, 0, 2), (1, 0, 0, 2), (2, 2))
    with pytest.raises(ValueError):
        elem2_form(3, (1, 2, 2, 4), (1, 0, 0, 1))  # det = 0 mod 3
    with pytest.raises(ParamedialConditionError):
        elem2_form(5, (1, 0, 0, 1), (2, 0, 0, 1))
    for phi, c in [
        ([1, 0, 0, 1], (0, 0)),
        ((1, 0, 0), (0, 0)),
        ((1.0, 0, 0, 1), (0, 0)),
        ((1, 0, 0, 1), [0, 0]),
        ((1, 0, 0, 1), (0, 0, 0)),
        ((1, 0, 0, 1), (0.0, 0)),
    ]:
        with pytest.raises(TypeError):
            elem2_form(3, phi, (1, 0, 0, 1), c)
    rec = ClassRecord(form, "case", True)
    rebuilt = form_from_dict(record_to_dict(rec))
    assert rebuilt == form and (rebuilt.phi, rebuilt.psi, rebuilt.c) == (form.phi, form.psi, form.c)


@pytest.mark.parametrize(
    "make, args",
    [
        (Modulus, (3.0, 1)),
        (Modulus, (3, True)),
        (Modulus, ("3", 1)),
        (ElemAbelian2Group, (3.0,)),
        (ElemAbelian2Group, (True,)),
        (cyclic_form, (3, 1, True, 1, 0)),
        (elem2_form, (3, (1, 0, 0, 1), (1, 0, 0, 1), (0, True))),
    ],
    ids=["modulus-float-p", "modulus-bool-k", "modulus-str-p", "elem2-float-p", "elem2-bool-p",
         "cyclic-bool-phi", "elem2-bool-c"],
)
def test_constructors_refuse_non_int_values(make, args):
    with pytest.raises(TypeError):
        make(*args)


VALUES = {  # class: (a maker, its fields)
    "Modulus": (lambda: Modulus(3, 2), ("p", "k")),
    "CyclicGroup": (lambda: CyclicGroup(Modulus(3, 2)), ("modulus",)),
    "ElemAbelian2Group": (lambda: ElemAbelian2Group(3), ("p",)),
    "AffineForm": (lambda: cyclic_form(3, 2, 1, 8, 2), ("group", "phi", "psi", "c")),
    "ClassRecord": (lambda: ClassRecord(cyclic_form(3, 1, 1, 2, 0), "x", True), ("form", "case", "simple")),
    "QuasigroupTable": (lambda: QuasigroupTable(2, ((0, 1), (1, 0))), ("n", "rows")),
}


@pytest.mark.parametrize("make, names", VALUES.values(), ids=VALUES.keys())
def test_value_classes_are_immutable_and_compare_by_fields(make, names):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    fields = tuple(getattr(a, name) for name in names)
    assert a != fields and fields != a  # no tuple equality, as a NamedTuple would have
    assert all(a != other() for other, _ in VALUES.values() if other is not make)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
    assert a == b == pickle.loads(pickle.dumps(a)) == copy.deepcopy(a)


CYCLIC_PAIRS_9 = [(phi, psi) for phi in range(1, 9) for psi in range(1, 9)
                  if phi % 3 and psi % 3 and (phi * phi - psi * psi) % 9 == 0]


@given(st.sampled_from(CYCLIC_PAIRS_9), st.integers(min_value=0, max_value=8))
@settings(max_examples=40)
def test_materialized_cyclic_forms_are_latin_paramedial(pair, c):
    table = materialize(cyclic_form(3, 2, pair[0], pair[1], c))
    assert is_latin(table)
    assert is_paramedial(table)


GL3 = gl2(3)
ELEM2_PAIRS_3 = [(f, s) for f in GL3 for s in GL3 if mat_mul(f, f, 3) == mat_mul(s, s, 3)]


@given(st.sampled_from(ELEM2_PAIRS_3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40)
def test_materialized_elem2_forms_are_latin_paramedial(pair, cx, cy):
    g = ElemAbelian2Group(3)
    form = AffineForm(g, pair[0], pair[1], (cx, cy))
    table = materialize(form)
    assert is_latin(table)
    assert is_paramedial(table)


def test_serialization_round_trip_and_exact_text():
    table = materialize(cyclic_form(3, 1, 1, 1, 0))
    text = table_to_text(table)
    assert text == "order 3\n0 1 2\n1 2 0\n2 0 1\n"
    assert table_from_text(text) == table


def test_element_encoding_of_elem2():
    # (x, y) encodes as x*p + y: psi = identity, phi = identity, c = (1, 2)
    form = elem2_form(3, (1, 0, 0, 1), (1, 0, 0, 1), (1, 2))
    table = materialize(form)
    assert table.rows[0][0] == 1 * 3 + 2


def test_invariant_subgroups_cyclic_prime_square():
    # (0, 3, 6), the one proper subgroup of Z_9, is invariant under every unit
    assert not is_simple(CyclicGroup(Modulus(3, 2)), 2, 2)


def test_invariant_subgroups_shared_eigenbasis():
    # both axes, (0, 1, 2) and (0, 3, 6), are invariant
    assert not is_simple(ElemAbelian2Group(3), (1, 0, 0, 2), (1, 0, 0, 2))


def test_invariant_subgroups_irreducible_rotation():
    # x^2 - 2 has no root mod 3, so no eigenvector exists at all
    assert is_simple(ElemAbelian2Group(3), (0, 1, 2, 0), (0, 1, 2, 0))


def _some_line_maps_into_itself(p, phi, psi):
    """Brute force: is there a line {s v} that phi and psi both map into itself?"""
    def into(m, v):
        w = mat_vec(m, v, p)
        return any(w == (s * v[0] % p, s * v[1] % p) for s in range(p))

    return any(into(phi, v) and into(psi, v) for v in [(0, 1)] + [(1, t) for t in range(p)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_simple_matches_a_brute_force_over_lines(p):
    # all of GL(2,p)^2 for p = 2, 3 (36 and 2 304 pairs); the 3 840 pairs with phi^2 = psi^2 at p = 5
    group, gl = ElemAbelian2Group(p), gl2(p)
    pairs = [(f, s) for f in gl for s in gl if p < 5 or mat_mul(f, f, p) == mat_mul(s, s, p)]
    assert len(pairs) == {2: 36, 3: 2304, 5: 3840}[p]
    for phi, psi in pairs:
        assert is_simple(group, phi, psi) == (not _some_line_maps_into_itself(p, phi, psi)), (phi, psi)


def test_invariant_subgroups_match_full_images():
    # reference: some p^i Z_{p^k}, 0 < i < k, has its whole phi- and psi-images equal to itself
    for m in (Modulus(2, 4), Modulus(3, 3), Modulus(5, 1)):
        g = CyclicGroup(m)
        for form in enumerate_cyclic(m).forms:
            subs = [set(range(0, m.n, m.p**i)) for i in range(1, m.k)]
            invariant = [
                sub
                for sub in subs
                if {group_apply(g, form.phi, x) for x in sub} == sub == {group_apply(g, form.psi, x) for x in sub}
            ]
            assert is_simple(g, form.phi, form.psi) == (not invariant)


def test_simplicity_prime_order_and_mixed_pair():
    assert is_simple(CyclicGroup(Modulus(5, 1)), 3, 2)
    # phi diagonal, psi the swap: axes are phi's eigenlines but psi exchanges them
    assert is_simple(ElemAbelian2Group(3), (1, 0, 0, 2), (0, 1, 1, 0))


# -- what the group classes know about their kind -----------------------------


GROUPS_WITH_RECORDS = [CyclicGroup(Modulus(2, k)) for k in range(1, 9)]
GROUPS_WITH_RECORDS += [CyclicGroup(Modulus(3, k)) for k in range(1, 5)]
GROUPS_WITH_RECORDS += [CyclicGroup(Modulus(5, k)) for k in range(1, 4)]
GROUPS_WITH_RECORDS += [CyclicGroup(Modulus(101, k)) for k in (1, 2)]
GROUPS_WITH_RECORDS += [ElemAbelian2Group(p) for p in (2, 3, 5, 7, 11)]


@pytest.mark.parametrize("group", GROUPS_WITH_RECORDS, ids=lambda g: g.describe())
def test_closed_counts_match_the_records(group):
    rows = group.classification().rows
    assert group.closed_count() == len(rows)
    assert group.closed_count(simple_only=True) == sum(1 for row in rows if row[4])


ROW_GROUPS = [ElemAbelian2Group(p) for p in (2, 3, 5, 7, 11, 13, 17, 31)]
ROW_GROUPS += [CyclicGroup(Modulus(2, k)) for k in range(1, 13)]
ROW_GROUPS += [CyclicGroup(Modulus(3, k)) for k in range(1, 7)]
ROW_GROUPS += [CyclicGroup(Modulus(5, k)) for k in range(1, 5)]
ROW_GROUPS += [CyclicGroup(Modulus(7, 2)), CyclicGroup(Modulus(101, 2))]


def classification(group):
    return enumerate_cyclic(group.modulus) if isinstance(group, CyclicGroup) else enumerate_gl2(group.p)


@pytest.mark.parametrize("group", ROW_GROUPS, ids=lambda g: g.describe())
def test_rows_are_checked_forms_and_match_the_records(group):
    # enumerate renders the rows without building forms: each must be one
    cls = classification(group)
    assert type(cls) is Classification and cls.group == group
    rows, records = cls.rows, cls.records()
    assert rows == group.classification().rows
    assert len(rows) == len(records) == cls.count == group.closed_count()
    assert cls.forms == tuple(rec.form for rec in records)
    for row, rec in zip(rows, records):
        assert type(row) is tuple and len(row) == 5
        phi, psi, c, case, simple = row
        form = AffineForm(group, phi, psi, c)
        assert (form.phi, form.psi, form.c) == (phi, psi, c)  # already reduced
        assert type(case) is str and type(simple) is bool
        assert rec == ClassRecord(form, case, simple)
    keys = [row[:3] for row in rows]
    assert len(set(keys)) == len(keys)
    if isinstance(group, CyclicGroup):  # ordered by (phi, psi, c); over Z_p x Z_p by conjugacy class
        assert keys == sorted(keys)


@pytest.mark.parametrize("group", [ElemAbelian2Group(5), CyclicGroup(Modulus(5, 2))], ids=lambda g: g.describe())
def test_count_records_and_forms_read_the_stream(monkeypatch, group):
    rows = group.classification().rows

    def no_tuple(self):
        raise AssertionError("the row tuple was built")

    monkeypatch.setattr(Classification, "rows", property(no_tuple))
    cls = group.classification()
    assert cls.count == len(rows)
    assert [(r.form.phi, r.form.psi, r.form.c, r.case, r.simple) for r in cls.records()] == list(rows)
    assert [(f.phi, f.psi, f.c) for f in cls.forms] == [row[:3] for row in rows]


# 4p^2 - 2 = 400 560 194, 2^22 and 207 100 804 classes, above MAX_RECORDS = 2^20
OVER_THE_RECORD_BOUND = {
    "elem2(10007) has 400560194": lambda: enumerate_gl2(10007),
    "cyclic(2,21) has 4194304": lambda: enumerate_cyclic(Modulus(2, 21)),
    "cyclic(101,4) has 207100804": lambda: enumerate_cyclic(Modulus(101, 4)),
}


@pytest.mark.parametrize("count", OVER_THE_RECORD_BOUND)
def test_enumerators_refuse_a_group_over_the_record_bound(count):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=re.escape(f"enumeration is bounded to 1048576 classes, {count}")):
        OVER_THE_RECORD_BOUND[count]()
    assert time.perf_counter() - start < 1


def test_record_bound_is_checked_before_any_row_is_drawn(monkeypatch):
    def never_drawn(*args):
        raise AssertionError("a row was drawn")
        yield

    monkeypatch.setattr(enum_gl2, "_rows", never_drawn)
    monkeypatch.setattr(enum_cyclic, "_rows", never_drawn)
    for call in OVER_THE_RECORD_BOUND.values():
        with pytest.raises(ResourceLimitError):
            call()
    within = enumerate_gl2(3)  # within the bound: drawn when the rows are asked for, not before
    with pytest.raises(AssertionError, match="a row was drawn"):
        within.rows


# -- the table layer against cell-by-cell references --------------------------


def group_add(group, x, y):
    """x + y on encoded elements, from the arithmetic of G alone."""
    if isinstance(group, CyclicGroup):
        return (x + y) % group.order
    p = group.p
    return (x // p + y // p) % p * p + (x % p + y % p) % p


def group_apply(group, aut, x):
    """The automorphism aut applied to the encoded element x."""
    if isinstance(group, CyclicGroup):
        return aut * x % group.order
    u, v = mat_vec(aut, divmod(x, group.p), group.p)
    return u * group.p + v


def materialize_by_cells(form):
    # one cell at a time from the arithmetic of G, as the table layer was first written
    g = form.group
    n, c = g.order, g.encode(form.c)

    def cell(x, y):
        return group_add(g, group_add(g, group_apply(g, form.phi, x), group_apply(g, form.psi, y)), c)

    return tuple(tuple(cell(x, y) for y in range(n)) for x in range(n))


def table_to_text_by_str(table):
    return "\n".join([f"order {table.n}", *(" ".join(str(v) for v in row) for row in table.rows)]) + "\n"


TABLE_GROUPS = [CyclicGroup(Modulus(2, k)) for k in range(1, 6)]
TABLE_GROUPS += [CyclicGroup(Modulus(3, k)) for k in range(1, 4)]
TABLE_GROUPS += [CyclicGroup(Modulus(5, 2)), CyclicGroup(Modulus(7, 2))]
TABLE_GROUPS += [ElemAbelian2Group(p) for p in (2, 3, 5)]


@pytest.mark.parametrize("group", TABLE_GROUPS, ids=lambda g: g.describe())
def test_materialize_matches_the_cell_by_cell_reference(group):
    n = group.order
    for a in range(n):
        assert group.translations()[a] == tuple(group_add(group, a, y) for y in range(n))
    for form in classification(group).forms:
        table = materialize(form)
        assert table.rows == materialize_by_cells(form)
        # materialize skips the constructor's checks; its very rows must pass them
        assert QuasigroupTable(table.n, table.rows) == table and type(table.rows) is tuple
        assert all(type(row) is tuple for row in table.rows)
        text = table_to_text(table)
        assert text == table_to_text_by_str(table)
        assert table_from_text(text) == table


def test_is_paramedial_refuses_tables_whose_columns_are_not_latin():
    # rows latin and column 0 a permutation, column 1 not: s differs from its transpose
    columns_not_latin = QuasigroupTable(3, ((0, 1, 2), (1, 0, 2), (2, 1, 0)))
    # rows latin, column 0 repeats: R is no permutation
    column_0_repeats = QuasigroupTable(3, ((0, 1, 2), (0, 2, 1), (1, 2, 0)))
    # a paramedial table with two entries of one row swapped: its rows stay latin
    rows = [list(r) for r in materialize(elem2_form(3, (1, 0, 0, 1), (2, 0, 0, 2))).rows]
    rows[4][0], rows[4][1] = rows[4][1], rows[4][0]
    swapped = QuasigroupTable(9, tuple(map(tuple, rows)))
    for table in (columns_not_latin, column_0_repeats, swapped):
        assert all(sorted(row) == list(range(table.n)) for row in table.rows)
        assert not is_latin(table)
        assert not is_paramedial(table)


def test_order_one_table_is_paramedial():
    table = QuasigroupTable(1, ((0,),))
    assert is_latin(table) and is_paramedial(table) and satisfies_paramedial_identity(table)


@st.composite
def tables_with_latin_rows(draw):
    """Random rows; an isotope of x*y = ax + by mod n; or a relabelled
    affine table, a*a = b*b mod n, which is paramedial."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["rows", "isotope", "affine"]))
    if kind == "rows":
        return QuasigroupTable(n, tuple(tuple(draw(st.permutations(range(n)))) for _ in range(n)))
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    a = draw(st.sampled_from(units))
    b = draw(st.sampled_from([u for u in units if (u * u - a * a) % n == 0] if kind == "affine" else units))
    c = draw(st.integers(0, n - 1))
    pi = draw(st.permutations(range(n)))
    if kind == "isotope":
        alpha, beta = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        return raw_table(lambda x, y: pi[(a * alpha[x] + b * beta[y]) % n], n)
    inv = sorted(range(n), key=pi.__getitem__)
    return raw_table(lambda x, y: pi[(a * inv[x] + b * inv[y] + c) % n], n)


@given(tables_with_latin_rows())
@settings(max_examples=200, deadline=None)
def test_is_paramedial_decides_latin_and_the_identity(table):
    assert is_paramedial(table) == (is_latin(table) and satisfies_paramedial_identity(table))
