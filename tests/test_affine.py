import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramedial.affine import (
    AffineForm,
    ClassRecord,
    CyclicGroup,
    ElemAbelian2Group,
    ParamedialConditionError,
    QuasigroupTable,
    invariant_proper_subgroups,
    is_latin,
    is_paramedial,
    is_simple,
    materialize,
    proper_subgroups,
    table_from_text,
    table_to_text,
)
from paramedial.enum_cyclic import enumerate_cyclic
from paramedial.enum_gl2 import enumerate_gl2
from paramedial.cli import form_from_dict, record_to_dict
from paramedial.modring import Modulus, gl2, mat_mul
from paramedial.oracle import encode_triple, satisfies_paramedial_identity


def cyclic_form(p, k, phi, psi, c):
    return AffineForm(CyclicGroup(Modulus(p, k)), phi, psi, c)


def elem2_form(p, phi, psi, c=(0, 0)):
    return AffineForm(ElemAbelian2Group(p), phi, psi, c)


def raw_table(op, n):
    return QuasigroupTable(n, tuple(tuple(op(x, y) for y in range(n)) for x in range(n)))


def paramedial_by_loop(table):
    # quadruple-by-quadruple reference check, independent of the
    # vectorized implementation
    t = table.rows
    n = table.n
    for x, y, u, v in itertools.product(range(n), repeat=4):
        if t[t[x][y]][t[u][v]] != t[t[v][y]][t[u][x]]:
            return False
    return True


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


def test_commutative_loop_that_is_not_a_group_is_not_paramedial():
    # identity 0, symmetric and latin, but (2+2)+4 = 3 != 2 = 2+(2+4)
    rows = (
        (0, 1, 2, 3, 4, 5),
        (1, 0, 3, 2, 5, 4),
        (2, 3, 4, 5, 0, 1),
        (3, 2, 5, 4, 1, 0),
        (4, 5, 0, 1, 3, 2),
        (5, 4, 1, 0, 2, 3),
    )
    table = QuasigroupTable(6, rows)
    assert is_latin(table) and rows[rows[2][2]][4] != rows[2][rows[2][4]]
    assert not is_paramedial(table)
    assert not satisfies_paramedial_identity(table)
    assert not paramedial_by_loop(table)


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


@pytest.mark.parametrize("bad", [5, -1])
def test_out_of_range_entries_are_rejected(bad):
    with pytest.raises(ValueError, match="entries"):
        QuasigroupTable(2, ((0, 1), (1, bad)))
    with pytest.raises(ValueError, match="entries"):
        table_from_text(f"order 2\n0 1\n1 {bad}\n")


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
    assert rebuilt == form and encode_triple(rebuilt) == encode_triple(form)


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


def test_proper_subgroups():
    assert proper_subgroups(CyclicGroup(Modulus(3, 2))) == [(0, 3, 6)]
    assert proper_subgroups(CyclicGroup(Modulus(3, 1))) == []
    assert proper_subgroups(CyclicGroup(Modulus(2, 3))) == [(0, 2, 4, 6), (0, 4)]
    lines = proper_subgroups(ElemAbelian2Group(3))
    assert len(lines) == 4
    assert (0, 1, 2) in lines  # span of (0,1)
    assert (0, 3, 6) in lines  # span of (1,0)


def test_invariant_subgroups_cyclic_prime_square():
    form = cyclic_form(3, 2, 2, 2, 1)
    assert invariant_proper_subgroups(form) == [(0, 3, 6)]
    assert not is_simple(form)


def test_invariant_subgroups_shared_eigenbasis():
    form = elem2_form(3, (1, 0, 0, 2), (1, 0, 0, 2))
    subs = invariant_proper_subgroups(form)
    assert sorted(subs) == [(0, 1, 2), (0, 3, 6)]
    assert not is_simple(form)


def test_invariant_subgroups_irreducible_rotation():
    # x^2 - 2 has no root mod 3, so no eigenvector exists at all
    form = elem2_form(3, (0, 1, 2, 0), (0, 1, 2, 0))
    assert invariant_proper_subgroups(form) == []
    assert is_simple(form)


def test_invariant_subgroups_match_full_images():
    # reference: a subgroup is invariant when its whole phi- and psi-images equal it
    forms = [r.form for p in (3, 5) for r in enumerate_gl2(p).records()]
    forms += list(enumerate_cyclic(Modulus(2, 4)).forms) + list(enumerate_cyclic(Modulus(3, 3)).forms)
    for form in forms:
        g = form.group
        expected = [
            sub
            for sub in proper_subgroups(g)
            if {g.apply(form.phi, x) for x in sub} == set(sub) == {g.apply(form.psi, x) for x in sub}
        ]
        assert invariant_proper_subgroups(form) == expected


def test_simplicity_prime_order_and_mixed_pair():
    assert is_simple(cyclic_form(5, 1, 3, 2, 4))
    # phi diagonal, psi the swap: axes are phi's eigenlines but psi exchanges them
    assert is_simple(elem2_form(3, (1, 0, 0, 2), (0, 1, 1, 0)))
