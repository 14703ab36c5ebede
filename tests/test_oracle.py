import itertools
import random

import pytest

from paramedial.affine import (
    CyclicGroup,
    ElemAbelian2Group,
    QuasigroupTable,
    is_simple,
    materialize,
)
from paramedial.enum_cyclic import closed_form_count, enumerate_cyclic
from paramedial.modring import Modulus, gl2, mat_inv, mat_mul
from paramedial.oracle import (
    ActionSpec,
    ResourceLimitError,
    burnside_count,
    classify_tables,
    classify_triples,
    decode_triple,
    encode_triple,
    is_congruence,
    orbits,
    partition_from_subgroup,
    principal_congruence,
    simple_via_subgroup_congruences,
    table_is_simple,
    table_isomorphic,
    triple_action_spec,
    validate_action,
)


def raw_table(op, n):
    return QuasigroupTable(n, tuple(tuple(op(x, y) for y in range(n)) for x in range(n)))


# -- orbit machinery -----------------------------------------------------------


def trivial_spec():
    return ActionSpec(
        points=[1, 2, 3, 4, 5],
        act=lambda g, x: x,
        compose=lambda g, h: g,
        identity=0,
        elements=[0],
    )


def scaling_spec():
    return ActionSpec(
        points=list(range(5)),
        act=lambda g, x: g * x % 5,
        compose=lambda g, h: g * h % 5,
        identity=1,
        elements=[1, 2, 3, 4],
    )


def conjugation_spec(p):
    elements = gl2(p)
    inv = {g: mat_inv(g, p) for g in elements}
    return ActionSpec(
        points=elements,
        act=lambda g, x: mat_mul(mat_mul(g, x, p), inv[g], p),
        compose=lambda g, h: mat_mul(g, h, p),
        identity=(1, 0, 0, 1),
        elements=elements,
    )


def test_trivial_action_gives_singletons():
    part = orbits(trivial_spec())
    assert part.orbits == ((1,), (2,), (3,), (4,), (5,))
    assert part.stabilizer_orders == (1, 1, 1, 1, 1)


def test_scaling_action_orbits():
    part = orbits(scaling_spec())
    assert part.orbits == ((0,), (1, 2, 3, 4))
    assert part.representatives == (0, 1)
    assert part.stabilizer_orders == (4, 1)


def test_gl23_conjugation_has_8_orbits():
    part = orbits(conjugation_spec(3))
    assert len(part.orbits) == 8
    for orb, stab in zip(part.orbits, part.stabilizer_orders):
        assert len(orb) * stab == part.group_order


def test_burnside_identity_on_orbit_specs():
    for spec in (trivial_spec(), scaling_spec(), conjugation_spec(3)):
        assert burnside_count(spec) == len(orbits(spec).orbits)


def test_burnside_identity_on_triple_actions():
    for group in (CyclicGroup(Modulus(3, 1)), CyclicGroup(Modulus(3, 2)),
                  CyclicGroup(Modulus(2, 2)), ElemAbelian2Group(2)):
        spec = triple_action_spec(group, with_elements=True)
        assert burnside_count(spec) == len(orbits(spec).orbits)


def test_validate_action_spot_checks():
    rng = random.Random(7)
    validate_action(triple_action_spec(CyclicGroup(Modulus(3, 2)), with_elements=True), rng)
    validate_action(triple_action_spec(ElemAbelian2Group(3), with_elements=True), rng, samples=15)


def test_orbits_budget():
    with pytest.raises(ResourceLimitError):
        orbits(trivial_spec(), max_points=2)


# -- classification of triples ---------------------------------------------------


@pytest.mark.parametrize("p,expected", [(2, 1), (3, 5), (5, 9), (7, 13)])
def test_classify_prime_orders(p, expected):
    assert classify_triples(CyclicGroup(Modulus(p, 1))).count == expected


def test_classify_small_two_groups():
    assert classify_triples(CyclicGroup(Modulus(2, 2))).count == 4
    assert classify_triples(ElemAbelian2Group(2)).count == 7


def test_classify_order_nine():
    assert classify_triples(CyclicGroup(Modulus(3, 2))).count == 16
    assert classify_triples(ElemAbelian2Group(3)).count == 34


def test_classify_representatives_are_canonical():
    cls = classify_triples(CyclicGroup(Modulus(3, 1)))
    reps = [encode_triple(f) for f in cls.representatives]
    for rep, orbit in zip(reps, cls.partition.orbits):
        assert rep == min(orbit)
    assert reps == sorted(reps)


def test_classify_bound():
    with pytest.raises(ResourceLimitError):
        classify_triples(CyclicGroup(Modulus(3, 3)))  # 27 > default bound 25
    classify_triples(CyclicGroup(Modulus(3, 3)), max_order=27)


# -- raw table isomorphism ---------------------------------------------------------


def test_table_isomorphic_reflexive():
    t = materialize(enumerate_cyclic(Modulus(3, 1)).forms[0])
    assert table_isomorphic(t, t)


def test_addition_vs_double_negation_not_isomorphic():
    add = raw_table(lambda x, y: (x + y) % 3, 3)
    neg = raw_table(lambda x, y: (-x - y) % 3, 3)
    # x*x = x everywhere in one, only at 0 in the other
    assert not table_isomorphic(add, neg)


def test_five_classes_of_order_three_pairwise_non_isomorphic():
    tables = [materialize(f) for f in enumerate_cyclic(Modulus(3, 1)).forms]
    assert len(tables) == 5
    for a, b in itertools.combinations(tables, 2):
        assert not table_isomorphic(a, b)


def test_equivalent_constants_give_isomorphic_tables():
    m = Modulus(5, 1)
    group = CyclicGroup(m)
    t1 = materialize(decode_triple(group, (1, 1, 1)))
    t2 = materialize(decode_triple(group, (1, 1, 2)))
    assert table_isomorphic(t1, t2)


def test_relabelled_table_is_isomorphic():
    rng = random.Random(3)
    base = materialize(enumerate_cyclic(Modulus(3, 2)).forms[5])
    perm = list(range(9))
    rng.shuffle(perm)
    relabelled = raw_table(lambda x, y: perm[base.rows[perm.index(x)][perm.index(y)]], 9)
    assert table_isomorphic(base, relabelled)


def test_table_isomorphic_bound():
    big = raw_table(lambda x, y: (x + y) % 10, 10)
    with pytest.raises(ResourceLimitError):
        table_isomorphic(big, big)


def test_classify_tables_partitions_all_order_three_triples():
    group = CyclicGroup(Modulus(3, 1))
    spec = triple_action_spec(group)
    tables = [materialize(decode_triple(group, t)) for t in spec.points]
    ids = classify_tables(tables)
    assert len(set(ids)) == 5


# -- congruences -------------------------------------------------------------------


def test_principal_congruence_detects_block_structure():
    add4 = raw_table(lambda x, y: (x + y) % 4, 4)
    classes = principal_congruence(add4, 0, 2)
    assert classes == (0, 1, 0, 1)
    assert not table_is_simple(add4)


def test_subtraction_mod_5_is_simple():
    sub5 = raw_table(lambda x, y: (x - y) % 5, 5)
    assert table_is_simple(sub5)


def test_table_is_simple_bound():
    big = raw_table(lambda x, y: (x - y) % 16, 16)
    with pytest.raises(ResourceLimitError):
        table_is_simple(big)


def test_subgroup_partition_and_congruence():
    group = CyclicGroup(Modulus(3, 2))
    ids = partition_from_subgroup(group, (0, 3, 6))
    assert len(set(ids)) == 3
    add9 = raw_table(lambda x, y: (x + y) % 9, 9)
    assert is_congruence(add9, ids)
    assert not is_congruence(add9, (0, 0, 1, 1, 2, 2, 0, 1, 2))


def test_simplicity_oracles_agree_at_order_nine():
    group = ElemAbelian2Group(3)
    spec = triple_action_spec(group)
    cls = classify_triples(group)
    for form in cls.representatives:
        structural = is_simple(form)
        by_subgroups = simple_via_subgroup_congruences(form)
        by_search = table_is_simple(materialize(form))
        assert structural == by_subgroups == by_search
    for form in enumerate_cyclic(Modulus(3, 2)).forms:
        assert not is_simple(form)
        assert not simple_via_subgroup_congruences(form)
        assert not table_is_simple(materialize(form))
