import collections
import functools
import itertools
import random

import pytest

from paramedial.affine import (
    AffineForm,
    CyclicGroup,
    ElemAbelian2Group,
    QuasigroupTable,
    is_simple,
    materialize,
)
from paramedial.enum_cyclic import closed_form_count, enumerate_cyclic
from paramedial.enum_gl2 import enumerate_gl2
from paramedial import oracle
from paramedial.modring import Modulus, gl2, mat_inv, mat_mul
from paramedial.oracle import (
    ActionSpec,
    ResourceLimitError,
    burnside_count,
    classify_tables,
    classify_triples,
    classify_two_stage,
    is_congruence,
    orbits,
    partition_from_subgroup,
    principal_congruence,
    simple_via_subgroup_congruences,
    table_is_simple,
    table_isomorphic,
    _automorphisms,
    _signature,
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
    reps = list(cls.representatives)
    for rep, orbit in zip(reps, cls.orbits):
        assert rep == min(orbit)
    assert reps == sorted(reps)


def test_classify_bound():
    with pytest.raises(ResourceLimitError):
        classify_triples(CyclicGroup(Modulus(3, 3)))  # 27 > default bound 25
    classify_triples(CyclicGroup(Modulus(3, 3)), max_order=27)


# -- the two-stage classifier against the reference ---------------------------------


CYCLIC_AT_MOST_27 = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
CYCLIC_AT_MOST_27 += [(p, 1) for p in (7, 11, 13, 17, 19, 23)]
ORDER_AT_MOST_27 = [CyclicGroup(Modulus(p, k)) for p, k in CYCLIC_AT_MOST_27] + [
    ElemAbelian2Group(p) for p in (2, 3, 5)
]


@pytest.mark.parametrize("group", ORDER_AT_MOST_27, ids=lambda g: g.describe())
def test_two_stage_matches_classify_triples(group):
    ref = classify_triples(group, max_order=27)
    staged = classify_two_stage(group, max_order=27)
    assert staged.count == ref.count == len(ref.representatives) == len(staged.representatives)
    assert staged.representatives == ref.representatives
    # every triple, not only the representatives, lands in its reference orbit
    for triple, i in ref.index.items():
        assert staged.orbit_of(*triple) == i


@pytest.mark.parametrize("group", ORDER_AT_MOST_27 + [ElemAbelian2Group(7)], ids=lambda g: g.describe())
def test_automorphism_generators_generate_aut(group):
    aut = _automorphisms(group)
    spec = ActionSpec(
        points=aut.elements,
        act=aut.mul,
        compose=aut.mul,
        identity=aut.identity,
        generators=aut.generators,
        order=len(aut.elements),
    )
    assert len(orbits(spec).orbits) == 1
    for g in aut.generators:
        assert aut.mul(g, aut.inv(g)) == aut.identity
    if isinstance(group, CyclicGroup):  # one or two greedy units for every n <= 27 but 2
        assert len(aut.generators) in ((0,) if group.order == 2 else (1, 2))


def test_two_stage_classifies_elem2_7_against_the_enumerator():
    staged = classify_two_stage(ElemAbelian2Group(7), max_order=49)
    assert staged.count == 194 == 4 * 7**2 - 2
    hit = sorted(staged.orbit_of(phi, psi, c) for phi, psi, c, _, _ in enumerate_gl2(7).rows)
    assert hit == list(range(194))


def test_two_stage_bound():
    with pytest.raises(ResourceLimitError):
        classify_two_stage(CyclicGroup(Modulus(3, 3)))  # 27 > default bound 25
    with pytest.raises(ResourceLimitError):
        classify_two_stage(ElemAbelian2Group(7), max_order=27)


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
    t1 = materialize(AffineForm(group, 1, 1, 1))
    t2 = materialize(AffineForm(group, 1, 1, 2))
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
    tables = [materialize(AffineForm(group, *t)) for t in spec.points]
    ids = classify_tables(tables)
    assert len(set(ids)) == 5
    assert ids == _classify_pairwise(tables)


# -- classify_tables: invariant buckets, then the raw search -----------------------


def _classify_pairwise(tables):
    """The reference: each table searched against every class found so far."""
    reps, ids = [], []
    for t in tables:
        for i, r in enumerate(reps):
            if table_isomorphic(t, r):
                ids.append(i)
                break
        else:
            ids.append(len(reps))
            reps.append(t)
    return ids


def _relabelled(table, rng):
    perm = list(range(table.n))
    rng.shuffle(perm)
    inv = sorted(range(table.n), key=perm.__getitem__)
    return raw_table(lambda x, y: perm[table.rows[inv[x]][inv[y]]], table.n)


@functools.cache
def _order_nine_reps():
    """The 50 class representatives of order 9, pairwise non-isomorphic."""
    forms = enumerate_gl2(3).forms + enumerate_cyclic(Modulus(3, 2)).forms
    return tuple(map(materialize, forms))


def _order_nine_tables(seed):
    """The representatives, then one relabelled copy of each in a seeded
    order, and the source class of every copy."""
    rng = random.Random(seed)
    reps = list(_order_nine_reps())
    sources = list(range(len(reps)))
    rng.shuffle(sources)
    return reps + [_relabelled(reps[i], rng) for i in sources], sources


def _count_searches(monkeypatch):
    calls = []

    def counted(t1, t2, max_order=9):
        calls.append((t1.n, t2.n))
        return table_isomorphic(t1, t2, max_order=max_order)

    monkeypatch.setattr(oracle, "table_isomorphic", counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_classify_tables_matches_the_pairwise_reference_at_order_nine(seed):
    tables, sources = _order_nine_tables(seed)
    ids = classify_tables(tables)
    assert ids == list(range(50)) + sources
    assert ids == _classify_pairwise(tables)


def test_classify_tables_matches_the_pairwise_reference_on_mixed_orders():
    rng = random.Random(7)
    forms = [
        *enumerate_cyclic(Modulus(3, 1)).forms,
        *enumerate_cyclic(Modulus(2, 2)).forms,
        *enumerate_gl2(2).forms,
        *enumerate_cyclic(Modulus(5, 1)).forms,
    ]
    tables = [materialize(f) for f in forms] + list(_order_nine_reps()[::5])
    tables += [_relabelled(t, rng) for t in tables]
    rng.shuffle(tables)
    ids = classify_tables(tables)
    assert ids == _classify_pairwise(tables)
    assert max(ids) + 1 == len(tables) // 2


def test_invariant_buckets_hold_non_isomorphic_tables():
    # The bucket key is not a complete invariant: several order-9 buckets
    # hold two or more classes, which only the raw search tells apart.
    keys = collections.Counter(tuple(sorted(_signature(t.rows))) for t in _order_nine_reps())
    assert max(keys.values()) >= 2


def test_classify_tables_searches_only_inside_buckets(monkeypatch):
    tables, sources = _order_nine_tables(1)
    calls = _count_searches(monkeypatch)
    assert classify_tables(tables) == list(range(50)) + sources
    assert 50 <= len(calls) <= 100  # every copy is searched at least once; pairwise took 2 500


def test_classify_tables_checks_every_order_before_any_search(monkeypatch):
    small = materialize(enumerate_cyclic(Modulus(3, 1)).forms[0])
    big = raw_table(lambda x, y: (x + y) % 10, 10)
    calls = _count_searches(monkeypatch)
    for tables in ([big], [small, big], [big, big], [small, small, big]):
        with pytest.raises(ResourceLimitError, match="order 10 exceeds the bound 9"):
            classify_tables(tables)
    assert calls == []
    assert classify_tables([big, small, big], max_order=10) == [0, 1, 0]


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
    for phi, psi, c in cls.representatives:
        form = AffineForm(group, phi, psi, c)
        structural = is_simple(group, phi, psi)
        by_subgroups = simple_via_subgroup_congruences(form)
        by_search = table_is_simple(materialize(form))
        assert structural == by_subgroups == by_search
    for form in enumerate_cyclic(Modulus(3, 2)).forms:
        assert not is_simple(form.group, form.phi, form.psi)
        assert not simple_via_subgroup_congruences(form)
        assert not table_is_simple(materialize(form))
