import functools
import itertools
import random
import time
import tracemalloc

import pytest

from paramedial.affine import (
    AffineForm,
    CyclicGroup,
    ElemAbelian2Group,
    QuasigroupTable,
    is_latin,
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
    classify_tables,
    classify_triples,
    classify_two_stage,
    orbits,
    principal_congruence,
    table_is_simple,
    table_isomorphic,
    _automorphisms,
    triple_action_spec,
)
from reference import burnside_count, canonical_form_unpruned, raw_table, validate_action


# A magma that is not a quasigroup, and its image under the swap 0 <-> 1.
MAGMA = QuasigroupTable(2, ((1, 1), (0, 1)))
SWAPPED = QuasigroupTable(2, ((0, 1), (0, 0)))


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
        spec = triple_action_spec(group)
        assert burnside_count(spec) == len(orbits(spec).orbits)


def test_validate_action_spot_checks():
    rng = random.Random(7)
    validate_action(triple_action_spec(CyclicGroup(Modulus(3, 2))), rng)
    validate_action(triple_action_spec(ElemAbelian2Group(3)), rng, samples=15)


def test_orbits_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_POINTS", 2)
    with pytest.raises(ResourceLimitError):
        orbits(trivial_spec())


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


# |Aff(G)| = 98 784, 2^15, 26 364 and 17 030, above the reference's 2^14
OVER_THE_REFERENCE_BOUND = [
    ElemAbelian2Group(7),
    CyclicGroup(Modulus(2, 8)),
    CyclicGroup(Modulus(13, 2)),
    CyclicGroup(Modulus(131, 1)),
]


def test_classify_bound():
    assert classify_triples(CyclicGroup(Modulus(3, 3))).count == closed_form_count(Modulus(3, 3))  # |Aff| = 486
    for group in OVER_THE_REFERENCE_BOUND:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="exceeds the oracle's bound 16384"):
            classify_triples(group)
        assert time.perf_counter() - start < 1, group


def test_classify_triples_refuses_before_building_aut(monkeypatch):
    def built(group):
        raise AssertionError(f"Aut({group.describe()}) was built")

    monkeypatch.setattr(oracle, "_automorphisms", built)
    for group in OVER_THE_REFERENCE_BOUND:
        with pytest.raises(ResourceLimitError):
            classify_triples(group)
    with pytest.raises(AssertionError):
        classify_triples(CyclicGroup(Modulus(127, 1)))  # |Aff| = 16 002, within the bound, so built


# -- the two-stage classifier against the reference ---------------------------------


CYCLIC_AT_MOST_27 = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
CYCLIC_AT_MOST_27 += [(p, 1) for p in (7, 11, 13, 17, 19, 23)]
ORDER_AT_MOST_27 = [CyclicGroup(Modulus(p, k)) for p, k in CYCLIC_AT_MOST_27] + [
    ElemAbelian2Group(p) for p in (2, 3, 5)
]


@pytest.mark.parametrize("group", ORDER_AT_MOST_27, ids=lambda g: g.describe())
def test_two_stage_matches_classify_triples(group):
    ref = classify_triples(group)
    staged = classify_two_stage(group)
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
    staged = classify_two_stage(ElemAbelian2Group(7))
    assert staged.count == 194 == 4 * 7**2 - 2
    hit = sorted(staged.orbit_of(phi, psi, c) for phi, psi, c, _, _ in enumerate_gl2(7).rows)
    assert hit == list(range(194))


# The first group refused in each family, and two beyond it: cyclic(101,2)
# ran out of memory on an 8 GB host when it was not refused.
OVER_THE_AFFINE_BOUND = [
    ElemAbelian2Group(11),
    CyclicGroup(Modulus(2, 11)),
    CyclicGroup(Modulus(3, 7)),
    CyclicGroup(Modulus(29, 2)),
    CyclicGroup(Modulus(727, 1)),
    CyclicGroup(Modulus(31, 2)),
    CyclicGroup(Modulus(101, 2)),
]


def test_two_stage_bound():
    for group in OVER_THE_AFFINE_BOUND:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="exceeds the oracle's bound 524288"):
            classify_two_stage(group)
        assert time.perf_counter() - start < 1, group


def test_two_stage_refuses_before_building_aut(monkeypatch):
    def built(group):
        raise AssertionError(f"Aut({group.describe()}) was built")

    monkeypatch.setattr(oracle, "_automorphisms", built)
    for group in OVER_THE_AFFINE_BOUND:
        with pytest.raises(ResourceLimitError):
            classify_two_stage(group)
    with pytest.raises(AssertionError):
        classify_two_stage(ElemAbelian2Group(7))  # within the bound, so built


# Within the bound, at its edge in each family: 2^10 * 2^9 = 2^19 elements,
# 3^6 * 2 * 3^5, 23^2 * 22 * 23, 719 * 718 and 7^2 * 48 * 42.
AT_THE_AFFINE_EDGE = [
    CyclicGroup(Modulus(2, 10)),
    CyclicGroup(Modulus(3, 6)),
    CyclicGroup(Modulus(23, 2)),
    CyclicGroup(Modulus(719, 1)),
    ElemAbelian2Group(7),
]


@pytest.mark.parametrize("group", ORDER_AT_MOST_27 + AT_THE_AFFINE_EDGE, ids=lambda g: g.describe())
def test_closed_form_affine_order_matches_aut(group):
    aut = _automorphisms(group)
    assert len(aut.points) == group.order
    assert oracle._affine_order(group) == len(aut.elements) * group.order <= oracle.MAX_AFFINE_ORDER
    if group in ORDER_AT_MOST_27:  # all within the reference's bound too
        assert oracle._affine_order(group) <= oracle.REFERENCE_MAX_AFFINE_ORDER


@pytest.mark.parametrize("group", AT_THE_AFFINE_EDGE[:4], ids=lambda g: g.describe())
def test_two_stage_at_the_edge_hits_every_class_once(group):
    # the constants are indexed by the cosets of T, not by every point of G,
    # so orbit_of must check itself that a constant lies in G
    staged = classify_two_stage(group)
    hit = sorted(staged.orbit_of(phi, psi, c) for phi, psi, c, _, _ in group.classification().rows)
    assert hit == list(range(staged.count)) and staged.count == closed_form_count(group.modulus)
    phi, psi, _ = staged.representatives[-1]
    assert staged.orbit_of(phi, psi, group.order) is None and staged.orbit_of(phi, psi, -1) is None


def test_two_stage_constants_index_stays_small_at_the_edge():
    # an index over every point of Z_1024 for each of the 2 048 least pairs
    # peaked above 100 MB; the index over cosets holds one entry per coset
    tracemalloc.start()
    try:
        staged = classify_two_stage(CyclicGroup(Modulus(2, 10)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert staged.count == 2048
    assert peak < 16 * 2**20


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


# Z_2^4 under XOR: the greedy walk needs all 5 generators, a form cost of
# 256 * (16 + 16*15 + ... + 16*15*14*13*12) = 146 292 736, above the bound
XOR_16 = raw_table(lambda x, y: x ^ y, 16)
# Z_16 under addition: one generator, a form cost of 16^3
CYCLIC_16 = raw_table(lambda x, y: (x + y) % 16, 16)


def test_table_isomorphic_bound(monkeypatch):
    calls = _count_forms(monkeypatch)
    for t1, t2 in ((XOR_16, XOR_16), (XOR_16, CYCLIC_16), (CYCLIC_16, XOR_16)):
        with pytest.raises(ResourceLimitError, match="from 5 generators costs 146292736, above the bound 16777216"):
            table_isomorphic(t1, t2)
    assert calls == []
    assert table_isomorphic(CYCLIC_16, CYCLIC_16)
    big = raw_table(lambda x, y: (x + y) % 257, 257)  # n^3 above the bound: refused before the table is read
    with pytest.raises(ResourceLimitError, match="order 257 costs at least 16974593"):
        table_isomorphic(big, big)
    assert calls == [16, 16]


def test_form_cost_at_miller_bound_is_within_the_bound_up_to_order_nine():
    # so every quasigroup of order at most 9 is accepted, whatever its walk
    for n in range(1, 10):
        assert oracle._form_cost(n, n.bit_length()) <= oracle.MAX_FORM_COST
    assert oracle._form_cost(9, 4) == 81 * (9 + 72 + 504 + 3024)


def test_table_isomorphic_rejects_a_non_latin_table():
    latin = raw_table(lambda x, y: (x + y) % 2, 2)
    for t1, t2 in ((MAGMA, SWAPPED), (MAGMA, latin), (latin, SWAPPED)):
        with pytest.raises(ValueError, match="not latin"):
            table_isomorphic(t1, t2)


def test_classify_tables_partitions_all_order_three_triples():
    group = CyclicGroup(Modulus(3, 1))
    spec = triple_action_spec(group)
    tables = [materialize(AffineForm(group, *t)) for t in spec.points]
    ids = classify_tables(tables)
    assert len(set(ids)) == 5
    orbit = classify_triples(group).index
    assert ids == _first_sighting(orbit[t] for t in spec.points)


# -- classify_tables: one canonical form per table ---------------------------------


def _first_sighting(keys):
    """Class ids numbered in order of first sighting, for any class keys."""
    numbers: dict = {}
    return [numbers.setdefault(k, len(numbers)) for k in keys]


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


def _with_copies(reps, seed):
    """The representatives, then one relabelled copy of each in a seeded
    order, and the source class of every copy."""
    rng = random.Random(seed)
    sources = list(range(len(reps)))
    rng.shuffle(sources)
    return list(reps) + [_relabelled(reps[i], rng) for i in sources], sources


def _count_forms(monkeypatch):
    calls = []
    canonical_form = oracle._canonical_form

    def counted(rows):
        calls.append(len(rows))
        return canonical_form(rows)

    monkeypatch.setattr(oracle, "_canonical_form", counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_classify_tables_matches_the_pairwise_reference_at_order_nine(seed):
    tables, sources = _with_copies(_order_nine_reps(), seed)
    assert classify_tables(tables) == list(range(50)) + sources


def test_classify_tables_matches_the_pairwise_reference_on_mixed_orders():
    # every relabelled copy joins its source, numbered in order of first sighting
    rng = random.Random(7)
    forms = [
        *enumerate_cyclic(Modulus(3, 1)).forms,
        *enumerate_cyclic(Modulus(2, 2)).forms,
        *enumerate_gl2(2).forms,
        *enumerate_cyclic(Modulus(5, 1)).forms,
    ]
    tables = [materialize(f) for f in forms] + list(_order_nine_reps()[::5])
    tagged = list(enumerate(tables)) + [(i, _relabelled(t, rng)) for i, t in enumerate(tables)]
    rng.shuffle(tagged)
    ids = classify_tables([t for _, t in tagged])
    assert ids == _first_sighting(i for i, _ in tagged)
    assert max(ids) + 1 == len(tables)


CANONICAL_FORM_GROUPS = [ElemAbelian2Group(3), ElemAbelian2Group(5)]
CANONICAL_FORM_GROUPS += [CyclicGroup(Modulus(p, k)) for p, k in ((3, 2), (5, 2), (7, 1))]


@pytest.mark.parametrize("group", CANONICAL_FORM_GROUPS, ids=lambda g: g.describe())
def test_pruned_canonical_form_equals_the_unpruned_reference(group):
    forms = enumerate_gl2(group.p).forms if isinstance(group, ElemAbelian2Group) else enumerate_cyclic(group.modulus).forms
    tables = list(map(materialize, forms))
    rng = random.Random(group.order)
    for table in tables + [_relabelled(t, rng) for t in tables]:
        assert oracle._canonical_form(table.rows) == canonical_form_unpruned(table.rows)


def test_classify_tables_puts_order_25_copies_with_their_sources():
    reps = tuple(map(materialize, enumerate_cyclic(Modulus(5, 2)).forms))
    assert len(reps) == 46
    tables, sources = _with_copies(reps, 5)
    assert classify_tables(tables) == list(range(46)) + sources


def test_classify_tables_takes_elem2_5_with_copies_and_the_classes_of_cyclic_7_2():
    # over a group of order 25 the subquasigroups are cosets of order 1, 5 or
    # 25, so a walk takes at most 3 generators (9 015 625); the classes of
    # cyclic 7 2 take at most 2 (5 764 801), but g depends on the labelling,
    # and a relabelled copy of order 49 may take a third (271 180 945)
    reps = tuple(map(materialize, enumerate_gl2(5).forms))
    tables, sources = _with_copies(reps, 25)
    assert classify_tables(tables) == list(range(98)) + sources
    assert classify_tables(list(map(materialize, enumerate_cyclic(Modulus(7, 2)).forms))) == list(range(92))


def test_classify_tables_checks_each_table_is_latin_once(monkeypatch):
    tables, _ = _with_copies(_order_nine_reps(), 1)
    calls = []

    def counted(table):
        calls.append(table)
        return is_latin(table)

    monkeypatch.setattr(oracle, "is_latin", counted)
    classify_tables(tables)
    assert len(calls) == len(tables) == 100


def test_classify_tables_checks_every_order_before_any_search(monkeypatch):
    small = materialize(enumerate_cyclic(Modulus(3, 1)).forms[0])
    calls = _count_forms(monkeypatch)
    for tables in ([XOR_16], [small, XOR_16], [XOR_16, XOR_16], [small, CYCLIC_16, XOR_16]):
        with pytest.raises(ResourceLimitError, match="order 16 from 5 generators costs 146292736"):
            classify_tables(tables)
    assert calls == []
    assert classify_tables([CYCLIC_16, small, CYCLIC_16]) == [0, 1, 0]


def test_classify_tables_checks_every_table_is_latin_before_any_search(monkeypatch):
    small = materialize(enumerate_cyclic(Modulus(2, 1)).forms[0])
    calls = _count_forms(monkeypatch)
    for tables in ([MAGMA], [small, SWAPPED], [MAGMA, SWAPPED], [small, small, MAGMA]):
        with pytest.raises(ValueError, match="not latin"):
            classify_tables(tables)
    assert calls == []


# -- congruences -------------------------------------------------------------------


def test_principal_congruence_detects_block_structure():
    add4 = raw_table(lambda x, y: (x + y) % 4, 4)
    classes = principal_congruence(add4, 0, 2)
    assert classes == (0, 1, 0, 1)
    assert not table_is_simple(add4)


def test_subtraction_mod_5_is_simple():
    sub5 = raw_table(lambda x, y: (x - y) % 5, 5)
    assert table_is_simple(sub5)


def test_table_is_simple_bound(monkeypatch):
    assert not table_is_simple(raw_table(lambda x, y: (x + y) % 128, 128))  # at the bound
    for form in enumerate_gl2(5).forms[:3]:  # order 25, with no argument
        assert table_is_simple(materialize(form)) == is_simple(form.group, form.phi, form.psi)

    def closed(table, a, b):
        raise AssertionError("a congruence was closed")

    monkeypatch.setattr(oracle, "principal_congruence", closed)
    big = raw_table(lambda x, y: (x - y) % 129, 129)
    with pytest.raises(ResourceLimitError, match="order 129 exceeds the bound 128"):
        table_is_simple(big)


def test_table_is_simple_rejects_a_non_latin_table():
    with pytest.raises(ValueError, match="not latin"):
        table_is_simple(MAGMA)


def test_simplicity_oracles_agree_at_order_nine():
    # and at orders 3, 4 and 8: a cyclic group of prime order has simple classes
    for group, simple in (
        (ElemAbelian2Group(3), 9),
        (CyclicGroup(Modulus(3, 2)), 0),
        (CyclicGroup(Modulus(3, 1)), 5),
        (CyclicGroup(Modulus(2, 3)), 0),
        (ElemAbelian2Group(2), 3),
    ):
        flags = []
        for phi, psi, c in classify_triples(group).representatives:
            form = AffineForm(group, phi, psi, c)
            flags.append(is_simple(group, phi, psi))
            assert flags[-1] == table_is_simple(materialize(form))
        assert sum(flags) == simple, group.describe()
