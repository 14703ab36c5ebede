"""Tiny-scale converse check: every paramedial latin square of order n <= 5
is isomorphic to one of the enumerated affine classes of that order.

This sweeps ALL latin squares of each order (not just reduced ones,
since relabelling must act simultaneously on rows, columns and symbols),
filters the paramedial ones by the raw identity, and classifies them
together with the class representatives by raw table isomorphism.  Along
the way the O(n^2 log n) affine-recovery test ``is_paramedial`` is compared with
the n^4 identity oracle on every square of order <= 4, and must accept
every paramedial square of order 5.  ``table_is_simple``, which closes
only the pairs (0, x), is checked against every pair on all latin
squares of order <= 4: general quasigroups, not only affine ones, and
``classify_tables`` is checked against the orbits of S_4 on all latin
squares of order 4.
"""

import itertools

import pytest

from paramedial.affine import QuasigroupTable, is_paramedial, materialize
from paramedial.enum_cyclic import enumerate_cyclic
from paramedial.enum_gl2 import enumerate_gl2
from paramedial.modring import Modulus
from paramedial.oracle import classify_tables, principal_congruence, table_is_simple
from reference import paramedial_by_loop, satisfies_paramedial_identity, smallest_generating_seed


def all_latin_squares(n):
    column_used = [set() for _ in range(n)]
    rows = []

    def fill_row(row, pos, used):
        if pos == n:
            yield tuple(row)
            return
        for v in range(n):
            if v in used or v in column_used[pos]:
                continue
            row[pos] = v
            used.add(v)
            column_used[pos].add(v)
            yield from fill_row(row, pos + 1, used)
            used.discard(v)
            column_used[pos].discard(v)

    def build(i):
        if i == n:
            yield tuple(rows)
            return
        for row in fill_row([0] * n, 0, set()):
            rows.append(row)
            yield from build(i + 1)
            rows.pop()

    yield from build(0)


def class_tables(n):
    if n == 2:
        return [materialize(f) for f in enumerate_cyclic(Modulus(2, 1)).forms]
    if n == 3:
        return [materialize(f) for f in enumerate_cyclic(Modulus(3, 1)).forms]
    if n == 4:
        reps = [materialize(f) for f in enumerate_cyclic(Modulus(2, 2)).forms]
        reps += [materialize(f) for f in enumerate_gl2(2).forms]
        return reps
    if n == 5:
        return [materialize(f) for f in enumerate_cyclic(Modulus(5, 1)).forms]
    raise ValueError(n)


@pytest.mark.parametrize("n,total_squares", [(2, 2), (3, 12), (4, 576), (5, 161280)])
def test_every_paramedial_latin_square_is_affine(n, total_squares):
    reps = class_tables(n)
    square_count = 0
    paramedial = []
    for rows in all_latin_squares(n):
        square_count += 1
        table = QuasigroupTable(n, rows)
        raw = paramedial_by_loop(table)
        if n <= 4:
            assert is_paramedial(table) == satisfies_paramedial_identity(table) == raw
        if not raw:
            continue
        assert is_paramedial(table)
        paramedial.append(table)
    assert square_count == total_squares
    # the representatives are pairwise non-isomorphic, and every paramedial
    # square joins one of them: none opens a class of its own
    ids = classify_tables(reps + paramedial)
    assert ids[: len(reps)] == list(range(len(reps)))
    assert set(ids[len(reps) :]) == set(range(len(reps)))
    if n <= 3:
        assert len(paramedial) == square_count  # every quasigroup of order <= 3 qualifies
    else:
        assert 0 < len(paramedial) < square_count


def test_classify_tables_matches_the_orbits_of_s4_on_latin_squares_of_order_4():
    squares = list(all_latin_squares(4))
    perms = list(itertools.permutations(range(4)))

    def orbit_key(rows):
        # the least image of the square under relabelling by every permutation
        images = []
        for p in perms:
            image = [[0] * 4 for _ in range(4)]
            for x in range(4):
                for y in range(4):
                    image[p[x]][p[y]] = p[rows[x][y]]
            images.append(tuple(map(tuple, image)))
        return min(images)

    numbers: dict = {}
    orbit_ids = [numbers.setdefault(orbit_key(rows), len(numbers)) for rows in squares]
    assert len(numbers) == 35
    assert classify_tables([QuasigroupTable(4, rows) for rows in squares]) == orbit_ids


@pytest.mark.parametrize("n,not_simple", [(2, 0), (3, 0), (4, 88)])
def test_table_is_simple_matches_all_pairs_on_every_latin_square(n, not_simple):
    found = 0
    for rows in all_latin_squares(n):
        table = QuasigroupTable(n, rows)
        every_pair = all(max(principal_congruence(table, a, b)) == 0 for a, b in itertools.combinations(range(n), 2))
        assert table_is_simple(table) == every_pair, rows
        found += not every_pair
    assert found == not_simple


def _rows(forms):
    return [materialize(f).rows for f in forms]


GENERATED_SETS = {
    "latin-squares-4": (576, lambda: list(all_latin_squares(4))),
    "order-9": (50, lambda: _rows(enumerate_gl2(3).forms + enumerate_cyclic(Modulus(3, 2)).forms)),
    "elem2-5": (98, lambda: _rows(enumerate_gl2(5).forms)),
    "cyclic-5-2": (46, lambda: _rows(enumerate_cyclic(Modulus(5, 2)).forms)),
}


@pytest.mark.parametrize("name", GENERATED_SETS)
def test_smallest_generating_seed_is_within_miller_bound(name):
    # the canonical form stops at the least generating seed; each generator
    # added to a seed at least doubles what it generates
    count, build = GENERATED_SETS[name]
    tables = build()
    assert len(tables) == count
    for rows in tables:
        assert smallest_generating_seed(rows) <= len(rows).bit_length(), rows
