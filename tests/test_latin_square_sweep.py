"""Tiny-scale converse check: every paramedial latin square of order n <= 5
is isomorphic to one of the enumerated affine classes of that order.

This sweeps ALL latin squares of each order (not just reduced ones,
since relabelling must act simultaneously on rows, columns and symbols),
filters the paramedial ones by the raw identity, and matches each
against the class representatives by raw table isomorphism.  Along the
way the O(n^2 log n) affine-recovery test ``is_paramedial`` is compared with
the n^4 identity oracle on every square of order <= 4, and must accept
every paramedial square of order 5.
"""

import pytest

from paramedial.affine import QuasigroupTable, is_paramedial, materialize
from paramedial.enum_cyclic import enumerate_cyclic
from paramedial.enum_gl2 import enumerate_gl2
from paramedial.modring import Modulus
from paramedial.oracle import satisfies_paramedial_identity, table_isomorphic


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


def paramedial_raw(rows, n):
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for u in range(n):
                ux = rows[u][x]
                for v in range(n):
                    if rows[xy][rows[u][v]] != rows[rows[v][y]][ux]:
                        return False
    return True


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
    seen_classes = set()
    square_count = 0
    paramedial_count = 0
    for rows in all_latin_squares(n):
        square_count += 1
        table = QuasigroupTable(n, rows)
        raw = paramedial_raw(rows, n)
        if n <= 4:
            assert is_paramedial(table) == satisfies_paramedial_identity(table) == raw
        if not raw:
            continue
        assert is_paramedial(table)
        paramedial_count += 1
        matches = [i for i, rep in enumerate(reps) if table_isomorphic(table, rep)]
        assert len(matches) == 1, f"order {n}: {len(matches)} class matches for {rows}"
        seen_classes.add(matches[0])
    assert square_count == total_squares
    assert seen_classes == set(range(len(reps)))
    if n <= 3:
        assert paramedial_count == square_count  # every quasigroup of order <= 3 qualifies
    else:
        assert 0 < paramedial_count < square_count
