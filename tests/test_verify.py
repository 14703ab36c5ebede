"""`verify` checks the rows `enumerate` prints, as they are.

Each mutation below replaces the enumerator's row stream by one with a
single bad row.  `verify` must name the broken property in a FAIL line,
exit 1 and write nothing to stderr: no exception from a constructor that
would have refused the row, and no reduction that would have hidden it.
"""

import sys
from itertools import groupby
from operator import itemgetter

import pytest

from paramedial import affine, cli, enum_cyclic, enum_gl2
from paramedial.affine import AffineForm, Classification, ClassRecord, CyclicGroup, ElemAbelian2Group
from paramedial.cli import main
from paramedial.modring import Modulus
from paramedial.oracle import classify_two_stage

UNITS = "phi and psi are units"
SQUARES = "phi^2 = psi^2 for every class"
SORTED = "classes are sorted and distinct"
STRUCT = "rows satisfy phi^2 = psi^2 with admissible constants"
FLAGS = "simplicity flags match the invariant-subgroup criterion"
ORACLE = "representatives hit every orbit exactly once"


def _set(rows, i, phi=None, psi=None, c=None, simple=None):
    old = rows[i]
    rows[i] = (
        old[0] if phi is None else phi,
        old[1] if psi is None else psi,
        old[2] if c is None else c,
        old[3],
        old[4] if simple is None else simple,
    )


def _swap(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]


def _swap_the_constants_of_a_pair(rows):
    start = 0
    for _, run in groupby(rows, itemgetter(0, 1)):
        size = len(list(run))
        if size == 2:
            return _swap(rows, start, start + 1)
        start += size
    raise AssertionError("no pair has two constants")


def _flip_first_simple(rows):
    i = next(i for i, row in enumerate(rows) if row[4])
    _set(rows, i, simple=False)


# Over Z_25 the rows start (1, 1, 0), (1, 24, 0), (2, 2, 0), ...; over
# Z_5 x Z_5 they start (I, I, (0, 0)), (I, -I, (0, 0)), ...
# (kind, mutation, named FAIL line, whether the orbit oracle sees it too)
MUTATIONS = {
    "cyclic-squares-differ": ("cyclic", lambda rows: _set(rows, 0, psi=2), SQUARES, True),
    "cyclic-non-unit": ("cyclic", lambda rows: _set(rows, 0, phi=5, psi=5), UNITS, True),
    "cyclic-unreduced": ("cyclic", lambda rows: _set(rows, 0, phi=1 + 25), UNITS, True),
    "cyclic-duplicate": ("cyclic", lambda rows: _set(rows, 1, psi=1), SORTED, True),
    "cyclic-out-of-order": ("cyclic", lambda rows: _swap(rows, 0, 1), SORTED, False),
    # (1, 24, 1) is in the class of (1, 24, 0), whose least constant is 0
    "cyclic-wrong-constant": ("cyclic", lambda rows: _set(rows, 1, c=1), SORTED, False),
    "elem2-squares-differ": ("elem2", lambda rows: _set(rows, 0, psi=(2, 0, 0, 2)), STRUCT, True),
    "elem2-singular": ("elem2", lambda rows: _set(rows, 0, phi=(1, 0, 0, 0), psi=(1, 0, 0, 0)), STRUCT, True),
    "elem2-unreduced": ("elem2", lambda rows: _set(rows, 0, phi=(1 + 5, 0, 0, 1)), STRUCT, True),
    "elem2-duplicate": ("elem2", lambda rows: _set(rows, 1, psi=(1, 0, 0, 1)), STRUCT, True),
    "elem2-out-of-order": ("elem2", _swap_the_constants_of_a_pair, STRUCT, False),
    # 1 - I - I = -I has full rank: (0, 1) is in the class of (0, 0)
    "elem2-wrong-constant": ("elem2", lambda rows: _set(rows, 0, c=(0, 1)), STRUCT, False),
    "elem2-flipped-flag": ("elem2", _flip_first_simple, FLAGS, False),
}

GROUPS = {"cyclic": ["cyclic", "5", "2"], "elem2": ["elem2", "5"]}


def _mutate(monkeypatch, kind, mutation):
    module = enum_cyclic if kind == "cyclic" else enum_gl2
    original = module._rows

    def rows(group):
        out = list(original(group))
        mutation(out)
        return iter(out)

    monkeypatch.setattr(module, "_rows", rows)


@pytest.mark.parametrize("level", ["fast", "oracle"])
@pytest.mark.parametrize("name", MUTATIONS)
def test_a_bad_row_fails_its_check(capsys, monkeypatch, name, level):
    kind, mutation, line, oracle_sees_it = MUTATIONS[name]
    _mutate(monkeypatch, kind, mutation)
    code = main(["verify", "--group", *GROUPS[kind], "--level", level])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert f"FAIL: {line}" in lines
    assert lines[-1].endswith("check(s) failed")
    if level == "oracle":
        assert (f"FAIL: {ORACLE}" in lines) == oracle_sees_it


def test_orbit_of_is_none_outside_the_classified_triples():
    staged = classify_two_stage(ElemAbelian2Group(3))
    identity = (1, 0, 0, 1)
    assert staged.orbit_of(*staged.representatives[1]) == 1
    assert staged.orbit_of((1 + 3, 0, 0, 1), identity, (0, 0)) is None  # unreduced
    assert staged.orbit_of(identity, identity, (3, 0)) is None  # unreduced constant
    assert staged.orbit_of(identity, (0, 1, 1, 1), (0, 0)) is None  # phi^2 != psi^2
    assert staged.orbit_of((1, 0, 0, 0), (1, 0, 0, 0), (0, 0)) is None  # singular
    cyclic = classify_two_stage(CyclicGroup(Modulus(5, 2)))
    assert cyclic.orbit_of(1, 1, 25) is None and cyclic.orbit_of(1, 2, 0) is None


def _refuse(*args, **kwargs):
    raise AssertionError("verify built a checked object")


def _coset_reps_one_vector(phi, psi, p):
    # coset_reps_for with its constant fixed at (1, 0) whenever 1 - phi - psi is singular,
    # which lies in Im(1 - phi - psi) when that is a line with a zero second row
    a, b = (1 - phi[0] - psi[0]) % p, (-phi[1] - psi[1]) % p
    c, d = (-phi[2] - psi[2]) % p, (1 - phi[3] - psi[3]) % p
    if (a * d - b * c) % p:
        return [(0, 0)]
    return [(0, 0), (1, 0)]


@pytest.mark.parametrize("p", ["5", "11"])
def test_a_bad_coset_transversal_fails_the_fast_level(capsys, monkeypatch, p):
    # through __code__, so the enumerator and every other binding of coset_reps_for run the mutant:
    # a check that asked coset_reps_for for the constants would pass its own output
    monkeypatch.setattr(enum_gl2.coset_reps_for, "__code__", _coset_reps_one_vector.__code__)
    assert enum_gl2.coset_reps_for((1, 0, 0, 3), (1, 0, 0, 3), 5) == [(0, 0), (1, 0)]
    code = main(["verify", "--group", "elem2", p])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert f"FAIL: {STRUCT}" in out.splitlines()


def test_the_p2_flags_are_checked_by_a_criterion_they_were_not_set_by(capsys, monkeypatch):
    # is_simple flipped in every module that binds it: had the p = 2 rows taken their flags from it,
    # the flag check would compare the mutant with itself and pass
    original = affine.is_simple
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "paramedial"]
    binders = [m for m in modules if vars(m).get("is_simple") is original]
    assert cli in binders
    for module in binders:
        monkeypatch.setattr(module, "is_simple", lambda group, phi, psi: not original(group, phi, psi))
    code = main(["verify", "--group", "elem2", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert f"FAIL: {FLAGS}" in out.splitlines()


@pytest.mark.parametrize("level", ["fast", "oracle"])
def test_verify_builds_no_form_or_record(capsys, monkeypatch, level):
    # nor the row tuple: it reads each row once, as the enumerator yields it
    monkeypatch.setattr(AffineForm, "__init__", _refuse)
    monkeypatch.setattr(ClassRecord, "__init__", _refuse)
    monkeypatch.setattr(Classification, "rows", property(_refuse))
    for group in (["elem2", "5"], ["elem2", "2"], ["cyclic", "5", "2"], ["cyclic", "2", "4"]):
        assert main(["verify", "--group", *group, "--level", level]) == 0, group
    assert "FAIL" not in capsys.readouterr().out


def test_verify_applies_no_automorphism_to_an_element(capsys, monkeypatch):
    # is_simple decides from the entries of phi and psi alone, with no element of G in sight:
    # images(aut) is how a group class applies an automorphism to its elements
    monkeypatch.setattr(ElemAbelian2Group, "images", _refuse)
    monkeypatch.setattr(CyclicGroup, "images", _refuse)
    for group in (["elem2", "5"], ["elem2", "2"], ["cyclic", "5", "2"]):
        assert main(["verify", "--group", *group]) == 0, group
    assert "FAIL" not in capsys.readouterr().out
