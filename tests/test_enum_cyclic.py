import pytest

from paramedial.affine import CyclicGroup, is_simple
from paramedial.enum_cyclic import (
    UnsupportedOrder,
    closed_form_count,
    enumerate_cyclic,
    gl2_closed_count,
    pq_total,
)
from paramedial.modring import Modulus
from paramedial.oracle import classify_triples


def triples(m):
    return [row[:3] for row in enumerate_cyclic(m).rows]


@pytest.mark.parametrize(
    "p,k,expected",
    [
        (3, 1, 5),
        (3, 2, 16),
        (5, 3, 231),
        (2, 1, 1),
        (2, 2, 4),
        (2, 3, 16),
        (2, 4, 32),
        (2, 5, 64),
    ],
)
def test_closed_form_values(p, k, expected):
    assert closed_form_count(Modulus(p, k)) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumeration_matches_closed_form_odd(p, k):
    m = Modulus(p, k)
    assert enumerate_cyclic(m).count == closed_form_count(m)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enumeration_matches_closed_form_two(k):
    m = Modulus(2, k)
    assert enumerate_cyclic(m).count == closed_form_count(m)


def test_explicit_classes_of_order_three():
    assert triples(Modulus(3, 1)) == [
        (1, 1, 0),
        (1, 2, 0),
        (2, 1, 0),
        (2, 2, 0),
        (2, 2, 1),
    ]


def test_constants_follow_the_coset_transversal():
    # phi = psi with 1 - 2*phi divisible by p exactly i times gets the
    # constants {0, 1, p, ..., p^(i-1)}
    m = Modulus(3, 2)
    by_phi = {}
    for phi, psi, c in triples(m):
        if phi == psi:
            by_phi.setdefault(phi, []).append(c)
    assert by_phi[5] == [0, 1, 3]  # 2^-1 mod 9
    assert by_phi[2] == [0, 1]     # 1-2*2 = -3, i = 1
    assert by_phi[1] == [0]        # 1-2 = -1, unit


def test_forms_are_sorted_and_valid():
    for m in [Modulus(3, 2), Modulus(2, 4), Modulus(5, 2)]:
        ts = triples(m)
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)
        n, p = m.n, m.p
        for phi, psi, c in ts:
            assert phi % p != 0 and psi % p != 0
            assert (phi * phi - psi * psi) % n == 0


def test_no_emitted_pair_in_the_impossible_branch():
    # for odd p, p | phi+psi and p | phi-psi would force p | 2 phi
    for m in [Modulus(3, 3), Modulus(5, 2), Modulus(7, 1)]:
        for phi, psi, c in triples(m):
            assert not ((phi + psi) % m.p == 0 and (phi - psi) % m.p == 0)


def test_two_power_pairs_have_four_matching_roots_and_zero_constant():
    for k in (3, 4, 5):
        ts = triples(Modulus(2, k))
        assert all(c == 0 for _, _, c in ts)
        by_phi = {}
        for phi, psi, _ in ts:
            by_phi.setdefault(phi, set()).add(psi)
        assert all(len(v) == 4 for v in by_phi.values())


@pytest.mark.parametrize("k", range(1, 13))
def test_two_power_roots_match_a_scan_of_all_units(k):
    # brute force: pair every unit with every unit of the same square
    m = Modulus(2, k)
    by_square = {}
    for u in range(1, m.n, 2):
        by_square.setdefault(u * u % m.n, []).append(u)
    expected = sorted(
        (phi, psi, 0) for phi in range(1, m.n, 2) for psi in by_square[phi * phi % m.n]
    )
    assert triples(m) == expected


@pytest.mark.parametrize(
    "p,k",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)],
)
def test_oracle_equivalence_up_to_27(p, k):
    m = Modulus(p, k)
    cls = enumerate_cyclic(m)
    oracle = classify_triples(CyclicGroup(m))
    assert oracle.count == closed_form_count(m) == cls.count
    hit = sorted(oracle.index[row[:3]] for row in cls.rows)
    assert hit == list(range(oracle.count))


def test_case_labels():
    labels = [rec.case for rec in enumerate_cyclic(Modulus(3, 1)).records()]
    assert labels == [
        "cyclic.psi-plus.i0",
        "cyclic.psi-minus",
        "cyclic.psi-minus",
        "cyclic.psi-plus.i1",
        "cyclic.psi-plus.i1",
    ]
    assert all(rec.case == "cyclic.p2" for rec in enumerate_cyclic(Modulus(2, 3)).records())


def reference_case_label(form) -> str:
    """The row label by its definition: p = 2, psi = -phi, or psi = phi
    with p^i the largest power of p (up to p^k) dividing 1 - 2 phi."""
    m = form.group.modulus
    if m.p == 2:
        return "cyclic.p2"
    if form.psi == -form.phi % m.n:
        return "cyclic.psi-minus"
    i = max(i for i in range(m.k + 1) if (1 - 2 * form.phi) % m.p**i == 0)
    return f"cyclic.psi-plus.i{i}"


@pytest.mark.parametrize(
    "p,k",
    [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 5)] + [(5, k) for k in range(1, 4)]
    + [(101, 1), (101, 2)],
)
def test_stream_simplicity_and_labels_match_their_definitions(p, k):
    for rec in enumerate_cyclic(Modulus(p, k)).records():
        assert rec.simple == is_simple(rec.form.group, rec.form.phi, rec.form.psi)
        assert rec.case == reference_case_label(rec.form)


def test_gl2_closed_count():
    assert gl2_closed_count(2) == 7
    assert gl2_closed_count(3) == 34
    assert gl2_closed_count(5) == 98


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, 1),
        (2, 1),
        (3, 5),
        (4, 11),
        (9, 50),
        (12, 55),
        (45, 450),
        (25, 144),
        (15, 45),
        (225, 7200),
    ],
)
def test_pq_total(n, expected):
    assert pq_total(n) == expected


def test_pq_total_multiplicativity_spot():
    assert pq_total(12) == pq_total(4) * pq_total(3)
    assert pq_total(45) == pq_total(9) * pq_total(5)


def test_pq_total_unsupported_cube():
    with pytest.raises(UnsupportedOrder):
        pq_total(27)
    with pytest.raises(UnsupportedOrder):
        pq_total(8)
    with pytest.raises(UnsupportedOrder):
        pq_total(24)  # 8 = 2^3 factor
    with pytest.raises(ValueError):
        pq_total(0)


@pytest.mark.parametrize("n", [2147483659, 1000000000000000003, 46349 * 46351])
def test_pq_total_refuses_a_cofactor_beyond_the_modulus_range(n):
    with pytest.raises(UnsupportedOrder, match="2\\^31"):
        pq_total(n)


def test_pq_total_largest_supported_prime():
    p = 2**31 - 1
    assert pq_total(p) == pq_total(2 * p) == 2 * p - 1
