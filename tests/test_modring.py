from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramedial.enum_gl2 import coset_reps_for
from paramedial.modring import (
    Modulus,
    SingularMatrixError,
    all_matrices,
    gl2,
    is_square_mod,
    mat_det,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_vec,
    sqrt_mod_prime,
    unit_group,
)

ODD_PRIMES = [3, 5, 7, 11, 13]


def test_modulus_validation():
    assert Modulus(3, 2).n == 9
    with pytest.raises(ValueError):
        Modulus(4, 1)
    with pytest.raises(ValueError):
        Modulus(3, 0)
    with pytest.raises(ValueError):
        Modulus(2, 40)  # over the machine-word bound
    assert Modulus(2, 30).n == 2**30
    assert Modulus(2**31 - 1, 1).n == 2**31 - 1
    assert Modulus(46337, 2).n == 46337**2  # the largest prime whose square is below 2^31
    for p, k in [(2, 31), (2**31 + 11, 1), (3, 10**8), (10**18 + 3, 1), (10**18 + 4, 1), (3, 20), (46349, 2)]:
        with pytest.raises(ValueError, match="exceeds the supported range"):
            Modulus(p, k)


def test_unit_group_small_cases():
    assert unit_group(Modulus(3, 1)) == [1, 2]
    assert len(unit_group(Modulus(3, 2))) == 6
    assert len(unit_group(Modulus(2, 4))) == 8


def test_unit_group_mod_16_is_z2_times_z4():
    # same multiset of element orders as Z_2 x Z_4 (both groups are abelian
    # of order 8, so that pins the isomorphism type)
    def order(u, n):
        v, k = u, 1
        while v != 1:
            v = v * u % n
            k += 1
        return k

    got = sorted(order(u, 16) for u in unit_group(Modulus(2, 4)))
    want = sorted(
        lcm(1 if a == 0 else 2, {0: 1, 1: 4, 2: 2, 3: 4}[b])
        for a in range(2)
        for b in range(4)
    )
    assert got == want


def test_unit_group_size_formula():
    for p, k in [(3, 1), (3, 2), (3, 3), (5, 2), (2, 5)]:
        m = Modulus(p, k)
        assert len(unit_group(m)) == p**k - p ** (k - 1)


def test_matrix_product_against_naive_squaring_over_z3():
    def naive_square(m):
        r = (m[:2], m[2:])
        out = [[0, 0], [0, 0]]
        for i in range(2):
            for j in range(2):
                out[i][j] = sum(r[i][t] * r[t][j] for t in range(2)) % 3
        return (*out[0], *out[1])

    mats = list(all_matrices(3))
    assert len(mats) == 81 and mats == sorted(mats)
    for m in mats:
        assert mat_mul(m, m, 3) == naive_square(m)
    assert mat_mul((0, 1, 2, 0), (0, 1, 2, 0), 3) == (2, 0, 0, 2)


def test_negation_and_matrix_vector_product():
    assert mat_neg((0, 1, 2, 4), 5) == (0, 4, 3, 1)
    assert mat_vec((2, 1, 3, 4), (1, 2), 5) == (4, 1)
    for m in all_matrices(3):
        for j, unit in enumerate(((1, 0), (0, 1))):
            assert mat_vec(m, unit, 3) == (m[j], m[2 + j])  # column j


def test_det_trace_rank():
    # modring has no trace or rank function; the rank of 1 - phi - psi is
    # covered by the coset_reps_for tests
    assert mat_det((2, 1, 3, 4), 5) == 0
    assert mat_det((1, 0, 0, 1), 5) == 1
    assert mat_det((0, 1, 1, 0), 5) == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_exhaustive(p):
    invertible = gl2(p)
    assert len(invertible) == (p * p - 1) * (p * p - p)
    for m in invertible:
        assert mat_mul(mat_inv(m, p), m, p) == (1, 0, 0, 1)


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        mat_inv((1, 2, 2, 4), 5)


def test_sqrt_examples_mod_7():
    assert sqrt_mod_prime(2, 7) == (3, 4)
    assert sqrt_mod_prime(0, 7) == (0,)
    assert sqrt_mod_prime(3, 7) == ()


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_square_count(p):
    with_roots = sum(1 for x in range(p) if sqrt_mod_prime(x, p))
    assert with_roots == (p + 1) // 2


@given(st.sampled_from(ODD_PRIMES), st.integers(min_value=0, max_value=300))
@settings(max_examples=80)
def test_sqrt_roots_square_back(p, x):
    roots = sqrt_mod_prime(x, p)
    for r in roots:
        assert r * r % p == x % p
    if x % p != 0 and roots:
        assert len(roots) == 2 and roots[0] < roots[1]
        assert is_square_mod(x, p)


def test_sqrt_rejects_non_prime_field():
    with pytest.raises(ValueError):
        sqrt_mod_prime(1, 9)
    with pytest.raises(ValueError):
        sqrt_mod_prime(1, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vector_outside_line_is_the_least_off_the_line(p):
    # the least vector off a line now lives in coset_reps_for: every line
    # of Z_p^2 is the image of some rank-one 1 - phi - psi with
    # phi^2 = psi^2, and each such pair gets the least vector off it
    vectors = sorted((x, y) for x in range(p) for y in range(p))
    by_square = {}
    for m in gl2(p):
        by_square.setdefault(mat_mul(m, m, p), []).append(m)
    reps_by_line = {}
    for group in by_square.values():
        for phi in group:
            for psi in group:
                m = tuple(
                    (e - f - g) % p for e, f, g in zip((1, 0, 0, 1), phi, psi)
                )
                if mat_det(m, p) != 0 or m == (0, 0, 0, 0):
                    continue
                line = frozenset(mat_vec(m, v, p) for v in vectors)
                reps_by_line.setdefault(line, set()).add(
                    tuple(coset_reps_for(phi, psi, p))
                )
    lines = {
        frozenset((k * d[0] % p, k * d[1] % p) for k in range(p))
        for d in vectors[1:]
    }
    assert set(reps_by_line) == lines and len(lines) == p + 1
    for line, reps in reps_by_line.items():
        least_off = next(v for v in vectors if v not in line)
        assert reps == {((0, 0), least_off)}
