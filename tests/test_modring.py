from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramedial.modring import (
    Mat2,
    MixedModulusError,
    Modulus,
    SingularMatrixError,
    Vec2,
    all_matrices,
    gl2,
    is_square_mod,
    sqrt_mod_prime,
    unit_group,
    vector_outside_line,
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
    for p, k in [(2, 31), (2**31 + 11, 1), (3, 10**8), (10**18 + 3, 1), (10**18 + 4, 1)]:
        with pytest.raises(ValueError, match="exceeds the supported range"):
            Modulus(p, k)


def test_mixed_modulus_rejected():
    with pytest.raises(MixedModulusError):
        Mat2.identity(3) @ Mat2.identity(5)
    with pytest.raises(MixedModulusError):
        Mat2.identity(3).matvec(Vec2(1, 0, 5))


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
        r = m.rows()
        out = [[0, 0], [0, 0]]
        for i in range(2):
            for j in range(2):
                out[i][j] = sum(r[i][t] * r[t][j] for t in range(2)) % 3
        (a, b), (c, d) = out
        return Mat2(a, b, c, d, 3)

    for m in all_matrices(3):
        assert m @ m == naive_square(m)
    assert Mat2(0, 1, 2, 0, 3).square() == Mat2(2, 0, 0, 2, 3)


def test_det_trace_rank():
    m = Mat2(2, 1, 3, 4, 5)
    assert m.det() == 0
    assert m.rank() == 1
    assert m.tr() == 1
    assert Mat2.identity(5).rank() == 2
    assert Mat2(0, 0, 0, 0, 5).rank() == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_exhaustive(p):
    identity = Mat2.identity(p)
    for m in gl2(p):
        assert m.inv() @ m == identity


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        Mat2(1, 2, 2, 4, 5).inv()


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
    vectors = sorted(Vec2(x, y, p) for x in range(p) for y in range(p))
    for d in vectors[1:]:
        off = [v for v in vectors if (v.x * d.y - v.y * d.x) % p != 0]
        assert vector_outside_line(d) == off[0]
    with pytest.raises(ValueError):
        vector_outside_line(Vec2(0, 0, p))
