"""Exact resultants, discriminants, and the algebraic identities among them."""

import math
import random
from fractions import Fraction

import pytest

from term_tables import discriminant_quartic_explicit, discriminant_quintic_explicit

from nongauss import (
    CubicCoeffs,
    DegreeTooLow,
    DomainError,
    Polynomial,
    Sign,
    discriminant_from_coeffs,
    discriminant_cubic_explicit,
    discriminant_general,
    key_lemma_check,
    resolvent_data,
    resultant,
    sylvester_matrix,
    vandermonde_delta_sq,
)
from nongauss.polynomial import _primitive, _subresultant


def fraction_gauss_determinant(rows):
    """Independent oracle: plain Gaussian elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] * inv
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


def bareiss_determinant(rows):
    """Independent oracle: fraction-free (Bareiss) elimination on integers."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - factor * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def sylvester_determinant(p):
    """det of ``sylvester_matrix(p)``: Bareiss on its rows cleared to integers."""
    entries = sylvester_matrix(p).entries
    den = math.lcm(*(v.denominator for row in entries for v in row))
    rows = [[v.numerator * (den // v.denominator) for v in row] for row in entries]
    return Fraction(bareiss_determinant(rows), den ** len(rows))


def expand_roots(roots, leading=1):
    coeffs = [Fraction(leading)]
    for r in roots:
        nxt = [coeffs[0]]
        for i in range(1, len(coeffs)):
            nxt.append(coeffs[i] - r * coeffs[i - 1])
        nxt.append(-r * coeffs[-1])
        coeffs = nxt
    return coeffs


def test_sylvester_cubic_layout():
    m = sylvester_matrix(Polynomial([1, 2, 3, 4]))
    a, b, c, d = 1, 2, 3, 4
    assert [[int(v) for v in row] for row in m.entries] == [
        [a, b, c, d, 0],
        [0, a, b, c, d],
        [3 * a, 2 * b, c, 0, 0],
        [0, 3 * a, 2 * b, c, 0],
        [0, 0, 3 * a, 2 * b, c],
    ]


def test_sylvester_quartic_layout():
    coeffs = [2, -1, 3, 5, 7]
    m = sylvester_matrix(Polynomial(coeffs))
    assert m.size == 7
    a0, a1, a2, a3, a4 = coeffs
    rows = [[int(v) for v in row] for row in m.entries]
    assert rows[0] == [a0, a1, a2, a3, a4, 0, 0]
    assert rows[2] == [0, 0, a0, a1, a2, a3, a4]
    assert rows[3] == [4 * a0, 3 * a1, 2 * a2, a3, 0, 0, 0]
    assert rows[6] == [0, 0, 0, 4 * a0, 3 * a1, 2 * a2, a3]


def test_sylvester_quadratic_layout():
    m = sylvester_matrix(Polynomial([1, 0, 1]))
    assert [[int(v) for v in row] for row in m.entries] == [
        [1, 0, 1],
        [2, 0, 0],
        [0, 2, 0],
    ]


def test_sylvester_rejects_low_degree():
    with pytest.raises(DegreeTooLow):
        sylvester_matrix(Polynomial([2, 1]))


@pytest.mark.parametrize(
    "coeffs,expected",
    [([1, 0, -1, 0], -4), ([1, 0, 0, 1], 27), ([1, -1, -1, 1], 0)],
)
def test_resultant_values(coeffs, expected):
    p = Polynomial(coeffs)
    assert resultant(p) == expected
    assert fraction_gauss_determinant(sylvester_matrix(p).entries) == expected


def test_discriminant_general_examples():
    assert discriminant_general(Polynomial([1, 0, -1, 0])).value == 4
    assert discriminant_general(Polynomial([1, 0, 0, 0, 1])).value == 256
    assert discriminant_general(Polynomial([1, 0, 1])).value == -4


@pytest.mark.parametrize(
    "coeffs,expected,sign",
    [
        ((1, 0, -1, 0), 4, Sign.POSITIVE),
        ((0, 1, 0, 1), -4, Sign.NEGATIVE),
        ((1, 2, 3, 5), -367, Sign.NEGATIVE),
        ((1, -3, 3, -1), 0, Sign.ZERO),
    ],
)
def test_discriminant_cubic_explicit(coeffs, expected, sign):
    result = discriminant_cubic_explicit(CubicCoeffs(*coeffs))
    assert result.value == expected
    assert result.sign is sign


def test_quartic_quintic_leading_terms():
    assert discriminant_quartic_explicit([1, 0, 0, 0, 1]) == 256
    assert discriminant_quintic_explicit([1, 0, 0, 0, 0, 1]) == 3125


def test_quintic_repeated_root_vanishes():
    # (x - 1)^2 (x^2 + 1) x
    coeffs = [1, -2, 2, -2, 1, 0]
    assert discriminant_quintic_explicit(coeffs) == 0
    assert discriminant_general(Polynomial(coeffs)).value == 0


def test_resolvent_data_examples():
    r = resolvent_data(CubicCoeffs(1, 0, -1, 0))
    assert (r.A, r.B, r.C) == (3, 0, 1)
    r = resolvent_data(CubicCoeffs(1, 0, 0, 1))
    assert (r.A, r.B, r.C) == (0, -9, 0)
    r = resolvent_data(CubicCoeffs(1, 0, 0, 0))
    assert (r.A, r.B, r.C) == (0, 0, 0)


def test_vandermonde_examples():
    assert vandermonde_delta_sq([-1, 0, 1], 1) == 4
    assert vandermonde_delta_sq([2, 2, 5], 1) == 0
    assert vandermonde_delta_sq([1, 2, 3], 2) == 64
    coeffs = expand_roots([1, 2, 3], leading=2)
    assert discriminant_cubic_explicit(CubicCoeffs(*coeffs)).value == 64


def test_key_lemma_examples():
    assert key_lemma_check(1, 0, 0, -1) == 0
    assert key_lemma_check(Fraction(1), Fraction(-1), Fraction(-1), Fraction(1)) == 0


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 0.5, 1e200, 1e200),  # the square overflowed: a bare OverflowError
        (1.0, 0.0, 1e160, 0.0),  # 0 * -inf: a nan residual
        # float() of the exact 10^400: a bare OverflowError
        (Fraction(10**400), 1.0, 1, 1),
    ],
)
def test_key_lemma_beyond_the_float_range_is_domain_error(args):
    with pytest.raises(DomainError, match="beyond the float range"):
        key_lemma_check(*args)


@pytest.mark.parametrize(
    "roots, a",
    [
        ((1.0, 2.0, 3.0), Fraction(10**400)),  # float() of a: a bare OverflowError
        ((1.0, 2.0, 3.0), 1e100),  # a**4: a bare OverflowError
        ((1e200, 2.0, 3.0), 1.0),  # the square of delta: inf
    ],
)
def test_vandermonde_beyond_the_float_range_is_domain_error(roots, a):
    with pytest.raises(DomainError, match="beyond the float range"):
        vandermonde_delta_sq(roots, a)


def test_key_lemma_random_rationals_exactly_zero():
    rng = random.Random(41)
    for _ in range(1000):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        assert key_lemma_check(*vals) == 0


def test_cubic_route_agreement():
    rng = random.Random(43)
    checked = 0
    while checked < 2000:
        coeffs = [rng.randint(-50, 50) for _ in range(4)]
        if coeffs[0] == 0:
            continue
        cubic = CubicCoeffs(*coeffs)
        explicit = discriminant_cubic_explicit(cubic).value
        general = discriminant_general(Polynomial(coeffs)).value
        res = resultant(Polynomial(coeffs))
        r = resolvent_data(cubic)
        assert explicit == general
        assert explicit == -res / coeffs[0]
        assert explicit == -(r.B * r.B - 4 * r.A * r.C) / 3
        checked += 1


def test_quartic_quintic_route_agreement():
    rng = random.Random(47)
    for degree, explicit in ((4, discriminant_quartic_explicit), (5, discriminant_quintic_explicit)):
        checked = 0
        while checked < 300:
            coeffs = [rng.randint(-10, 10) for _ in range(degree + 1)]
            if coeffs[0] == 0:
                continue
            assert discriminant_general(Polynomial(coeffs)).value == explicit(coeffs)
            checked += 1


def test_leading_zero_rule_matches_term_tables():
    # D_n(0, a1, ..., an) = a1^2 * D_{n-1}(a1, ..., an); the tables evaluate
    # the degree-n expansion at a0 = 0 directly
    rng = random.Random(67)
    tables = ((4, discriminant_quartic_explicit), (5, discriminant_quintic_explicit))
    for degree, explicit in tables:
        for _ in range(300):
            coeffs = [0] + [rng.randint(-10, 10) for _ in range(degree)]
            if rng.random() < 0.2:
                coeffs[1] = 0
            assert discriminant_from_coeffs(coeffs).value == explicit(coeffs)


def test_discriminant_dispatch_by_declared_degree():
    cubic = discriminant_cubic_explicit(CubicCoeffs(1, 2, 3, 5))
    assert discriminant_from_coeffs([1, 2, 3, 5]) == cubic
    assert discriminant_from_coeffs([1, 0, 0, 0, 1]).value == 256
    assert discriminant_from_coeffs([0, 1, 0, 0, 1]).value == -27
    assert discriminant_from_coeffs([0, 0, 1, 1, 1]).sign is Sign.ZERO
    assert discriminant_from_coeffs([Fraction(1, 2), 0, 1]).value == -2
    # D_2(0, b, c) = b^2 * D_1 = b^2, which b^2 - 4ac gives at a = 0
    assert discriminant_from_coeffs([0, 1, 2]).value == 1
    assert discriminant_from_coeffs([0, 0, 1]).value == 0


@pytest.mark.parametrize("values, declared", [([0, 1], 1), ([0, 0], 1), ([5], 0)])
def test_degree_too_low_names_the_declared_degree(values, declared):
    # leading zeros are dropped only after the declared degree is checked
    with pytest.raises(DegreeTooLow, match=f"got {declared}$"):
        discriminant_from_coeffs(values)


def test_monic_rational_root_construction():
    rng = random.Random(53)
    for _ in range(300):
        roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3)]
        coeffs = expand_roots(roots)
        disc = discriminant_cubic_explicit(CubicCoeffs(*coeffs)).value
        assert disc == vandermonde_delta_sq(roots, Fraction(1))


def test_reversal_symmetry_exact():
    rng = random.Random(59)
    for _ in range(500):
        a, b, c, d = (rng.randint(-40, 40) for _ in range(4))
        lhs = discriminant_cubic_explicit(CubicCoeffs(a, b, c, d)).value
        rhs = discriminant_cubic_explicit(CubicCoeffs(d, c, b, a)).value
        assert lhs == rhs


def test_fractional_coefficients_stay_exact():
    coeffs = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), Fraction(-1, 6)]
    p = Polynomial(coeffs)
    assert discriminant_general(p).value == discriminant_cubic_explicit(
        CubicCoeffs(*coeffs)
    ).value


def _seeded_forms(rng, degree):
    """Five forms of one degree: small integers, a trinomial, Fractions,
    floats scaled by 2^-300 or 2^300, and a repeated root (D = 0).

    The trinomial is a x^n + b x + c for even n, a x^n + b x^(n-1) + c for
    odd n: its remainder sequence skips degrees, and from n = 4 on it meets
    two odd degrees, where the resultant changes sign."""
    ints = [rng.randint(-30, 30) for _ in range(degree + 1)]
    ints[0] = ints[0] or 1
    a, b, c = (rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3))
    middle = [0] * (degree - 2) + [b] if degree % 2 == 0 else [b] + [0] * (degree - 2)
    sparse = [a] + middle + [c]
    fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
    fractions[0] = fractions[0] or Fraction(1, 7)
    scale = rng.choice((-300, 300))
    floats = [math.ldexp(rng.uniform(-1.0, 1.0), scale) for _ in range(degree + 1)]
    roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree - 1)]
    repeated = expand_roots(roots + roots[:1], leading=rng.randint(1, 5))
    return [ints, sparse, fractions, floats, repeated]


@pytest.mark.parametrize("degree", range(2, 11))
def test_resultant_equals_the_sylvester_determinant(degree):
    # the subresultant PRS against Bareiss on the Sylvester matrix itself
    rng = random.Random(100 + degree)
    sign = -1 if degree * (degree - 1) // 2 % 2 else 1
    zeros = 0
    for _ in range(6):
        for coeffs in _seeded_forms(rng, degree):
            p = Polynomial(coeffs)
            det = sylvester_determinant(p)
            assert resultant(p) == det
            expected = sign * det / Fraction(coeffs[0])
            assert discriminant_general(p).value == expected
            assert discriminant_from_coeffs(coeffs).value == expected
            zeros += expected == 0
    assert zeros >= 6


@pytest.mark.parametrize("degree", range(4, 11))
def test_leading_zeros_follow_the_sylvester_determinant(degree):
    # D_n(0, a1, ..., an) = a1^2 * D_{n-1}(a1, ..., an), with the inner D
    # from the Sylvester determinant
    rng = random.Random(200 + degree)
    sign = -1 if (degree - 1) * (degree - 2) // 2 % 2 else 1
    for coeffs in _seeded_forms(rng, degree - 1):
        inner = sign * sylvester_determinant(Polynomial(coeffs)) / Fraction(coeffs[0])
        expected = Fraction(coeffs[0]) ** 2 * inner
        assert discriminant_from_coeffs([0] + list(coeffs)).value == expected


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _integer_quotient(a, b):
    """a / b by long division over the rationals; asserts that b divides a
    and that the quotient has integer coefficients."""
    a, q = [Fraction(c) for c in a], []
    while len(a) >= len(b):
        q.append(a[0] / b[0])
        a = [u - q[-1] * v for u, v in zip(a[1:], b[1:] + [0] * len(a))]
    assert not any(a)
    assert all(c.denominator == 1 for c in q)
    return [int(c) for c in q]


def _sylvester_resultant(a, b):
    """R(a, b): Bareiss on deg b shifted rows of a over deg a shifted rows of b."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return bareiss_determinant(rows)


def _random_factor(rng, degree):
    return [rng.choice((-1, 1)) * rng.randint(1, 6)] + [rng.randint(-7, 7) for _ in range(degree)]


def _kernel_pairs(rng, count):
    """(a, b, g) with g a common factor of the integer polynomials a and b,
    deg a > deg b >= deg g; g is 1, square-free or a square, and a has a
    repeated linear factor of its own every other draw."""
    for i in range(count):
        h = _random_factor(rng, rng.randint(0, 2))
        g = _times(h, h) if i % 3 == 2 else h
        u = _random_factor(rng, rng.randint(1, 4))
        if i % 2:
            r = _random_factor(rng, 1)
            u = _times(u, _times(r, r))
        v = _random_factor(rng, rng.randint(0, len(u) - 2))
        yield _times(g, u), _times(g, v), g


@pytest.mark.parametrize("seed", range(4))
def test_subresultant_kernel_gives_the_resultant_and_the_gcd(seed):
    rng = random.Random(500 + seed)
    shared = 0
    for a, b, g in _kernel_pairs(rng, 60):
        r, gcd = _subresultant(a, b)
        # primitive with a positive leading coefficient
        assert gcd[0] > 0 and math.gcd(*gcd) == 1
        # a common divisor, and the greatest: the cofactors are coprime
        cofactor_a, cofactor_b = _integer_quotient(a, gcd), _integer_quotient(b, gcd)
        assert _times(gcd, cofactor_a) == a and _times(gcd, cofactor_b) == b
        _integer_quotient(gcd, _primitive(g))
        assert _sylvester_resultant(cofactor_a, cofactor_b) != 0
        assert (r == 0) == (len(gcd) > 1)
        assert r == _sylvester_resultant(a, b)
        shared += len(gcd) > 1
    assert 30 <= shared < 60


@pytest.mark.parametrize("a", [[3, 0, -1], [-2, 5, 1, 7], [1, -4, 6, -4, 1]])
def test_subresultant_kernel_on_a_constant_or_zero_b(a):
    for c in (1, -3, 5):
        assert _subresultant(a, [c]) == (c ** (len(a) - 1), [1])
        assert _subresultant(a, [c])[0] == _sylvester_resultant(a, [c])
    assert _subresultant(a, []) == (0, _primitive(a))
