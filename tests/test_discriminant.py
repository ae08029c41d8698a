"""Exact resultants, discriminants, and the algebraic identities among them."""

import random
from fractions import Fraction

import pytest

from term_tables import discriminant_quartic_explicit, discriminant_quintic_explicit

from nongauss import (
    CubicCoeffs,
    DegreeTooLow,
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
