"""Polynomial representation, transforms, and cubic root analysis."""

import math
import random
from fractions import Fraction

import pytest

from nongauss import (
    CubicCoeffs,
    DomainError,
    NotARoot,
    DegenerateLeadingCoefficient,
    Polynomial,
    RootClassification,
    cubic_roots,
    factor_out_root,
)
from nongauss.polynomial import cubic_discriminant_exact, integer_coefficients


def fraction_cubic_discriminant(a, b, c, d):
    """Reference: the five-term expansion evaluated over Fractions."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    return b * b * c * c + 18 * a * b * c * d - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d


def poly_multiply(a, b):
    """Independent convolution oracle for coefficient products."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def synthetic_division(coeffs, alpha):
    """Independent quotient oracle: divide leading-first coeffs by (x - alpha)."""
    quotient = [coeffs[0]]
    for c in coeffs[1:-1]:
        quotient.append(c + alpha * quotient[-1])
    remainder = coeffs[-1] + alpha * quotient[-1]
    return quotient, remainder


def test_eval_examples():
    assert Polynomial([1, 0, -1, 0])(2) == 6
    assert Polynomial([1, 0, 0, 1])(-1) == 0
    assert Polynomial([3, 2, 1])(0) == 1


def test_eval_uses_horner_associativity():
    p = Polynomial([2.0, -3.0, 0.5, 7.0])
    x = 1.3
    assert p(x) == ((2.0 * x - 3.0) * x + 0.5) * x + 7.0


def test_derivative_cubic_shape():
    for b, c, d in [(2, 3, 5), (-1, 0, 4), (0, 0, 0)]:
        assert Polynomial([1, b, c, d]).derivative() == Polynomial([3, 2 * b, c])


def test_derivative_trivial_cases():
    assert Polynomial([7]).derivative().is_zero()
    assert Polynomial([1, 0, 0, 0, 0, 0]).derivative() == Polynomial([5, 0, 0, 0, 0])


def test_taylor_shift_binomial():
    assert Polynomial([1, 0, 0]).taylor_shift(1) == Polynomial([1, 2, 1])


def test_taylor_shift_factored_cubic():
    # shifting (x - alpha)(a x^2 + k x + l) by alpha gives
    # y * (a y^2 + (2 a alpha + k) y + (a alpha^2 + k alpha + l))
    rng = random.Random(3)
    for _ in range(25):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        k = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        l = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        cubic = Polynomial(poly_multiply([1, -alpha], [a, k, l]))
        expected = Polynomial(
            poly_multiply([1, 0], [a, 2 * a * alpha + k, a * alpha**2 + k * alpha + l])
        )
        assert cubic.taylor_shift(alpha) == expected


def test_taylor_shift_identity():
    p = Polynomial([2, -1, 3])
    assert p.taylor_shift(0) == p


def test_taylor_shift_roundtrip_exact():
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(5)]
        coeffs[0] = coeffs[0] or Fraction(1)
        t = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        p = Polynomial(coeffs)
        assert p.taylor_shift(t).taylor_shift(-t) == p


def test_reverse_examples():
    assert Polynomial([1, 2, 3, 4]).reverse() == Polynomial([4, 3, 2, 1])
    assert Polynomial([1, 2, 2, 1]).reverse() == Polynomial([1, 2, 2, 1])
    # x^3 reverses to the constant 1
    assert Polynomial([1, 0, 0, 0]).reverse() == Polynomial([1])


def test_reverse_involution_nonzero_constant():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))]
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or 2
        p = Polynomial(coeffs)
        assert p.reverse().reverse() == p


def test_exact_serialization_roundtrip():
    p = Polynomial([Fraction(3, 2), -4, Fraction(0), Fraction(7, 5)])
    assert Polynomial.from_coefficient_strings(p.coefficient_strings()) == p


def test_float_serialization_roundtrip():
    p = Polynomial([0.1, -2.75, 3e-17])
    q = Polynomial.from_coefficient_strings(p.coefficient_strings())
    assert q.coeffs == p.coeffs


def test_cubic_roots_three_distinct():
    rs = cubic_roots(CubicCoeffs(1, 0, -1, 0))
    assert rs.classification is RootClassification.THREE_DISTINCT_REAL
    assert rs.values() == pytest.approx((-1.0, 0.0, 1.0), abs=1e-14)


def test_cubic_roots_one_real():
    rs = cubic_roots(CubicCoeffs(1, 0, 0, 1))
    assert rs.classification is RootClassification.ONE_REAL_ONE_COMPLEX_PAIR
    assert rs.roots == ((-1.0, 1),)


def test_cubic_roots_triple():
    rs = cubic_roots(CubicCoeffs(1, -3, 3, -1))
    assert rs.classification is RootClassification.REPEATED_ROOT
    assert rs.roots == ((1.0, 3),)


def test_cubic_roots_double_plus_simple():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2
    rs = cubic_roots(CubicCoeffs(1, 0, -3, 2))
    assert rs.classification is RootClassification.REPEATED_ROOT
    assert dict((round(r, 9), m) for r, m in rs.roots) == {1.0: 2, -2.0: 1}


def test_cubic_roots_rejects_a_zero():
    with pytest.raises(DegenerateLeadingCoefficient):
        cubic_roots(CubicCoeffs(0, 1, 0, 1))


def test_root_count_matches_discriminant_sign():
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        coeffs = [rng.randint(-30, 30) for _ in range(4)]
        if coeffs[0] == 0:
            continue
        disc = cubic_discriminant_exact(*coeffs)
        if disc == 0:
            continue
        rs = cubic_roots(CubicCoeffs(*coeffs))
        if disc > 0:
            assert len(rs.roots) == 3
            assert rs.classification is RootClassification.THREE_DISTINCT_REAL
        else:
            assert len(rs.roots) == 1
            assert rs.classification is RootClassification.ONE_REAL_ONE_COMPLEX_PAIR
        checked += 1


def test_roots_polish_to_tiny_residual():
    rng = random.Random(23)
    for _ in range(200):
        coeffs = [rng.uniform(-2, 2) for _ in range(4)]
        if abs(coeffs[0]) < 1e-2:
            continue
        c = CubicCoeffs(*coeffs)
        if cubic_discriminant_exact(*coeffs) == 0:
            continue
        p = c.as_polynomial()
        for root, mult in cubic_roots(c).roots:
            if mult == 1:
                assert abs(p(root)) <= 1e-12 * p.scale_bound(root)


def test_factor_out_root_examples():
    # derived with the synthetic-division oracle
    for coeffs, alpha in [((1, 0, -1, 0), 1.0), ((1, 0, 0, 1), -1.0), ((1, 0, -1, 0), 0.0)]:
        quotient, remainder = synthetic_division(list(coeffs), alpha)
        assert abs(remainder) < 1e-12
        fact = factor_out_root(CubicCoeffs(*[float(v) for v in coeffs]), alpha)
        assert (fact.k, fact.l) == (quotient[1], quotient[2])


def test_factor_out_root_exact_mode():
    fact = factor_out_root(CubicCoeffs(1, 0, -1, 0), Fraction(1))
    assert (fact.alpha, fact.k, fact.l) == (1, 1, 0)
    with pytest.raises(NotARoot):
        factor_out_root(CubicCoeffs(1, 0, -1, 0), Fraction(1, 2))


def test_factor_out_root_rejects_non_root():
    with pytest.raises(NotARoot):
        factor_out_root(CubicCoeffs(1.0, 0.0, -1.0, 0.0), 0.5)


def test_factorization_reconstructs_cubic():
    rng = random.Random(31)
    done = 0
    while done < 120:
        coeffs = [rng.uniform(-3, 3) for _ in range(4)]
        if abs(coeffs[0]) < 1e-2 or cubic_discriminant_exact(*coeffs) == 0:
            continue
        c = CubicCoeffs(*coeffs)
        root = cubic_roots(c).roots[0][0]
        fact = factor_out_root(c, root)
        rebuilt = poly_multiply([1.0, -fact.alpha], [coeffs[0], fact.k, fact.l])
        scale = max(abs(v) for v in coeffs)
        for got, want in zip(rebuilt, coeffs):
            assert abs(got - want) <= 1e-12 * scale
        done += 1


def test_factorization_reconstruction_identities_exact():
    # b = k - a*alpha, c = l - k*alpha, d = -l*alpha
    a, alpha = Fraction(2), Fraction(3, 2)
    k, l = Fraction(-1), Fraction(5)
    b = k - a * alpha
    c = l - k * alpha
    d = -l * alpha
    fact = factor_out_root(CubicCoeffs(a, b, c, d), alpha)
    assert fact.k == k and fact.l == l
    assert b == fact.k - a * fact.alpha
    assert c == fact.l - fact.k * fact.alpha
    assert d == -fact.l * fact.alpha


def test_integer_coefficients_clears_one_common_denominator():
    ints, den = integer_coefficients([3, Fraction(1, 6), 0.375, Fraction(-5, 4)])
    assert den == 24
    assert ints == [72, 4, 9, -30]
    # floats alone give a power of two
    ints, den = integer_coefficients([0.1, -2.5, 1e-300])
    assert den & (den - 1) == 0
    assert [Fraction(p, den) for p in ints] == [Fraction(0.1), Fraction(-2.5), Fraction(1e-300)]
    assert integer_coefficients([7, -2]) == ([7, -2], 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_integer_coefficients_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        integer_coefficients([1, bad, 0.5])
    with pytest.raises(DomainError):
        cubic_discriminant_exact(1, 0, bad, 1)


def test_integer_discriminant_matches_fraction_expansion():
    rng = random.Random(61)
    draws = (
        lambda: rng.randint(-50, 50),
        lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
        lambda: rng.uniform(-2.0, 2.0),
        lambda: math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(-300, 300)),
    )
    for _ in range(2000):
        coeffs = [rng.choice(draws)() for _ in range(4)]
        assert cubic_discriminant_exact(*coeffs) == fraction_cubic_discriminant(*coeffs)
