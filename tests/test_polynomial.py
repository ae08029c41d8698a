"""Polynomial representation, transforms, and cubic root analysis."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from polynomials import coefficient_strings, from_coefficient_strings, from_roots, magnitude_at

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
from nongauss.polynomial import (
    _real_roots,
    cubic_discriminant_exact,
    fujiwara_exponent,
    integer_coefficients,
)


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
    assert Polynomial([7]).derivative() == Polynomial([0])
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


def test_coefficients_are_kept_as_given():
    # a float next to an exact value rounds neither; only zeros are dropped in front
    p = Polynomial([1, 0.5])
    assert type(p.coeffs[0]) is int and not p.exact
    assert Polynomial([Fraction(1, 10**400), 1.0]).degree == 1
    assert Polynomial([0, 0.0, 2, 1.0]).coeffs == (2, 1.0)


def test_taylor_shift_by_a_float_rounds_as_the_float_form_does():
    # exact coefficients meet a float shift with the bits of rounding them first
    rng = random.Random(11)
    for _ in range(200):
        exact = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(rng.randint(2, 8))]
        exact[0] = exact[0] or Fraction(1, 3)
        t = rng.uniform(-4.0, 4.0)
        shifted = Polynomial(exact).taylor_shift(t).coeffs
        rounded = Polynomial([float(c) for c in exact]).taylor_shift(t).coeffs
        assert shifted[0] == exact[0]
        assert [c.hex() for c in shifted[1:]] == [c.hex() for c in rounded[1:]]


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
    assert from_coefficient_strings(coefficient_strings(p)) == p


def test_float_serialization_roundtrip():
    p = Polynomial([0.1, -2.75, 3e-17])
    q = from_coefficient_strings(coefficient_strings(p))
    assert q.coeffs == p.coeffs


def test_cubic_roots_three_distinct():
    rs = cubic_roots(CubicCoeffs(1, 0, -1, 0))
    assert rs.classification is RootClassification.THREE_DISTINCT_REAL
    assert tuple(r for r, _ in rs.roots) == pytest.approx((-1.0, 0.0, 1.0), abs=1e-14)


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


_R = 2.0**300


@pytest.mark.parametrize(
    "coeffs,roots",
    [
        ((1.0, -_R, 1.0, -_R), ((_R, 1),)),  # (x - R)(x^2 + 1)
        ((1.0, -_R, _R * _R, -_R * _R * _R), ((_R, 1),)),  # (x - R)(x^2 + R^2)
        ((1.0, -3.0 * _R, 3.0 * _R * _R, -_R * _R * _R), ((_R, 3),)),  # (x - R)^3
        ((-1.0, -_R, -_R * _R, -_R * _R * _R), ((-_R, 1),)),  # -(x + R)(x^2 + R^2)
    ],
)
def test_cubic_roots_far_beyond_unit_scale(coeffs, roots):
    # b*b - 4*a*c of the derivative and f near its roots leave the float range
    # unless they are formed on mantissas
    rs = cubic_roots(CubicCoeffs(*coeffs))
    assert [m for _, m in rs.roots] == [m for _, m in roots]
    assert tuple(r for r, _ in rs.roots) == pytest.approx(tuple(r for r, _ in roots), rel=1e-15)


@pytest.mark.parametrize(
    "coeffs",
    [(10.0**-k, 1.0, 0.0, -1.0) for k in range(9, 16)] + [(1e-300, 1e8, 0.0, -1.0)],
)
def test_cubic_roots_far_below_the_largest(coeffs):
    # roots near +-1 (near +-1e-4) next to one near -b/a, as the closed forms
    # lost them to cancellation
    with mpmath.workdps(60):
        expected = mpmath.polyroots([mpmath.mpf(c) for c in coeffs], maxsteps=400, extraprec=2000)
    expected = sorted(float(z.real) for z in expected)
    rs = cubic_roots(CubicCoeffs(*coeffs))
    assert rs.classification is RootClassification.THREE_DISTINCT_REAL
    for (root, mult), r in zip(rs.roots, expected):
        assert mult == 1 and abs(root - r) <= 1e-12 * abs(r)


def _cleared_or_rounded(cs, as_floats):
    """Fraction coefficients cleared to integers, or each rounded to a float."""
    if as_floats:
        return [float(c) for c in cs]
    den = math.lcm(*(c.denominator for c in cs))
    return [int(c * den) for c in cs]


def _within_ulps_of_sign_change(coeffs, x, ulps):
    """True if the exact cubic changes sign or vanishes among the floats
    within ``ulps`` of x, evaluated exactly in integers."""
    near = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            near.append(y)
    ints = _cleared_or_rounded([Fraction(c) for c in coeffs], False)
    signs = []
    for y in sorted(v for v in near if math.isfinite(v)):
        p, q = y.as_integer_ratio()  # the sign of q^3 f(p / q), q > 0
        value = sum(c * p ** (3 - i) * q**i for i, c in enumerate(ints))
        signs.append((value > 0) - (value < 0))
    return 0 in signs or len(set(signs)) > 1


@pytest.mark.parametrize("e", [5, 40, 300])
def test_cubic_roots_are_within_four_ulps_of_a_sign_change(e):
    # coefficients +-10^U(-E, E); D != 0 for every draw
    rng = random.Random(600 + e)
    checked = 0
    for _ in range(200):
        coeffs = [rng.choice((-1, 1)) * 10 ** rng.uniform(-e, e) for _ in range(4)]
        try:
            rs = cubic_roots(CubicCoeffs(*coeffs))
        except DomainError:  # a root beyond the float range
            continue
        for x, _ in rs.roots:
            assert _within_ulps_of_sign_change(coeffs, x, 4), (coeffs, x)
            checked += 1
    assert checked >= 200


def _cubic_from(leading, real, u, v2):
    """leading * (x - real) * ((x - u)^2 + v2), expanded in Fractions."""
    p, q = -2 * u, u * u + v2
    return [leading, leading * (p - real), leading * (q - real * p), -leading * real * q]


def _within_ulps_of_the_roots(coeffs, xs, ulps):
    """True if the sorted xs are each within ``ulps`` of the matching exact
    real root, the real roots being the len(xs) roots nearest the real
    axis (mpmath at 100 digits)."""
    with mpmath.workdps(100):
        zs = mpmath.polyroots([mpmath.mpf(c) for c in coeffs], maxsteps=200, extraprec=200)
        reals = sorted(float(z.real) for z in sorted(zs, key=lambda z: abs(z.imag))[: len(xs)])
    return all(abs(x - r) <= ulps * math.ulp(r) for x, r in zip(sorted(xs), reals))


def _assert_roots_certified(forms):
    for coeffs in forms:
        xs = [x for x, _ in cubic_roots(CubicCoeffs(*coeffs)).roots]  # DomainError fails the test
        if not all(_within_ulps_of_sign_change(coeffs, x, 2) for x in xs):
            # two roots between adjacent floats change no sign on the float grid
            assert _within_ulps_of_the_roots(coeffs, xs, 2), (coeffs, xs)


def test_cubic_roots_of_near_tangent_cubics():
    # a (x - r)((x - s)^2 +- 10^-2k): a real pair s +- 10^-k, or a complex
    # pair that far from the real axis, which the first chart does not
    # resolve; the charts centred on the critical points do
    rng = random.Random(83)
    forms = []
    for i in range(300):
        leading = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        r, s = Fraction(rng.uniform(-20, 20)), Fraction(rng.uniform(-20, 20))
        width = Fraction(rng.choice((-1, 1)), 10 ** (2 * rng.randint(1, 20)))
        forms.append(_cleared_or_rounded(_cubic_from(leading, r, s, width), i % 2))
    _assert_roots_certified(forms)


def test_cubic_roots_of_near_triple_clusters():
    # three roots within 10^-k of r: all real, or one real and a complex
    # pair; the centroid chart brings the cluster to unit scale
    rng = random.Random(89)
    forms = []
    for i in range(300):
        leading = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        r, width = Fraction(rng.uniform(-20, 20)), Fraction(1, 10 ** rng.randint(2, 16))
        real, u = (r + width * Fraction(rng.uniform(-1, 1)) for _ in range(2))
        v = width * Fraction(rng.uniform(0.01, 1))
        v2 = -v * v if i % 4 < 2 else v * v  # three real roots, or one
        forms.append(_cleared_or_rounded(_cubic_from(leading, real, u, v2), i % 2))
    _assert_roots_certified(forms)


def test_cubic_roots_keep_a_certified_root_of_a_location_with_too_few():
    # 7e14 (x + 5/7)((x + 10)^2 - 10^-14): the first chart makes the pair
    # complex but has -5/7 to an ulp; the chart centred on the pair's
    # critical point resolves the pair and has -5/7 9 ulps off
    coeffs = (7 * 10**14, 145 * 10**14, 8 * 10**16 - 7, 5 * 10**16 - 5)
    (low, _), (high, _), (alone, _) = cubic_roots(CubicCoeffs(*coeffs)).roots
    assert (low, high) == (-10.0000001, -9.9999999)
    assert abs(alone + 5 / 7) <= math.ulp(5 / 7)
    for x in (low, high, alone):
        assert _within_ulps_of_sign_change(coeffs, x, 1)


def test_cubic_roots_whose_derivative_overflows_at_the_callers_scale():
    # 3 * 1.7e308, the derivative's leading coefficient, is no float: the
    # roots are located at unit root scale (once DomainError, "fewer than 3
    # real roots located")
    rs = cubic_roots(CubicCoeffs(1.7e308, -1.7e308, 1, 1))
    assert rs.roots == ((-7.669649888473705e-155, 1), (7.669649888473705e-155, 1), (1.0, 1))
    for x, _ in rs.roots:
        assert _within_ulps_of_sign_change((1.7e308, -1.7e308, 1, 1), x, 1)


def test_cubic_roots_of_a_near_tangent_exact_cubic():
    # (x - 1)((x - 2)^2 + 10^-16): the float form (1, -5, 8, -4) has a double
    # root at 2, and D < 0 leaves the one real root 1
    tiny = Fraction(1, 10**16)
    rs = cubic_roots(CubicCoeffs(1, -5, 8 + tiny, -4 - tiny))
    assert rs.classification is RootClassification.ONE_REAL_ONE_COMPLEX_PAIR
    [(root, mult)] = rs.roots
    assert mult == 1 and abs(root - 1.0) <= math.ulp(1.0)


def test_quadratic_roots_scale_exactly_across_the_float_range():
    rng = random.Random(41)
    for _ in range(50):
        a, b, c = (rng.uniform(-2, 2) for _ in range(3))
        base = _real_roots([a, b, c])[0]
        for k in range(-1000, 1001, 125):
            assert _real_roots([math.ldexp(v, k) for v in (a, b, c)])[0] == base
        for j in range(-496, 497, 62):
            k = -j if j > 0 else -2 * j  # every exponent within +-1000
            dilated = [math.ldexp(a, 2 * j + k), math.ldexp(b, j + k), math.ldexp(c, k)]
            assert _real_roots(dilated)[0] == [math.ldexp(r, -j) for r in base]


def test_cubic_roots_root_beyond_float_range():
    # the root near -b/a = -1e310 has no float
    with pytest.raises(DomainError):
        cubic_roots(CubicCoeffs(1e-300, 1e10, 0.0, 1.0))


def test_cubic_roots_leading_coefficient_that_underflows():
    # 10^-400 x^3 + x^2 - 1: the root near -10^400 has no float; the float
    # form is the quadratic x^2 - 1, located with its own critical points
    with pytest.raises(DomainError, match="beyond the float range"):
        cubic_roots(CubicCoeffs(Fraction(1, 10**400), 1, 0, -1))


@pytest.mark.parametrize("scale", [Fraction(2**1100), Fraction(1, 2**1200)])
def test_cubic_roots_of_exact_coefficients_beyond_the_float_range(scale):
    # 2^k f has f's roots; at 2^1100 the caller-scale chart cannot hold the
    # coefficients and is skipped (once DomainError, "a coefficient lies
    # beyond the float range"), at 2^-1200 they underflow there to a chart
    # that locates nothing
    base = (1659.177676832891, 1.358994224103214, -2871.153018570393, 0.1348157539289555)
    scaled = cubic_roots(CubicCoeffs(*[Fraction(v) * scale for v in base]))
    assert scaled == cubic_roots(CubicCoeffs(*base))
    assert len(scaled.roots) == 3


def test_cubic_roots_repeated_root_beyond_float_range():
    # (x - 10^400)^3: D = 0, and the triple root of Yun's factor has no float
    with pytest.raises(DomainError, match="a real root lies beyond the float range"):
        cubic_roots(CubicCoeffs(1, -3 * 10**400, 3 * 10**800, -(10**1200)))


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
                assert abs(p(root)) <= 1e-12 * magnitude_at(p.coeffs, root)


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


def test_factor_out_root_tolerance_follows_the_terms():
    # f(0.5) = -3.75e-21 is not small beside the terms of 1e-20 * (x^3 - x)
    with pytest.raises(NotARoot):
        factor_out_root(CubicCoeffs(1e-20, 0.0, -1e-20, 0.0), 0.5)


def test_factor_out_root_rejects_nan():
    with pytest.raises(DomainError):
        factor_out_root(CubicCoeffs(1.0, 0.0, -1.0, 0.0), math.nan)


def test_factor_out_root_terms_beyond_the_float_range():
    with pytest.raises(DomainError):
        factor_out_root(CubicCoeffs(1.0, 0.0, -1.0, 0.0), 1e200)


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


def test_fujiwara_exponent_bounds_every_root():
    rng = random.Random(67)
    for _ in range(300):
        degree = rng.randint(1, 7)
        roots = [math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(-60, 60)) for _ in range(degree)]
        coeffs = from_roots(roots, leading=rng.uniform(-4.0, 4.0) or 1.0).coeffs
        assert max(abs(r) for r in roots) < 2.0 ** (fujiwara_exponent(coeffs) + 2)
    assert fujiwara_exponent([3.0, 0.0, 0.0]) == 0


def test_fujiwara_exponent_matches_the_float_quotient_form():
    # the same bound with float quotients: ceil of the largest (e_i - e_0) / i
    rng = random.Random(71)
    for _ in range(500):
        coeffs = [math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(-300, 300)) for _ in range(4)]
        ea = math.frexp(coeffs[0])[1]
        quotients = [(math.frexp(v)[1] - ea) / i for i, v in enumerate(coeffs[1:], 1)]
        assert fujiwara_exponent(coeffs) == math.ceil(max(quotients))
