"""Property tests of the numeric integral and the exact discriminant.

Two exact symmetries of F serve as oracles that need no closed form:
dilation, F(f(2^j x)) = 2^-j F(f), which the quadrature reproduces to the
last bit, and homogeneity, F(2^k f) = 2^(-2k/3) F(f).  Both also hold for
the failures: an input and its image fail with the same error kind.  The
closed forms reproduce both to the last bit where the factor is a power of
two: dilation, 2^(3k) f, and the Gaussian's (4^j a, 2^j b, c).

The exact discriminant of a binary form of degree n = 3..8 is an oracle of
the same kind: it is unchanged by SL(2, Z), reversal and translation, and
scales by 2^(k(2n-2)) under f -> 2^k f, all as exact rationals.  The
finite-difference verifiers give bit-identical residuals for 2^k f.
"""

import itertools
import math
import warnings
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from nongauss import (
    CubicCoeffs,
    IllConditionedWarning,
    NonGaussError,
    Polynomial,
    closed_form_integral,
    discriminant_from_coeffs,
    expectations_fd_check,
    gaussian_analogue,
    integral_numeric,
    integral_numeric_general,
    pde_identity_residuals,
)

# coefficients m * 2^k with a dyadic mantissa |m| < 2 and k log-uniform in
# [-12, 12], so every dilation and rescaling below stays exact in floats
_coefficient = st.builds(
    lambda m, k: math.ldexp(m / 2.0**19, k),
    st.integers(-(2**20), 2**20),
    st.integers(-12, 12),
)
_cubic = st.lists(_coefficient, min_size=4, max_size=4)
_SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _outcome(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            result = integral_numeric(CubicCoeffs(*coeffs))
        except NonGaussError as exc:
            return type(exc)
    return result.value, result.error_estimate


@_SETTINGS
@given(_cubic, st.integers(-100, 100))
def test_dilation_is_exact(coeffs, j):
    dilated = [math.ldexp(c, j * (3 - i)) for i, c in enumerate(coeffs)]
    base, image = _outcome(coeffs), _outcome(dilated)
    if isinstance(base, type):
        assert image is base
    else:
        assert image == (math.ldexp(base[0], -j), math.ldexp(base[1], -j))


@_SETTINGS
@given(_cubic, st.integers(-900, 900))
def test_power_of_two_homogeneity(coeffs, k):
    base, image = _outcome(coeffs), _outcome([math.ldexp(c, k) for c in coeffs])
    if isinstance(base, type):
        assert image is base
        return
    # 2^(-2k/3) split as 2^(r/3) * 2^q, so the reference itself is accurate
    q, r = divmod(-2 * k, 3)
    expected = math.ldexp(base[0] * 2.0 ** (r / 3), q)
    assert abs(image[0] - expected) <= 1e-14 * expected


@_SETTINGS
@given(_cubic, st.integers(-100, 100), st.integers(-300, 300))
def test_closed_form_scales_exactly(coeffs, j, k):
    # D of f(2^j x) is 2^(6j) D and D of 2^(3k) f is 2^(12k) D: the split of
    # |D| into m 2^e moves e alone, so F moves by exactly 2^-j and 2^(-2k)
    base = _closed_form_outcome(coeffs)
    dilated = [math.ldexp(c, j * (3 - i)) for i, c in enumerate(coeffs)]
    images = [_closed_form_outcome(image) for image in (dilated, _scaled(coeffs, 3 * k))]
    if isinstance(base, type):
        assert images == [base, base]
    else:
        f = float.fromhex(base)
        assert images == [math.ldexp(f, -j).hex(), math.ldexp(f, -2 * k).hex()]


def _gaussian_outcome(a, b, c):
    try:
        return gaussian_analogue(a, b, c)
    except NonGaussError as exc:
        return type(exc)


@_SETTINGS
@given(_coefficient, _coefficient, _coefficient, st.integers(-300, 300))
def test_gaussian_analogue_scales_exactly(a, b, c, j):
    # D2 of (4^j a, 2^j b, c) is 4^j D2, so the value moves by exactly 2^-j
    base = _gaussian_outcome(abs(a), b, abs(c))
    image = _gaussian_outcome(math.ldexp(abs(a), 2 * j), math.ldexp(b, j), abs(c))
    assert image == (base if isinstance(base, type) else math.ldexp(base, -j))


def _verifier_outcome(coeffs, step):
    out = []
    for verifier in (expectations_fd_check, pde_identity_residuals):
        try:
            out.append(verifier(CubicCoeffs(*coeffs), step=step))
        except NonGaussError as exc:
            out.append(type(exc))
    return out


@_SETTINGS
@given(_cubic, st.integers(-900, 900), st.sampled_from([None, 1e-4, 1e-3]))
def test_fd_residuals_are_scale_free(coeffs, k, step):
    # the stencil runs on the coefficients divided by a power of two, so 2^k f
    # with a 2^k step gives the same residuals bit for bit, or the same error
    scaled_step = None if step is None else math.ldexp(step, k)
    base = _verifier_outcome(coeffs, step)
    assert _verifier_outcome([math.ldexp(c, k) for c in coeffs], scaled_step) == base


def _forms(low, high):
    """Integer forms of degree low..high with a nonzero leading coefficient;
    leading zeros come from their images and go through the declared-degree
    rule of ``discriminant_from_coeffs``."""
    return st.integers(low, high).flatmap(
        lambda n: st.tuples(
            st.integers(-40, 40).filter(bool),
            st.lists(st.integers(-40, 40), min_size=n, max_size=n),
        ).map(lambda t: [t[0]] + t[1])
    )


_form = _forms(3, 8)
_k = st.integers(-300, 300)
_SL2 = [m for m in itertools.product(range(-3, 4), repeat=4) if m[0] * m[3] - m[1] * m[2] == 1]


def _scaled(coeffs, k):
    """2^k f as floats: exact, and it sends D through the float route."""
    return [math.ldexp(c, k) for c in coeffs]


def _disc(coeffs):
    return discriminant_from_coeffs(coeffs).value


def _product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sl2_image(coeffs, m):
    """Coefficients of f(alpha x + beta y, gamma x + delta y) for the binary
    form f(x, y) = sum a_i x^(n-i) y^i, leading first, in exact integers."""
    alpha, beta, gamma, delta = m
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for i, a in enumerate(coeffs):
        term = [a]
        for _ in range(n - i):
            term = _product(term, [alpha, beta])
        for _ in range(i):
            term = _product(term, [gamma, delta])
        out = [u + v for u, v in zip(out, term)]
    return out


@_SETTINGS
@given(_form, st.sampled_from(_SL2), _k)
def test_discriminant_is_sl2_invariant(coeffs, m, k):
    image = _sl2_image(coeffs, m)
    assert _disc(image) == _disc(coeffs)
    assert _disc(_scaled(image, k)) == _disc(_scaled(coeffs, k))


@_SETTINGS
@given(_form, _k)
def test_discriminant_is_reversal_invariant(coeffs, k):
    assert _disc(coeffs[::-1]) == _disc(coeffs)
    assert _disc(_scaled(coeffs[::-1], k)) == _disc(_scaled(coeffs, k))


@_SETTINGS
@given(_form, _k, st.integers(-64, 64), st.integers(0, 6))
def test_discriminant_is_translation_invariant(coeffs, k, num, shift):
    scaled = [Fraction(c) * Fraction(2) ** k for c in coeffs]
    translated = Polynomial(scaled).taylor_shift(Fraction(num, 2**shift))
    assert translated.exact and translated.degree == len(coeffs) - 1
    assert _disc(list(translated.coeffs)) == _disc(scaled)


@_SETTINGS
@given(_form, _k)
def test_discriminant_scales_by_a_power_of_two(coeffs, k):
    n = len(coeffs) - 1
    assert _disc(_scaled(coeffs, k)) == _disc(coeffs) * Fraction(2) ** (k * (2 * n - 2))


def _closed_form_outcome(coeffs):
    try:
        return closed_form_integral(CubicCoeffs(*coeffs)).value.hex()
    except NonGaussError as exc:
        return type(exc)


@_SETTINGS
@given(_forms(3, 3), st.sampled_from(_SL2), _k)
def test_closed_form_is_sl2_invariant(coeffs, m, k):
    image = _sl2_image(coeffs, m)
    assert _closed_form_outcome(image) == _closed_form_outcome(coeffs)
    assert _closed_form_outcome(_scaled(image, k)) == _closed_form_outcome(_scaled(coeffs, k))


def _general_outcome(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            return integral_numeric_general(Polynomial(coeffs)).value
        except NonGaussError as exc:
            return type(exc)


@_SETTINGS
@given(_forms(4, 8), st.sampled_from(_SL2))
def test_numeric_integral_is_sl2_invariant(coeffs, m):
    # F(f o M) = F(f) for det M = 1: x -> (alpha x + beta) / (gamma x + delta)
    # maps the line onto itself with dx / (gamma x + delta)^2 = d(Mx)
    image = _sl2_image(coeffs, m)
    assume(image[0] != 0)  # a root at infinity changes the degree
    base, moved = _general_outcome(coeffs), _general_outcome(image)
    if isinstance(base, type):
        assert moved is base
    else:
        assert abs(moved - base) <= 1e-12 * base
