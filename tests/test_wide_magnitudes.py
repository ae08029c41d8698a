"""Oracles over coefficients of wide magnitude.

Each coefficient is a random sign times 10^U(-E, E), so the roots of one
form lie many orders of magnitude apart and the quadrature has to resolve
features at every scale at once.  Cubics are checked against the closed
form; degree 4-6 forms, which have none, against the invariance of F under
the reversal x^n f(1/x) and the reflection f(-x).  No failure of any kind
is accepted.  The closed form itself is checked against C+- |D|^(-1/6) in
mpmath, on binary scales up to 2^+-1000.
"""

import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest

from polynomials import from_roots

from nongauss import (
    CubicCoeffs,
    DivergentIntegral,
    DomainError,
    IllConditionedWarning,
    NonGaussError,
    Polynomial,
    closed_form_integral,
    constants,
    decompose,
    gaussian_analogue,
    gaussian_integral_numeric,
    integral_numeric,
    integral_numeric_general,
)


def _signed_magnitudes(rng, count, e):
    return [rng.choice((-1, 1)) * 10 ** rng.uniform(-e, e) for _ in range(count)]


def _outcome(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            return call(*args).value
        except NonGaussError as exc:
            return type(exc).__name__


@pytest.mark.parametrize("e", [5, 40])
def test_wide_magnitude_cubics_match_the_closed_form(e):
    rng = random.Random(5)
    failures = []
    for _ in range(500):
        cubic = CubicCoeffs(*_signed_magnitudes(rng, 4, e))
        closed = closed_form_integral(cubic).value
        numeric = _outcome(integral_numeric, cubic)
        if isinstance(numeric, str) or abs(numeric - closed) > 1e-8 * closed:
            failures.append((cubic.as_tuple(), numeric, closed))
    assert failures == []


# E cycles through 5, 40, 150 and 300.  At the widest, a cubic's covariant
# centre can fall below the normal floats (4 of these cubics took the
# centroid chart and ended in NoConvergence), and a Gaussian's middle
# coefficient can lie below the normal floats at the Fujiwara scale, which
# sent its chart to s = 0, where the lead was subnormal (10 failures)
_EXPONENTS = (5, 40, 150, 300)


def test_cubics_up_to_10_to_the_300_match_the_closed_form():
    rng = random.Random(2024)
    failures = []
    for i in range(1000):
        cubic = CubicCoeffs(*_signed_magnitudes(rng, 4, _EXPONENTS[i % 4]))
        closed = closed_form_integral(cubic).value
        numeric = _outcome(integral_numeric, cubic)
        if isinstance(numeric, str) or abs(numeric - closed) > 1e-9 * closed:
            failures.append((cubic.as_tuple(), numeric, closed))
    assert failures == []


def test_gaussians_up_to_10_to_the_300_match_the_analogue():
    rng = random.Random(2024)
    failures = []
    for i in range(1000):
        e = _EXPONENTS[i % 4]
        a, c = 10 ** rng.uniform(-e, e), 10 ** rng.uniform(-e, e)
        (b,) = _signed_magnitudes(rng, 1, e)
        try:
            reference = gaussian_analogue(a, b, c)
        except NonGaussError:  # D >= 0, or F beyond the float range
            continue
        numeric = _outcome(gaussian_integral_numeric, a, b, c)
        if isinstance(numeric, str) or abs(numeric - reference) > 1e-9 * reference:
            failures.append(((a, b, c), numeric, reference))
    assert failures == []


def test_a_pair_about_a_centre_below_the_floats_takes_the_covariant_chart():
    # a real pair at about +-7.2e-211 whose covariant centre, about
    # -3.3e-386, rounds to 0.0: the chart is exact about that centre (was
    # NoConvergence, "roots within rounding of each other at 0.0", on the
    # centroid chart)
    cubic = CubicCoeffs(
        7.444288524787754e-169, -3.459040760138975e289, -2.2775696289266755e-96, 1.801442111147233e-132
    )
    closed = closed_form_integral(cubic).value
    assert abs(integral_numeric(cubic).value - closed) <= 1e-12 * closed


# The worst relative error of closed_form_integral against C+- |D|^(-1/6) in
# mpmath, at unit scale and at binary scales up to 2^+-1000: |D| is split
# once into m 2^e, m rounded once, and only the sixth root of m 2^r, r = e
# mod 6, and its quotient round after that, so the error is a few units of
# rounding at every scale (about 2.0e-16 at both; it was 4.1e-15 and 1.5e-13
# when ln|D| was the difference of the rounded logs of D's numerator and
# denominator)
@pytest.mark.parametrize("k", [0, 1000])
def test_closed_form_is_within_a_pinned_gap_of_the_exact_sixth_root(k):
    rng = random.Random(2039)
    beta = constants()
    worst, passed = 0.0, 0
    while passed < 200:
        coeffs = [math.ldexp(rng.uniform(-2.0, 2.0), rng.randint(-k, k)) for _ in range(4)]
        try:
            result = closed_form_integral(CubicCoeffs(*coeffs))
        except (DomainError, DivergentIntegral):
            continue
        passed += 1
        d = result.discriminant.value
        c = beta.c_plus if d > 0 else beta.c_minus
        with mpmath.workdps(50):
            exact = mpmath.mpf(c) * abs(mpmath.mpf(d.numerator) / d.denominator) ** (-mpmath.mpf(1) / 6)
            worst = max(worst, float(abs(result.value - exact) / exact))
    assert worst <= 5e-16


def test_wide_magnitude_forms_keep_their_value_under_reversal_and_reflection():
    rng = random.Random(11)
    failures = []
    for _ in range(500):
        n = rng.randint(4, 6)
        coeffs = _signed_magnitudes(rng, n + 1, 20)
        images = [coeffs, coeffs[::-1], [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]]
        values = [_outcome(integral_numeric_general, Polynomial(image)) for image in images]
        unresolved = any(isinstance(v, str) for v in values)
        if unresolved or max(values) - min(values) > 1e-8 * min(values):
            failures.append((coeffs, values))
    assert failures == []


def _boundary_cubics():
    """Cubics with a root at or next to an end of the charts (|y| = 1, 2, 4),
    at several binary scales so that some land there at unit root scale, or
    at 5.999999999999998, whose image 1/y lies next to fl(1/6)."""
    near = [Fraction(v) for v in (1.0, 2.0, 4.0, 5.999999999999998)]
    for r in near:
        for eps in (Fraction(0), Fraction(1, 2**50), -Fraction(1, 2**50)):
            for k in range(-3, 4):
                base = (r + eps) * Fraction(2) ** k
                yield (base, -Fraction(1, 3) * base, Fraction(7, 5))
                yield (base, -base - Fraction(1, 2**10), base * Fraction(10**6))


@pytest.mark.parametrize("roots", list(_boundary_cubics()))
def test_no_cut_falls_within_rounding_of_a_root(roots):
    f = from_roots(roots)
    layout = decompose(f, 3)
    in_y = layout.breakpoints
    in_u = [1.0 / r for r in in_y if r]
    for panel in layout.panels:
        images = in_u if panel.reciprocal else in_y
        ends = [(panel.lo, panel.lo_multiplicity), (panel.hi, panel.hi_multiplicity)]
        for cut in [end for end, multiplicity in ends if multiplicity == 0]:
            assert all(abs(cut - z) >= 2.0**-41 * abs(z) for z in images), (panel, images)
    cubic = CubicCoeffs(*f.coeffs)
    closed = closed_form_integral(cubic).value
    numeric = _outcome(integral_numeric, cubic)
    assert not isinstance(numeric, str) and abs(numeric - closed) <= 1e-8 * closed


# The root evaluations on (10^-k, 1, 0, -1), k = 9 ... 15: its covariant
# chart gives the roots near +-1 and -10^k in closed form, each polished by
# Newton steps, where the locator's bracket of the roots near +-1 reached
# about 10^k and Newton halved it down in 161 to 245 evaluations
_TINY_LEADING_LOCATOR = {9: 12, 10: 8, 11: 11, 12: 15, 13: 12, 14: 10, 15: 14}


@pytest.mark.parametrize("k", range(9, 16))
def test_tiny_leading_coefficient_matches_the_closed_form_at_the_cost_of_a_median_cubic(
    k, count_evaluations_apart
):
    # (10^-k, 1, 0, -1) has roots near -1, 1 and -10^k: the pair near +-1 is
    # lost to cancellation by a closed form that starts from -b/3a.  Its
    # panels cost at most twice those of a median cubic, and its roots
    # exactly the pinned count: a change there means other Newton steps
    cubic = CubicCoeffs(10.0**-k, 1.0, 0.0, -1.0)
    closed = closed_form_integral(cubic).value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        assert abs(integral_numeric(cubic).value - closed) <= 1e-12 * closed
        locator, panels = count_evaluations_apart(integral_numeric, cubic)
    _, median = count_evaluations_apart(integral_numeric, CubicCoeffs(1.0, 2.0, 3.0, 5.0))
    assert panels <= 2 * median
    assert locator == _TINY_LEADING_LOCATOR[k]


@pytest.mark.parametrize(
    "coeffs",
    [
        # a complex pair near +-0.41i beside a real root near 2e310, beyond the
        # float range: the chart's lead, subnormal, is stripped and the root
        # taken to infinity (was SingularPoint "unexpected interior zero")
        (-1e-310, 2, Fraction(1, 10**400), Fraction(1, 3)),
        # roots near 2 and +-1.2e164: one covariant chart holds both scales
        # (was NoConvergence, a double root at infinity)
        (Fraction(7, 10**330), Fraction(-1, 10**400), -1, 2),
    ],
)
def test_roots_at_two_scales_share_one_covariant_chart(coeffs):
    cubic = CubicCoeffs(*coeffs)
    closed = closed_form_integral(cubic).value
    assert abs(integral_numeric(cubic).value - closed) <= 1e-12 * closed
