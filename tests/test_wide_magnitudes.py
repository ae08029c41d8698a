"""Oracles over coefficients of wide magnitude.

Each coefficient is a random sign times 10^U(-E, E), so the roots of one
form lie many orders of magnitude apart and the quadrature has to resolve
features at every scale at once.  Cubics are checked against the closed
form; degree 4-6 forms, which have none, against the invariance of F under
the reversal x^n f(1/x) and the reflection f(-x).  No failure of any kind
is accepted.
"""

import random
import warnings
from fractions import Fraction

import pytest

from polynomials import from_roots

from nongauss import (
    CubicCoeffs,
    IllConditionedWarning,
    NonGaussError,
    Polynomial,
    closed_form_integral,
    decompose,
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


@pytest.mark.parametrize("k", range(9, 16))
def test_tiny_leading_coefficient_matches_the_closed_form_at_the_cost_of_a_median_cubic(
    k, count_evaluations
):
    # (10^-k, 1, 0, -1) has roots near -1, 1 and -10^k: the pair near +-1 is
    # lost to cancellation by a closed form that starts from -b/3a
    cubic = CubicCoeffs(10.0**-k, 1.0, 0.0, -1.0)
    closed = closed_form_integral(cubic).value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        assert abs(integral_numeric(cubic).value - closed) <= 1e-12 * closed
        cost = count_evaluations(integral_numeric, cubic)
    assert cost <= 2 * count_evaluations(integral_numeric, CubicCoeffs(1.0, 2.0, 3.0, 5.0))
