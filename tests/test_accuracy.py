"""Accuracy oracle of the quadrature: every status-ok value lies within
rel_tol * F of an independent value of F, and every error estimate is at
most rel_tol * F.

The independent values are the closed form of a cubic, the Beta value of
x^n +- 1 carried by SL(2, Z) to each of its images, and the tests' tanh-sinh
rule (tests/tanh_sinh.py) with no early stop: each panel walks on to level
16, or until two levels agree to the last bit.  The estimate is a model of the error, not a bound,
so no test asks it to exceed the true error.
"""

import itertools
import random
import warnings
from pathlib import Path

import pytest

import tanh_sinh
from polynomials import beta_value, sl2_image

from nongauss import (
    CubicCoeffs,
    IllConditionedWarning,
    NonGaussError,
    Polynomial,
    QuadratureConfig,
    closed_form_integral,
    integral_numeric,
    integral_numeric_general,
)
from nongauss import quadrature

_REL_TOL = QuadratureConfig().rel_tol
_BENCH = Path(__file__).resolve().parent.parent / "bench"

# A level-3 panel value of this cubic's first panel differed from level 2 by
# 9.7e-9 of the value after 6e-3 the level before, which the quadratic stop
# rule alone took for convergence: 7.4e-10 off, with an estimate of 1.8e-12.
_CANCELLING = (
    8.466686815152534e-37, 5.1703973952762885e-40, -1.906008780424726e-24, 1.546534626520397e-18
)

_SL2 = [
    m
    for m in itertools.product(range(-3, 4), repeat=4)
    if m[0] * m[3] - m[1] * m[2] == 1 and next(x for x in m if x) > 0
]


def _misses(result, reference):
    """The ways ``result`` misses ``reference``, empty when it does not."""
    misses = []
    if abs(result.value - reference) > _REL_TOL * reference:
        misses.append(("value", result.value, reference))
    if result.error_estimate > _REL_TOL * reference:
        misses.append(("estimate", result.error_estimate, reference))
    return misses


def _status_ok(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            return call(*args)
        except NonGaussError:
            return None


@pytest.mark.parametrize("e", [5, 40, 150])
def test_wide_magnitude_cubics_are_within_rel_tol_of_the_closed_form(e):
    # each coefficient a random sign times 10^U(-e, e)
    rng = random.Random(17 + e)
    cubics = [_CANCELLING] + [
        [rng.choice((-1, 1)) * 10 ** rng.uniform(-e, e) for _ in range(4)] for _ in range(200)
    ]
    misses, ok = [], 0
    for coeffs in cubics:
        cubic = CubicCoeffs(*coeffs)
        result = _status_ok(integral_numeric, cubic)
        if result is not None:
            ok += 1
            misses += _misses(result, closed_form_integral(cubic).value)
    assert misses == []
    assert ok >= 195


def test_sl2_images_are_within_rel_tol_of_their_beta_values():
    misses, count = [], 0
    for n, plus in [(n, True) for n in range(4, 9)] + [(n, False) for n in (4, 6, 8)]:
        for m in _SL2:
            coeffs = sl2_image(n, plus, m)
            if coeffs[0]:  # x^n - 1 loses its degree where |alpha| = |gamma|
                count += 1
                result = integral_numeric_general(Polynomial(coeffs))
                misses += _misses(result, beta_value(n, plus))
    assert misses == [] and count == 416


def test_fault_b_cubics_are_within_rel_tol_of_the_closed_form(monkeypatch):
    # the benchmark's two compressing dilations of fault (b); the panel of the
    # second through its complex pair 1.19 +- 0.075i is bisected, and its
    # value is the one benchmark output that bisection moved
    monkeypatch.syspath_prepend(str(_BENCH))
    from workloads import _FAULT_B

    assert len(_FAULT_B) == 2
    for coeffs in _FAULT_B:
        cubic = CubicCoeffs(*coeffs)
        assert _misses(integral_numeric(cubic), closed_form_integral(cubic).value) == []


@pytest.mark.parametrize(
    "call, coeffs",
    [
        (integral_numeric, _CANCELLING),
        (integral_numeric, (1.0, 2.0, 3.0, 5.0)),
        (integral_numeric_general, sl2_image(5, True, (2, 1, 1, 1))),
        (integral_numeric_general, sl2_image(8, False, (3, -2, 2, -1))),
    ],
)
def test_values_are_within_rel_tol_of_the_level_16_values(call, coeffs, monkeypatch):
    args = CubicCoeffs(*coeffs) if call is integral_numeric else Polynomial(coeffs)
    result = call(args)
    # the quadratic rule needs a difference below 1e-17 of the value at this
    # rel_tol, so only two equal levels stop a panel short of level 16
    deepest = QuadratureConfig(rel_tol=1e-30)

    def level_16(coeffs, exponent, lo, hi, m_lo, m_hi, cfg):
        value, error, _, nodes = tanh_sinh.panel_value(
            coeffs, exponent, lo, hi, m_lo, m_hi, deepest, 16
        )
        return value, error, True, nodes

    monkeypatch.setattr(quadrature, "_panel_value", level_16)
    reference = call(args).value
    assert _misses(result, reference) == []
