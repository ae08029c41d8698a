"""The covariant chart of a cubic and its closed-form roots.

Every cubic with a != 0 and D != 0 is integrated on the chart centred on the
root of its Hessian covariant (``polynomial._covariant_chart``), where its
roots come in closed form and are polished by Newton steps.  The locator on
the same chart is the oracle of those roots; the close-pair sweeps of
``tools/sweeps.py`` are the oracle of the integrals, against the closed form.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from polynomials import from_roots

import nongauss
from nongauss import CubicCoeffs, closed_form_integral, integral_numeric
from nongauss import polynomial
from nongauss.polynomial import _covariant_chart, _exact, _real_roots

_ROOT = Path(__file__).resolve().parent.parent


def _bench_cubics(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    from workloads import QuadratureCubic

    for seed in (1, 2, 3):
        for case in QuadratureCubic().round(random.Random(seed)):
            yield case.coeffs


def _located(monkeypatch, ints, den, d):
    """(_covariant_chart(ints, den, d), whether it ran the locator)."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(polynomial, "_real_roots", lambda g: calls.append(g) or _real_roots(g))
        return _covariant_chart(ints, den, d), bool(calls)


def test_closed_form_roots_are_the_locators_on_every_bench_chart(monkeypatch):
    # round 1 of seeds 1-3 of the quadrature-cubic workload: every cubic with
    # a != 0 gets a covariant chart, each closed-form root is certified, and
    # lies within one ulp of the locator's on the same chart
    charts = 0
    for coeffs in _bench_cubics(monkeypatch):
        ints, den, d = _exact(coeffs)
        if not ints[0]:
            continue
        (chart, (roots, critical, _)), fell_back = _located(monkeypatch, ints, den, d)
        assert not fell_back, coeffs
        located, located_critical, _ = _real_roots(chart.g)
        assert len(roots) == len(located) == (3 if d > 0 else 1)
        for x, y in zip(roots, located):
            assert abs(x - y) <= math.ulp(y), (coeffs, roots, located)
        assert critical == located_critical
        charts += 1
    assert charts == 261


def test_a_root_that_fails_certification_takes_the_locator(monkeypatch):
    # a real pair 2^-50 apart at 4/3, four ulps of its centre wide: the closed
    # form from the rounded centre is too far off for three Newton steps, and
    # the locator finds the roots instead
    r = Fraction(4, 3)
    cubic = CubicCoeffs(*from_roots([r, r + Fraction(1, 2**50), 3]).coeffs)
    (chart, (roots, _, _)), fell_back = _located(monkeypatch, *_exact(cubic))
    assert fell_back and len(roots) == 3
    closed = closed_form_integral(cubic).value
    assert abs(integral_numeric(cubic).value - closed) <= 1e-12 * closed


def test_a_centre_below_the_normal_floats_takes_the_covariant_chart():
    # the centre -B/2A is -4.5e-316, a subnormal float: _chart shifts f
    # exactly by it, so the chart is exact about the centre it gets
    coeffs = CubicCoeffs(1e-300, 1e8, 0.0, -1.0)
    chart, _ = _covariant_chart(*_exact(coeffs))
    assert (chart.t, chart.s) == (-4.5e-316, -13)
    closed = closed_form_integral(coeffs).value
    assert abs(integral_numeric(coeffs).value - closed) <= 1e-14 * closed


def test_a_pair_narrower_than_2_to_the_minus_1024_of_its_centre_takes_the_centroid_chart():
    # q is 2^-1040 sqrt(3)/2: the centre over 2^s, tau, overflows
    coeffs = tuple(from_roots([Fraction(1), 1 + Fraction(1, 2**1040), 3]).coeffs)
    assert _covariant_chart(*_exact(coeffs)) is None


_TINY_RHO = (
    2.6916777500787445e249, 1.3470355713310716e94, -1.0611314420741249e-265, 2.225673266720258e266
)


def _complex_pair(coeffs):
    """The root of f with positive imaginary part, to 50 digits."""
    with mpmath.workdps(50):
        values = [mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator for c in coeffs]
        roots = mpmath.polyroots(values, maxsteps=400, extraprec=4000)
        return next(complex(z) for z in roots if mpmath.im(z) > 0)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 2, 3, 5),
        (1, 0, 0, 1),  # A = 0: H's second root is infinite
        (1, 0, 0, Fraction(-7, 3)),  # A = 0 again: the pair at (7/3)^(1/3) e^(+-2 pi i/3)
        (-1.177569563591136, -0.05076450816600442, 1.2399441510565272, -0.8626231260179495),
        # f(h1) / f(h2) = 3e-969, so rho is 1.5e-323 and h2 - h1 is 3e328
        _TINY_RHO,
    ],
)
def test_a_complex_pair_lies_near_plus_minus_i(coeffs):
    # D < 0: t is the pair's real part and 2^s its imaginary part within [1, 2)
    chart, _ = _covariant_chart(*_exact(coeffs))
    z = _complex_pair(coeffs)
    y = complex((z.real - chart.t) / 2.0**chart.s, z.imag / 2.0**chart.s)
    assert abs(y.real) <= 1e-12 and 1.0 <= y.imag < 2.0


def _dilated(coeffs, j):
    return [Fraction(c) * Fraction(2) ** (j * (3 - i)) for i, c in enumerate(coeffs)]


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 2, 3, 5),  # D < 0
        (1, 0, 0, 1),  # D < 0, A = 0
        (1, -6, 11, -6),  # D > 0
        (Fraction(7, 10**330), Fraction(-1, 10**400), -1, 2),  # D > 0, roots 1e164 apart
        _TINY_RHO,
    ],
)
@pytest.mark.parametrize("k, j", [(0, 0), (37, -11), (-45, 17), (3, 300)])
def test_scaling_and_dilation_move_the_chart_exactly(coeffs, k, j):
    # 2^k f(2^j x): t moves to 2^-j t, s to s - j and e to e + k; g and its
    # roots stay the same, bit for bit
    base, roots = _covariant_chart(*_exact(coeffs))
    image = [c * Fraction(2) ** k for c in _dilated(coeffs, j)]
    moved, moved_roots = _covariant_chart(*_exact(image))
    assert moved == (math.ldexp(base.t, -j), base.s - j, base.e + k, base.g)
    assert moved_roots == roots


def test_a_subnormal_lead_is_a_root_at_infinity():
    # the real root near 2e310 is 8e310 in y, and the lead 6.25e-312 of g is
    # subnormal: stripped, as one that underflows
    coeffs = (-1e-310, 2, Fraction(1, 10**400), Fraction(1, 3))
    chart, (roots, _, _) = _covariant_chart(*_exact(coeffs))
    assert len(chart.g) == 3 and roots == []


@pytest.mark.parametrize("kind, seed", [("real", 77), ("complex", 78)])
def test_close_pair_sweep_is_right(kind, seed, monkeypatch):
    # tools/sweeps.py, 400 cubics 2^k a (x - r)(x - r - delta)(x - s) or
    # 2^k a ((x - r)^2 + delta^2)(x - s), delta = 10^U(-8, -1): every value
    # is within 1e-9 of the closed form, with no error
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    import sweeps

    assert sweeps.sweep(nongauss, kind, seed) == Counter(right=400)
