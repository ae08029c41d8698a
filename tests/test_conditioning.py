"""The one conditioning warning: IllConditionedWarning where rounding the
coefficients to the chart's float form may move a root by more than rel_tol
of its distance to the nearest other root or critical point.

The ratio is read on the chart at unit root scale, so it is blind to the
scalings that only scale F, and it flags the close real pairs whose status-ok
values are wrong.
"""

import math
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
    integral_numeric,
    integral_numeric_general,
)


def _cubic(coeffs):
    return integral_numeric(CubicCoeffs(*coeffs))


def _general(coeffs):
    return integral_numeric_general(Polynomial(coeffs))


def _run(call, arg):
    """(value or None on a NonGaussError, whether IllConditionedWarning was raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call(arg).value
        except NonGaussError:
            value = None
    return value, any(issubclass(w.category, IllConditionedWarning) for w in caught)


def _real_pairs(count):
    """a (x - r)(x - r - delta)(x - s) times 2^k, exact: the real-pair sweep
    (Random(77); r a 40-bit dyadic in (-3, 3), delta = 10^U(-8, -1), s = r +-
    U(0.5, 5), a = p/q with p, q in 1..9, k in -50..50)."""
    rng = random.Random(77)
    for _ in range(count):
        r = Fraction(round(rng.uniform(-3, 3) * 2**40), 2**40)
        delta = Fraction(10 ** rng.uniform(-8, -1))
        s = r + rng.choice((-1, 1)) * Fraction(rng.uniform(0.5, 5))
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        k = rng.randint(-50, 50)
        yield [c * Fraction(2) ** k for c in from_roots([r, r + delta, s], leading=a).coeffs]


def test_every_wrong_value_of_the_real_pair_sweep_warns_on_both_routes():
    wrong, warned = [], {"cubic": [], "general": []}
    for i, coeffs in enumerate(_real_pairs(100)):
        closed = closed_form_integral(CubicCoeffs(*coeffs)).value
        for route, call in (("cubic", _cubic), ("general", _general)):
            value, warns = _run(call, coeffs)
            if warns:
                warned[route].append(i)
            if value is not None and abs(value - closed) > 1e-9 * closed:
                wrong.append(i)
                assert warns, (route, coeffs)
    assert wrong  # the sweep still has wrong values, each flagged
    assert warned["cubic"] == warned["general"]


def _scaled(coeffs, k):
    return [c * Fraction(2) ** k for c in coeffs]


def _dilated(coeffs, j):
    """f(2^j x): the power-p coefficient gains 2^(j p)."""
    n = len(coeffs) - 1
    return [c * Fraction(2) ** (j * (n - i)) for i, c in enumerate(coeffs)]


def _sl2_image(n, plus, m):
    """(alpha x + beta)^n +- (gamma x + delta)^n, leading first."""
    alpha, beta, gamma, delta = m
    sign = 1 if plus else -1
    return [
        math.comb(n, i) * (alpha ** (n - i) * beta**i + sign * gamma ** (n - i) * delta**i)
        for i in range(n + 1)
    ]


def _invariance_forms():
    rng = random.Random(83)
    for _ in range(30):  # unit cubics
        yield _cubic, [Fraction(rng.uniform(-2.0, 2.0)) for _ in range(4)]
    for _ in range(20):  # real pairs 10^-8 to 10^-2 wide, next to a third root
        r, s = rng.uniform(-3, 3), rng.uniform(-3, 3)
        roots = [Fraction(r), Fraction(r + 10 ** rng.uniform(-8, -2)), Fraction(s)]
        yield _cubic, list(from_roots(roots).coeffs)
    matrices = [(1, 1, 0, 1), (2, 1, 1, 1), (1, -2, 1, -1), (3, 2, 1, 1), (2, -3, -1, 2), (3, -2, 2, -1)]
    for n in range(4, 9):
        for plus in (True, False):
            for m in matrices:
                coeffs = _sl2_image(n, plus, m)
                if coeffs[0]:
                    yield _general, coeffs


@pytest.mark.parametrize("k, j", [(37, -11), (-45, 17)])
def test_warning_is_blind_to_scaling_and_dilation(k, j):
    # f, 2^k f and f(2^j x) have one chart, so they warn alike
    outcomes = {False: 0, True: 0}
    for call, coeffs in _invariance_forms():
        warns = [_run(call, cs)[1] for cs in (coeffs, _scaled(coeffs, k), _dilated(coeffs, j))]
        assert len(set(warns)) == 1, coeffs
        outcomes[warns[0]] += 1
    assert outcomes[False] and outcomes[True]


def test_dilated_cubic_is_not_flagged():
    # roots 2^-30 * {1, 2, 5}: warned twice (|D| / scale^4 and a root
    # clearance) though the value is right to 3.6e-15, as at scale 1
    coeffs = CubicCoeffs(1, Fraction(-8, 2**30), Fraction(17, 2**60), Fraction(-10, 2**90))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        value = integral_numeric(coeffs).value
    closed = closed_form_integral(coeffs).value
    assert abs(value - closed) <= 1e-14 * closed
