"""The compiled root locator against the loop it was written out from.

``_direct_real_roots`` is the locator as a loop over ``horner`` calls, with
its ``_bracketed_root``, kept here as the oracle: each compiled kernel of
``polynomial._locator`` must give the same roots, critical points and
evaluation count, bit for bit, the count being the oracle's ``horner``
calls, those of the recursion over the derivatives included.
"""

import math
import random

import pytest

from polynomials import from_roots

from nongauss import polynomial
from nongauss.polynomial import _quadratic_roots, derivative_coeffs, fujiwara_exponent


def _direct_real_roots(cs, calls):
    """(roots, critical points) of ``polynomial._real_roots`` as a loop,
    each ``horner`` call counted in ``calls[0]``."""

    def horner(coeffs, x):
        calls[0] += 1
        return polynomial.horner(coeffs, x)

    def _bracketed_root(coeffs, deriv, lo, hi, flo, fhi):
        """The root in (lo, hi), where f changes sign once (f(lo) = flo and f(hi) =
        fhi, both nonzero), by Newton steps kept inside the shrinking bracket: a
        step that leaves it or fails to halve the step before becomes a bisection.
        Once a step is within an ulp, Newton has converged on one end while the
        other may still be far, so the next points probe toward the other end at
        1, 2, 4, ... ulps until the sign changes.  Returns an exact zero of the
        float form, or the end of smaller |f| once the bracket is two adjacent
        floats: within one ulp of a sign change."""
        x, last, reach = 0.5 * lo + 0.5 * hi, hi - lo, 0.0
        while True:
            fx = horner(coeffs, x)
            if fx == 0.0:
                return x
            if (fx < 0) == (flo < 0):
                lo, flo = x, fx
            else:
                hi, fhi = x, fx
            mid = 0.5 * lo + 0.5 * hi  # no overflow next to the float range
            if mid == lo or mid == hi:
                return lo if abs(flo) <= abs(fhi) else hi
            fp = horner(deriv, x)
            new = x - fx / fp if fp else mid
            if abs(new - x) <= math.ulp(x):
                reach = max(2.0 * reach, math.ulp(x))
                new = x + reach if x == lo else x - reach
            else:
                reach = 0.0
                if abs(new - x) > 0.5 * last:
                    new = mid
            if not lo < new < hi:
                new = mid
            x, last = new, abs(new - x)

    def _real_roots(cs):
        deg = len(cs) - 1
        if deg <= 0:
            return [], []
        if deg == 1:
            return [-cs[1] / cs[0]], []
        if deg == 2:
            return _quadratic_roots(*cs), [-cs[1] / (2 * cs[0])]

        deriv = derivative_coeffs(cs)
        critical = _real_roots(deriv)[0]
        j = fujiwara_exponent(cs)
        bound = math.ldexp(4.0, j) if j < 1022 else math.nextafter(math.inf, 0.0)  # the largest float
        points = [-bound] + sorted({c for c in critical if -bound < c < bound}) + [bound]
        values = [horner(cs, x) for x in points]
        found = [x for x, v in zip(points, values) if v == 0.0] * 2
        for lo, hi, flo, fhi in zip(points, points[1:], values, values[1:]):
            if flo and fhi and (flo < 0) != (fhi < 0):
                found.append(_bracketed_root(cs, deriv, lo, hi, flo, fhi))
        return sorted(found), critical

    return _real_roots(cs)


def _outcomes(cs):
    """(kernel, oracle): the repr of each locator's (roots, critical points,
    evaluations), or of the exception it raised; repr keeps -0.0 apart."""
    try:
        kernel = repr(polynomial._real_roots(cs))
    except Exception as exc:
        kernel = repr(exc)
    calls = [0]
    try:
        direct = repr((*_direct_real_roots(cs, calls), calls[0]))
    except Exception as exc:
        direct = repr(exc)
    return kernel, direct


def _forms(degree, rng):
    """Seeded float forms of ``degree``, leading coefficient nonzero."""
    for _ in range(12):  # random coefficients over wide magnitudes
        lead = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
        yield [lead] + [rng.uniform(-1, 1) * 2.0 ** rng.randint(-40, 40) for _ in range(degree)]
    for _ in range(12):  # real roots spread over 12 decades, some complex pairs
        roots = [rng.choice((-1, 1)) * 10 ** rng.uniform(-6, 6) for _ in range(degree)]
        cs = [float(c) for c in from_roots(roots, rng.uniform(0.5, 2.0)).coeffs]
        if degree >= 2 and rng.random() < 0.5:
            cs = [c + rng.uniform(-1, 1) * abs(c) * 1e-3 for c in cs]
        yield cs
    for _ in range(8):  # zero coefficients, which fujiwara_exponent skips
        cs = [rng.uniform(-3, 3) for _ in range(degree + 1)]
        for i in rng.sample(range(1, degree + 1), rng.randint(1, degree)):
            cs[i] = 0.0
        yield [cs[0] or 1.0] + cs[1:]
    for _ in range(4):  # subnormal coefficients
        cs = [1.0] + [rng.uniform(-1, 1) for _ in range(degree)]
        for i in rng.sample(range(1, degree + 1), rng.randint(1, degree)):
            cs[i] = rng.choice((-1, 1)) * 5e-324 * rng.randint(1, 2**40)
        yield cs
    # a tiny leading coefficient: j >= 1022, where the bound is the largest float
    yield [1e-308] + [rng.uniform(0.5, 1) for _ in range(degree)]
    yield [2.0**-1074] + [1.0] * degree


@pytest.mark.parametrize("degree", range(1, 14))
def test_kernel_is_the_loop_bit_for_bit(degree):
    rng = random.Random(3300 + degree)
    for cs in _forms(degree, rng):
        kernel, direct = _outcomes(cs)
        assert kernel == direct, cs


@pytest.mark.parametrize(
    "roots",
    [
        (1.0, 1.0, -2.0),  # x^3 - 3x + 2: f is 0.0 at the critical point 1
        (0.0, 0.0, 3.0),  # and at the critical point 0
        (0.5, 0.5, -0.25, 4.0),
        (1.0, 1.0, 2.0, 2.0, -3.0),
        (-1.0, -1.0, -1.0, 2.0, 5.0, 0.0),
    ],
)
def test_kernel_is_the_loop_at_an_exact_zero_of_a_critical_point(roots):
    cs = [float(c) for c in from_roots(roots).coeffs]
    kernel, direct = _outcomes(cs)
    assert kernel == direct
    assert any(
        polynomial.horner(cs, c) == 0.0 for c in polynomial._real_roots(derivative_coeffs(cs))[0]
    )


def test_kernel_bound_is_the_largest_float_where_j_reaches_1022():
    cs = [1e-300, 1e8, 0.0, -1.0]  # roots near +-1e-4 and -1e308
    assert fujiwara_exponent(cs) >= 1022
    kernel, direct = _outcomes(cs)
    assert kernel == direct
    assert len(polynomial._real_roots(cs)[0]) == 3


def test_each_degree_compiles_once():
    polynomial._locator.cache_clear()
    for cs in ([1.0, 0.0, -2.0, 0.5, 3.0, -1.0], [2.0, 1.0, -1.0, 0.25, -3.0, 1.0]):
        polynomial._real_roots(cs)
    info = polynomial._locator.cache_info()
    # degrees 5, 4 and 3 compiled and the quadratic closed form looked up, once each
    assert (info.misses, info.hits) == (4, 4)


def test_constants_have_no_roots_and_no_evaluations():
    assert polynomial._real_roots([3.0]) == ([], [], 0)
