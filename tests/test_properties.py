"""Property tests of the numeric integral over log-uniform magnitudes.

Two exact symmetries of F serve as oracles that need no closed form:
dilation, F(f(2^j x)) = 2^-j F(f), which the quadrature reproduces to the
last bit, and homogeneity, F(2^k f) = 2^(-2k/3) F(f).  Both also hold for
the failures: an input and its image fail with the same error kind.
"""

import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from nongauss import CubicCoeffs, IllConditionedWarning, NonGaussError, integral_numeric

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
