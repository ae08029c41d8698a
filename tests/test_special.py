"""Gamma/Beta kernel accuracy and the classical identities behind it."""

import math
import random

import mpmath
import pytest

from nongauss import DomainError, beta, constants, gamma, identity_suite, ln_gamma

# 30-digit references computed once with mpmath at 40-digit precision.
GAMMA_ONE_SIXTH = 5.56631600178023520425009689521
BETA_HALF_SIXTH = 7.28595194366274483545982506934
C_MINUS_REF = 9.17972422234315724947916503385
C_PLUS_REF = 15.8997487525690496158232054968


def test_gamma_classical_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(1.0 / 6.0) == pytest.approx(GAMMA_ONE_SIXTH, rel=1e-13)


def test_gamma_against_mpmath_grid():
    mpmath.mp.dps = 30
    xs = [1e-3 * (170.0 / 1e-3) ** (i / 400.0) for i in range(401)]
    worst = 0.0
    for x in xs:
        exact = mpmath.gamma(x)
        worst = max(worst, abs((mpmath.mpf(gamma(x)) - exact) / exact))
    assert worst <= 1e-13


def test_ln_gamma_against_mpmath_grid():
    mpmath.mp.dps = 30
    xs = [1e-3 * (170.0 / 1e-3) ** (i / 200.0) for i in range(201)] + [500.0, 1e4]
    worst = 0.0
    for x in xs:
        exact = mpmath.loggamma(x)
        worst = max(worst, abs((mpmath.mpf(ln_gamma(x)) - exact) / max(1.0, abs(exact))))
    assert worst <= 1e-13


def test_gamma_recurrence():
    xs = [10.0 ** (-3 + 5 * i / 60.0) for i in range(61) if 10.0 ** (-3 + 5 * i / 60.0) < 169]
    for x in xs:
        assert gamma(x + 1.0) / (x * gamma(x)) == pytest.approx(1.0, rel=1e-12)


def test_domain_errors():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            gamma(bad)
        with pytest.raises(DomainError):
            ln_gamma(bad)
    with pytest.raises(DomainError):
        beta(0.0, 1.0)


def test_beta_values():
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(0.5, 1.0 / 6.0) == pytest.approx(BETA_HALF_SIXTH, rel=1e-13)


def test_beta_symmetry_bitwise():
    pairs = [(0.5, 1 / 6), (1 / 3, 2.25), (0.01, 7.5), (3.0, 110.0)]
    for p, q in pairs:
        assert beta(p, q) == beta(q, p)


def test_constants_match_references():
    k = constants()
    assert abs(k.c_minus - C_MINUS_REF) / C_MINUS_REF <= 1e-12
    assert abs(k.c_plus - C_PLUS_REF) / C_PLUS_REF <= 1e-12


def test_constants_ratio_is_sqrt3():
    k = constants()
    assert abs(k.c_plus / k.c_minus - math.sqrt(3.0)) <= 1e-12 * math.sqrt(3.0)


def test_identity_suite_bounds():
    rows = identity_suite()
    assert {r.identity for r in rows} == {"reflection", "duplication", "constants-ratio"}
    for r in rows:
        if r.identity == "constants-ratio":
            assert r.residual <= 1e-12
        else:
            assert r.residual <= 1e-11


def test_reflection_symmetric_point():
    row = [r for r in identity_suite() if r.identity == "reflection" and r.argument == 0.5]
    assert row and row[0].residual <= 1e-14


def test_duplication_at_two_thirds():
    # Gamma(1/3) Gamma(5/6) = 2^(1/3) Gamma(1/2) Gamma(2/3)
    x = 2.0 / 3.0
    lhs = gamma(x / 2.0) * gamma((x + 1.0) / 2.0)
    rhs = 2.0 ** (1.0 - x) * gamma(0.5) * gamma(x)
    assert abs(lhs / rhs - 1.0) <= 1e-11


def test_gamma_against_mpmath_up_to_the_overflow_edge():
    # Gamma(171.6) = 1.59e308 is the last stretch below the float range
    mpmath.mp.dps = 30
    worst = 0.0
    for i in range(161):
        x = 170.0 + i / 100.0
        exact = mpmath.gamma(x)
        worst = max(worst, abs((mpmath.mpf(gamma(x)) - exact) / exact))
    assert worst <= 1e-13


def test_ln_gamma_of_a_subnormal_argument():
    # Gamma(1e-310) overflows; log Gamma(1e-310) = -log(1e-310) - O(1e-310) does not
    assert ln_gamma(1e-310) == pytest.approx(713.8013788281542, rel=1e-15)


def test_gamma_beyond_the_float_range_is_inf():
    assert gamma(172.0) == math.inf
    assert gamma(1e-310) == math.inf
    assert ln_gamma(1e308) == math.inf
    # B(p, q) ~ (p + q) / (p q) for small p, q: 2e310 and 1e320
    assert beta(1e-310, 1e-310) == math.inf
    assert beta(1e-320, 1.0) == math.inf
    assert beta(1e-320, 1000.0) == math.inf


@pytest.mark.parametrize("p, q", [(1e308, 1e308), (3e305, 1e308), (math.inf, 1.0)])
def test_beta_below_the_float_range_is_zero(p, q):
    # ln Gamma overflowed to inf and met a -inf or nan ratio: beta was nan
    assert beta(p, q) == beta(q, p) == 0.0


def _mp_beta(p, q):
    """mpmath's Beta with enough digits that p + q keeps every bit of both."""
    with mpmath.workdps(30 + int(math.log10(max(p, q, 1.0)))):
        return mpmath.beta(mpmath.mpf(p), mpmath.mpf(q))


@pytest.mark.parametrize(
    "p, q", [(1e20, 2.0), (1e8, 2.5), (1e308, 0.5), (150.0, 200.0), (1e300, 1e-300)]
)
def test_beta_with_one_large_argument(p, q):
    # exp(lnG(p) + lnG(q) - lnG(p + q)) cancelled: B(1e20, 2) = 1e-40 came out
    # 1.0, B(1e8, 2.5) 2.1e-7 off and B(1e308, 1) nan
    expected = _mp_beta(p, q)
    assert abs(beta(p, q) / expected - 1) <= 2e-13
    assert beta(p, q) == beta(q, p)


def test_beta_against_mpmath_with_a_large_argument():
    rng = random.Random(101)
    checked = 0
    while checked < 40:
        big, small = 10 ** rng.uniform(2, 300), 10 ** rng.uniform(-3, 1.7)
        expected = _mp_beta(big, small)
        if not 1e-300 < expected < 1e300:
            continue
        assert abs(beta(big, small) / expected - 1) <= 2e-13, (big, small)
        checked += 1


def test_beta_with_unit_argument_is_the_reciprocal():
    # B(p, 1) = 1/p exactly; the exp of a log of size up to 709 rounds to
    # about 1.6e-13 relative
    for k in range(2, 309):
        p = 10.0**k
        assert abs(beta(p, 1.0) * p - 1) <= 2e-13, p
        assert abs(beta(1.0, p) * p - 1) <= 2e-13, p
    assert beta(1e308, 1.0) > 0.0
