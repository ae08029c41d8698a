"""Closed-form integral, Gaussian analogue, moments, and FD verifiers."""

import math
import random
from fractions import Fraction

import pytest

from nongauss import (
    CubicCoeffs,
    DivergentIntegral,
    DomainError,
    IntegralMethod,
    Polynomial,
    StencilCrossesSingularity,
    closed_form_integral,
    constants,
    expectations,
    expectations_fd_check,
    gaussian_analogue,
    pde_identity_residuals,
)
from nongauss.polynomial import cubic_discriminant_exact


def test_closed_form_positive_discriminant():
    result = closed_form_integral(CubicCoeffs(1, 0, -1, 0))
    assert result.discriminant.value == 4
    assert result.method is IntegralMethod.CLOSED_FORM
    assert result.error_estimate == 0.0
    assert result.value == pytest.approx(constants().c_plus / 4.0 ** (1.0 / 6.0), rel=1e-15)
    assert result.value == pytest.approx(12.6196389479, rel=1e-9)


def test_closed_form_negative_discriminant():
    result = closed_form_integral(CubicCoeffs(1, 0, 0, 1))
    assert result.discriminant.value == -27
    assert result.value == pytest.approx(constants().c_minus / math.sqrt(3.0), rel=1e-15)
    assert result.value == pytest.approx(5.29991625086, rel=1e-9)


def test_closed_form_quadratic_branch():
    # integral of (x^2 + 1)^(-2/3): -D = 4, so the value collapses to B(1/2, 1/6)
    result = closed_form_integral(CubicCoeffs(0, 1, 0, 1))
    assert result.discriminant.value == -4
    assert result.value == pytest.approx(7.28595194366, rel=1e-9)


def test_closed_form_divergent_cases():
    with pytest.raises(DivergentIntegral):
        closed_form_integral(CubicCoeffs(1, -3, 3, -1))
    with pytest.raises(DivergentIntegral):
        closed_form_integral(CubicCoeffs(0, 0, 1, 1))
    with pytest.raises(DivergentIntegral):
        closed_form_integral(CubicCoeffs(0, 0, 0, 0))


def test_scaling_law():
    base = CubicCoeffs(1.0, 2.0, 3.0, 5.0)
    v0 = closed_form_integral(base).value
    for lam in (2.0, 10.0, 0.7, 1e6, 1e-6):
        scaled = CubicCoeffs(*(lam * v for v in base.as_tuple()))
        expected = lam ** (-2.0 / 3.0) * v0
        assert closed_form_integral(scaled).value == pytest.approx(expected, rel=1e-12)


def test_sign_flip_invariance_exact():
    rng = random.Random(61)
    for _ in range(50):
        coeffs = [rng.uniform(-2, 2) for _ in range(4)]
        if cubic_discriminant_exact(*coeffs) == 0:
            continue
        c = CubicCoeffs(*coeffs)
        assert closed_form_integral(c.negated()).value == closed_form_integral(c).value


def test_reversal_invariance_exact():
    rng = random.Random(67)
    for _ in range(50):
        coeffs = [rng.uniform(-2, 2) for _ in range(4)]
        if cubic_discriminant_exact(*coeffs) == 0:
            continue
        c = CubicCoeffs(*coeffs)
        assert closed_form_integral(c.reversed()).value == closed_form_integral(c).value


def test_shift_invariance():
    rng = random.Random(71)
    base = CubicCoeffs(1.0, 2.0, 3.0, 5.0)
    v0 = closed_form_integral(base).value
    for _ in range(20):
        t = rng.uniform(-4, 4)
        shifted = Polynomial(base.as_tuple()).taylor_shift(t)
        value = closed_form_integral(CubicCoeffs(*shifted.coeffs)).value
        assert value == pytest.approx(v0, rel=1e-12)


def test_extreme_discriminant_magnitude():
    # |D| far outside float range must still produce a finite value
    lam = Fraction(10) ** 200
    scaled = CubicCoeffs(lam, 0, 0, lam)
    result = closed_form_integral(scaled)
    assert math.isfinite(result.value)
    v0 = closed_form_integral(CubicCoeffs(1, 0, 0, 1)).value
    assert result.value == pytest.approx(10.0 ** (-200 * 2 / 3) * v0, rel=1e-12)


def test_gaussian_analogue_values():
    assert gaussian_analogue(1, 0, 1) == pytest.approx(math.pi, rel=1e-15)
    assert gaussian_analogue(1, 0, 4) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert gaussian_analogue(2, 2, 1) == pytest.approx(math.pi, rel=1e-15)


def test_gaussian_analogue_domain():
    with pytest.raises(DomainError):
        gaussian_analogue(-1, 0, 1)
    with pytest.raises(DomainError):
        gaussian_analogue(1, 3, 1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            gaussian_analogue(1, 0, bad)


def test_gaussian_analogue_extreme_scale():
    # 2*pi / sqrt(4ac - b^2) scales as 1/s; b^2 and 4ac alone would overflow
    # or underflow at these scales
    for k in (-1000, -600, 600, 1000):
        s = math.ldexp(1.0, k)
        assert gaussian_analogue(s, 0, s) == math.ldexp(math.pi, -k)
        assert gaussian_analogue(2 * s, 2 * s, s) == math.ldexp(math.pi, -k)


def test_expectations_worked_example_exact():
    moments = expectations(CubicCoeffs(1, 0, -1, 0))
    assert moments.as_tuple() == (
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 2),
        Fraction(0),
    )


def test_expectations_quadratic_branch_exact():
    moments = expectations(CubicCoeffs(0, 1, 0, 1))
    assert moments.x3 == 0
    assert moments.y3 == Fraction(1, 6)


def test_expectations_scaling():
    base = CubicCoeffs(1, 2, 3, 5)
    m0 = expectations(base)
    lam = Fraction(7, 2)
    scaled = expectations(CubicCoeffs(*(lam * v for v in base.as_tuple())))
    for a, b in zip(scaled.as_tuple(), m0.as_tuple()):
        assert a == b / lam


def test_expectations_divergent_at_zero_discriminant():
    with pytest.raises(DivergentIntegral):
        expectations(CubicCoeffs(1, -3, 3, -1))


def test_expectations_float_mode():
    moments = expectations(CubicCoeffs(1.0, 0.0, -1.0, 0.0))
    assert moments.x3 == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert isinstance(moments.x3, float)


def test_fd_check_worked_example():
    residuals = expectations_fd_check(CubicCoeffs(1.0, 0.0, -1.0, 0.0))
    assert max(residuals) <= 1e-5


def test_fd_check_all_moments():
    residuals = expectations_fd_check(CubicCoeffs(1.0, 2.0, 3.0, 5.0))
    assert max(residuals) <= 1e-5


def test_fd_check_stencil_crossing():
    # D = 4 - 27 d^2 is within 4e-6 of zero here; the +-1e-4 stencil flips it
    with pytest.raises(StencilCrossesSingularity):
        expectations_fd_check(CubicCoeffs(1.0, 0.0, -1.0, 0.3849))


def test_pde_identities_worked_points():
    assert max(pde_identity_residuals(CubicCoeffs(1.0, 0.0, -1.0, 0.0))) <= 1e-5
    assert max(pde_identity_residuals(CubicCoeffs(0.0, 1.0, 0.0, 1.0))) <= 1e-5
    # moderate |D|/scale^4 needs a finer step to push second-order truncation
    # below 1e-5; the default step is exercised on well-separated points below
    assert max(pde_identity_residuals(CubicCoeffs(1.0, 2.0, 3.0, 5.0), step=5e-4)) <= 1e-5


def test_pde_identities_default_step_far_from_singularity():
    assert max(pde_identity_residuals(CubicCoeffs(1.0, 0.0, 0.0, 1.0))) <= 1e-5


def test_pde_identities_stencil_crossing():
    with pytest.raises(StencilCrossesSingularity):
        pde_identity_residuals(CubicCoeffs(1.0, 0.0, -1.0, 0.3849))


@pytest.mark.parametrize(
    "coeffs", [(1.0, 2.0, 3.0, 5.0), (-3.0, 1.0, 4.0, 2.0), (0.0, 1.0, 0.0, 1.0)]
)
def test_fd_residuals_do_not_depend_on_scale(coeffs):
    moments = expectations_fd_check(CubicCoeffs(*coeffs))
    identities = pde_identity_residuals(CubicCoeffs(*coeffs), step=5e-4)
    for k in (-1000, -300, 0, 300, 1000):
        scaled = CubicCoeffs(*(math.ldexp(v, k) for v in coeffs))
        assert expectations_fd_check(scaled) == moments
        assert pde_identity_residuals(scaled, step=math.ldexp(5e-4, k)) == identities
    assert max(moments + identities) <= 1e-5


def test_fd_divergent_center():
    with pytest.raises(DivergentIntegral):
        expectations_fd_check(CubicCoeffs(1.0, -3.0, 3.0, -1.0))
