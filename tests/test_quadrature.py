"""Panel decomposition and tanh-sinh evaluation of the singular integrals."""

import math
import random

import pytest

from nongauss import (
    CubicCoeffs,
    DegreeTooLow,
    DivergentIntegral,
    DomainError,
    IllConditionedWarning,
    IntegralMethod,
    NoConvergence,
    Polynomial,
    QuadratureConfig,
    RepeatedRootDivergence,
    SingularPoint,
    beta,
    closed_form_integral,
    decompose,
    gaussian_integral_numeric,
    integral_numeric,
    integral_numeric_general,
    integrand,
)
from nongauss.polynomial import cubic_discriminant_exact


def test_integrand_examples():
    assert integrand(Polynomial([1, 0, 0, 1]), 0.0) == 1.0
    # quadratic input is the a = 0 member of the cubic family, exponent -2/3
    assert integrand(Polynomial([1, 0, 1]), 1.0) == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-15)
    assert integrand(Polynomial([1, 0, -1, 0]), 2.0) == pytest.approx(6.0 ** (-2.0 / 3.0), rel=1e-15)


def test_integrand_singular_point():
    with pytest.raises(SingularPoint):
        integrand(Polynomial([1, 0, -1, 0]), 1.0)


def test_integrand_respects_family_degree():
    p = Polynomial([1, 0, 0, 0, 1])
    assert integrand(p, 1.0) == pytest.approx(2.0 ** (-0.5), rel=1e-15)
    assert integrand(p, 1.0, family_degree=3) == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-15)


def test_decompose_breakpoints_and_tiling():
    d = decompose(Polynomial([1.0, 0.0, -1.0, 0.0]))
    assert d.breakpoints == pytest.approx((-1.0, 0.0, 1.0), abs=1e-14)
    assert d.panels[0].kind == "lower-tail" and d.panels[-1].kind == "upper-tail"
    assert d.panels[0].lo == -math.inf and d.panels[-1].hi == math.inf
    for left, right in zip(d.panels[:-1], d.panels[1:]):
        assert left.hi == right.lo
    # singular points appear only as endpoints, each exactly twice
    singular_points = [p.lo for p in d.panels if p.singular_lo]
    singular_points += [p.hi for p in d.panels if p.singular_hi]
    assert sorted(singular_points) == [-1.0, -1.0, 0.0, 0.0, 1.0, 1.0]


def test_decompose_single_root():
    d = decompose(Polynomial([1.0, 0.0, 0.0, 1.0]))
    assert d.breakpoints == pytest.approx((-1.0,), abs=1e-14)


def test_decompose_repeated_root_divergence():
    # (x - 1)^2 (x + 2)
    with pytest.raises(RepeatedRootDivergence):
        decompose(Polynomial([1.0, 0.0, -3.0, 2.0]))


def test_decompose_quartic_double_root_divergence():
    # (x^2 - 1)^2 has double roots at +-1; 2*2/4 >= 1
    with pytest.raises(RepeatedRootDivergence):
        decompose(Polynomial([1.0, 0.0, -2.0, 0.0, 1.0]))


def test_decompose_quintic_double_root_is_integrable():
    # (x - 1)^2 x (x^2 + 1): exponent 4/5 < 1 at the double root
    p = Polynomial([1.0, -2.0, 2.0, -2.0, 1.0, 0.0])
    d = decompose(p)
    assert any(m == 2 for m in (panel.hi_multiplicity for panel in d.panels))


def test_decompose_clearance_warning():
    p = Polynomial.from_roots([0.0, 1e-7, 1.0], leading=1.0)
    with pytest.warns(IllConditionedWarning):
        decompose(Polynomial([float(c) for c in p.coeffs]))


def test_decompose_degree_too_low():
    with pytest.raises(DegreeTooLow):
        decompose(Polynomial([1.0, 2.0]))


@pytest.mark.parametrize(
    "coeffs",
    [(1.0, 0.0, -1.0, 0.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0)],
)
def test_numeric_matches_closed_form_named_cases(coeffs):
    cubic = CubicCoeffs(*coeffs)
    numeric = integral_numeric(cubic)
    closed = closed_form_integral(cubic)
    assert numeric.method is IntegralMethod.NUMERIC
    assert abs(numeric.value - closed.value) / closed.value <= 1e-8
    assert numeric.error_estimate <= max(
        QuadratureConfig().rel_tol * numeric.value, 1e-15 * numeric.value
    )


def test_numeric_oracle_agreement_sweep():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        coeffs = [rng.uniform(-2, 2) for _ in range(4)]
        if checked % 5 == 0:
            coeffs[0] = 0.0
        if checked % 7 == 0:
            coeffs[3] = 0.0
        scale = max(abs(v) for v in coeffs)
        if scale == 0 or (coeffs[0] == 0 and coeffs[1] == 0):
            continue
        disc = cubic_discriminant_exact(*coeffs)
        if disc == 0 or abs(disc) < 1e-3 * scale**4:
            continue
        cubic = CubicCoeffs(*coeffs)
        numeric = integral_numeric(cubic)
        closed = closed_form_integral(cubic)
        assert abs(numeric.value - closed.value) / closed.value <= 1e-8
        checked += 1


def test_numeric_divergent_and_illconditioned():
    with pytest.raises(DivergentIntegral):
        # D = 0 is caught before any decomposition happens
        integral_numeric(CubicCoeffs(1.0, -3.0, 3.0, -1.0))
    with pytest.warns(IllConditionedWarning):
        # roots at 0, 1e-2, 1: D = 9.7e-5 < 1e-3 * scale^4
        p = Polynomial.from_roots([0.0, 1e-2, 1.0])
        integral_numeric(CubicCoeffs(*[float(c) for c in p.coeffs]))


def test_numeric_scaling_invariance():
    cfg = QuadratureConfig()
    base = CubicCoeffs(1.0, 2.0, 3.0, 5.0)
    v0 = integral_numeric(base, cfg).value
    lam = 3.5
    scaled = CubicCoeffs(*(lam * v for v in base.as_tuple()))
    v1 = integral_numeric(scaled, cfg).value
    assert abs(v1 - lam ** (-2.0 / 3.0) * v0) <= 2.0 * cfg.rel_tol * v1


def test_numeric_reversal_invariance():
    cfg = QuadratureConfig()
    base = CubicCoeffs(2.0, -3.0, -5.0, 1.5)
    v0 = integral_numeric(base, cfg).value
    v1 = integral_numeric(base.reversed(), cfg).value
    assert abs(v1 - v0) <= 2.0 * cfg.rel_tol * v0


def test_numeric_shift_invariance():
    cfg = QuadratureConfig()
    base = CubicCoeffs(1.0, 0.0, -1.0, 0.25)
    v0 = integral_numeric(base, cfg).value
    shifted = Polynomial(base.as_tuple()).taylor_shift(0.75)
    v1 = integral_numeric(CubicCoeffs(*shifted.coeffs), cfg).value
    assert abs(v1 - v0) <= 2.0 * cfg.rel_tol * v0


def test_halving_tolerance_stays_within_error_estimate():
    base = CubicCoeffs(1.0, 2.0, 3.0, 5.0)
    for rel_tol in (1e-6, 1e-8, 1e-10):
        coarse = integral_numeric(base, QuadratureConfig(rel_tol=rel_tol))
        fine = integral_numeric(base, QuadratureConfig(rel_tol=rel_tol / 2.0))
        assert abs(fine.value - coarse.value) <= max(coarse.error_estimate, 1e-16 * coarse.value)


@pytest.mark.parametrize("k", [-900, 900])
def test_extreme_coefficient_scale(k):
    # integral |2^k f|^(-2/n) = 2^(-2k/n) integral |f|^(-2/n)
    s = math.ldexp(1.0, k)
    cubic = CubicCoeffs(s, 2 * s, 3 * s, 5 * s)
    numeric = integral_numeric(cubic)
    closed = closed_form_integral(cubic)
    assert abs(numeric.value - closed.value) <= 1e-9 * closed.value
    assert numeric.error_estimate <= 1e-9 * closed.value
    quartic = integral_numeric_general(Polynomial([s, 0.0, 0.0, 0.0, s]))
    oracle = 0.5 * beta(0.25, 0.25) * 2.0 ** (-k / 2)
    assert abs(quartic.value - oracle) <= 1e-9 * oracle


def test_no_convergence_when_tolerance_unreachable():
    cfg = QuadratureConfig(rel_tol=1e-30, max_levels=4)
    with pytest.raises(NoConvergence):
        integral_numeric(CubicCoeffs(1.0, 2.0, 3.0, 5.0), cfg)


def test_general_quartic_beta_oracle():
    result = integral_numeric_general(Polynomial([1.0, 0.0, 0.0, 0.0, 1.0]))
    oracle = 0.5 * beta(0.25, 0.25)
    assert abs(result.value - oracle) / oracle <= 1e-8
    assert result.value == pytest.approx(3.70815, rel=1e-5)


def test_general_quartic_real_roots_and_reversal():
    cfg = QuadratureConfig()
    p = Polynomial([1.0, 0.0, 0.0, 0.0, -1.0])
    v0 = integral_numeric_general(p, cfg).value
    assert math.isfinite(v0)
    v1 = integral_numeric_general(p.reverse(), cfg).value
    assert abs(v1 - v0) <= 2.0 * cfg.rel_tol * v0


def test_general_quintic_stability_across_tolerances():
    p = Polynomial([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    v1 = integral_numeric_general(p, QuadratureConfig(rel_tol=1e-8)).value
    v2 = integral_numeric_general(p, QuadratureConfig(rel_tol=1e-11)).value
    assert abs(v1 - v2) / abs(v2) <= 1e-8


def test_general_quintic_double_root_integrates():
    # |x-1|^(-4/5) at the double root is integrable; value must stabilize
    p = Polynomial([1.0, -2.0, 2.0, -2.0, 1.0, 0.0])
    v1 = integral_numeric_general(p, QuadratureConfig(rel_tol=1e-8)).value
    v2 = integral_numeric_general(p, QuadratureConfig(rel_tol=1e-10)).value
    assert math.isfinite(v1) and v1 > 0
    assert abs(v1 - v2) / abs(v2) <= 1e-8


def test_general_rejects_low_degree():
    with pytest.raises(DegreeTooLow):
        integral_numeric_general(Polynomial([1.0, 0.0, 1.0]))


def test_gaussian_quadrature_cross_check():
    result = gaussian_integral_numeric(1.0, 0.0, 1.0, QuadratureConfig(rel_tol=1e-11))
    assert abs(result.value - math.pi) <= 1e-10 * math.pi
    result = gaussian_integral_numeric(2.0, 2.0, 1.0)
    assert result.value == pytest.approx(math.pi, rel=1e-9)


def test_gaussian_quadrature_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            gaussian_integral_numeric(1.0, 0.0, bad)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_levels=3)
