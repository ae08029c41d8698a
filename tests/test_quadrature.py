"""Panel decomposition and Gauss-Jacobi evaluation of the singular integrals,
bisected where a panel needs it."""

import math
import random
import re
import warnings
from fractions import Fraction

import pytest

from polynomials import from_roots
from tanh_sinh import integrand
from test_gauss_jacobi import _direct_gauss_panel

from nongauss import (
    CubicCoeffs,
    DegreeTooLow,
    DivergentIntegral,
    DomainError,
    IllConditionedWarning,
    IntegralMethod,
    NoConvergence,
    NonGaussError,
    Polynomial,
    QuadratureConfig,
    RepeatedRootDivergence,
    Sign,
    SingularPoint,
    beta,
    closed_form_integral,
    cubic_roots,
    decompose,
    discriminant_from_coeffs,
    discriminant_general,
    expectations,
    expectations_fd_check,
    gaussian_analogue,
    gaussian_integral_numeric,
    integral_numeric,
    integral_numeric_general,
    log_closed_form,
    pde_identity_residuals,
)
from nongauss import polynomial, quadrature, renorm
from nongauss.polynomial import integer_coefficients


def _chart(values, *place):
    """``polynomial._chart`` of f with coefficients ``values``, cleared to
    integers once, as a public route clears its caller's."""
    return polynomial._chart(*integer_coefficients(values), *place)


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


def _arc(panel):
    """The panel as the arc (start, end) of the projective line it covers, in
    y: a ``reciprocal`` panel [lo, hi] of u = 1/y runs from 1/hi to 1/lo."""
    if not panel.reciprocal:
        return panel.lo, panel.hi
    return tuple(math.inf if u == 0.0 else 1.0 / u for u in (panel.hi, panel.lo))


def test_decompose_breakpoints_and_tiling():
    # x^3 - x on its covariant chart: H = 3x^2 + 1 has its root at i / sqrt(3),
    # so t = 0 and 2^s = 1/2, and the roots -1, 0, 1 lie at y = -2, 0, 2
    d = decompose(Polynomial([1.0, 0.0, -1.0, 0.0]))
    assert d.breakpoints == pytest.approx((-2.0, 0.0, 2.0), abs=1e-14)
    # the arc through infinity, from y = 2 to y = -2, is one panel in u = 1/y,
    # and no panel is infinite
    assert [p for p in d.panels if p.reciprocal] == [quadrature.Panel(-0.5, 0.5, 1, 1, True)]
    assert all(math.isfinite(p.lo) and math.isfinite(p.hi) for p in d.panels)
    # the panels tile the projective line: each arc starts where the last ended
    arcs = [_arc(p) for p in d.panels]
    for (_, end), (start, _) in zip(arcs, arcs[1:] + arcs[:1]):
        assert end == start
    # singular points appear only as endpoints, each exactly twice
    singular_points = [a for p, (a, _) in zip(d.panels, arcs) if p.lo_multiplicity > 0]
    singular_points += [b for p, (_, b) in zip(d.panels, arcs) if p.hi_multiplicity > 0]
    assert sorted(singular_points) == [-2.0, -2.0, 0.0, 0.0, 2.0, 2.0]


_DILATED = Polynomial([math.ldexp(c, -30 * (3 - i)) for i, c in enumerate([1.0, 2.0, 3.0, 5.0])])
_CLUSTERED = from_roots([999.5, 1000.25, 1000.5, 1001.0])
_DOUBLE_ROOT = Polynomial([1, -2, 2, -2, 1, 0])  # (x - 1)^2 x (x^2 + 1), D = 0


@pytest.mark.parametrize(
    "f, n, call",
    [
        # (1, 2, 3, 5) dilated by 2^-30: two panels at unit root scale
        (_DILATED, 3, lambda: integral_numeric(CubicCoeffs(*_DILATED.coeffs))),
        # roots clustered about 1000, integrated after centring
        (_CLUSTERED, 4, lambda: integral_numeric_general(_CLUSTERED)),
        # D = 0: multiplicities from the square-free factors
        (_DOUBLE_ROOT, 5, lambda: integral_numeric_general(_DOUBLE_ROOT)),
        # the a = 0 member of the cubic family: u = 0 is a root of the reversal
        (Polynomial([1, 0, 1]), 3, lambda: integral_numeric(CubicCoeffs(0, 1, 0, 1))),
    ],
)
def test_decompose_reports_the_panels_that_are_integrated(f, n, call, monkeypatch):
    evaluated = []

    def recorded(coeffs, exponent, lo, hi, m_lo, m_hi, cfg):
        evaluated.append((lo, hi, m_lo, m_hi))
        return panel_value(coeffs, exponent, lo, hi, m_lo, m_hi, cfg)

    panel_value = quadrature._panel_value
    monkeypatch.setattr(quadrature, "_panel_value", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        call()
        layout = decompose(f, n)
    assert len(layout.panels) == len(evaluated)
    assert [(p.lo, p.hi, p.lo_multiplicity, p.hi_multiplicity) for p in layout.panels] == evaluated
    assert _chart(_CLUSTERED.coeffs)[0] == 1000.3125


def test_decompose_single_root():
    # x^3 + 1 (A = 0): its complex pair 1/2 +- i sqrt(3)/2 is charted at
    # t = 1/2, 2^s = 1/2, where the root -1 lies at y = -3
    d = decompose(Polynomial([1.0, 0.0, 0.0, 1.0]))
    assert d.breakpoints == pytest.approx((-3.0,), abs=1e-14)


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


# a real pair about 5e-4 apart whose rounding moves a root by 2.8e-7 of the
# distance to its critical point: the status-ok value is 2e-9 off
# a cubic whose real pair, 1.3e-6 apart, warned on the chart of its centroid
_CLOSE_PAIR = (1.33514404296875e-05, 5.525945723005751e-05, 7.82875389059157e-06, -0.00011891701876319992)
# (x^2 + 1) times a real pair 3.6e-6 apart: n >= 4 keeps the centroid's chart,
# where rounding moves a root by 5.5e-6 of its distance to the critical point
_CLOSE_QUARTIC = (
    1, -0.19761812354566163, 1.0097632306852622, -0.19761812354566163, 0.009763230685262254
)
_ROUNDING_WARNING = "rounding the coefficients moves a root"


def test_decompose_clearance_warning():
    # roots 0, 1e-7 and 1 are well conditioned; the quartic's close pair is not
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        p = from_roots([0.0, 1e-7, 1.0], leading=1.0)
        decompose(Polynomial([float(c) for c in p.coeffs]))
    with pytest.warns(IllConditionedWarning, match=_ROUNDING_WARNING):
        decompose(Polynomial(list(_CLOSE_QUARTIC)))


@pytest.mark.parametrize("route", ["decompose", "integral_numeric", "integral_numeric_general"])
def test_clearance_warning_names_the_callers_line(route):
    # the quartic warns once, from the caller's line; every cubic is charted on
    # its covariant point, which keeps the cubic's pair apart: it does not warn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if route == "decompose":
            decompose(Polynomial(list(_CLOSE_QUARTIC)))
        elif route == "integral_numeric":
            integral_numeric(CubicCoeffs(*_CLOSE_PAIR))
        else:
            integral_numeric_general(Polynomial(list(_CLOSE_QUARTIC)))
    expected = 0 if route == "integral_numeric" else 1
    assert len([w for w in caught if _ROUNDING_WARNING in str(w.message)]) == expected
    assert [w.filename for w in caught] == [__file__] * len(caught)


def test_close_real_pair_is_flagged_by_the_band():
    # the cubic's real pair 1.3e-6 apart times (x - 2): rounding moves a root
    # by 2.8e-3 of its distance to the nearest critical point, which warns,
    # then the panel between the pair does not converge
    with pytest.warns(IllConditionedWarning, match=_ROUNDING_WARNING) as caught:
        with pytest.raises(NoConvergence):
            integral_numeric_general(Polynomial(
                [1.0, -3.349915368751623, 3.2822014082375097, -1.2461022951586596, 0.16272190738026532]
            ))
    assert all(w.filename == __file__ for w in caught)
    # the warning is the only flag on this status-ok value, 3.4e-9 off the
    # value of mpmath's tanh-sinh at 40 digits, where its error estimate is
    # 4.9e-12 of it
    with pytest.warns(IllConditionedWarning, match=_ROUNDING_WARNING) as caught:
        result = integral_numeric_general(Polynomial(list(_CLOSE_QUARTIC)))
    assert all(w.filename == __file__ for w in caught)
    reference = 32.25545471518698
    assert 1e-9 < abs(result.value - reference) / reference < 1e-8
    assert result.error_estimate < 1e-10 * reference
    # the cubic's pair, apart on its covariant chart, is right and not flagged
    coeffs = CubicCoeffs(1.0, -1.3499153687516232, 0.5823706707342634, -0.08136095369013266)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        for cubic in (coeffs, CubicCoeffs(*_CLOSE_PAIR)):
            closed = closed_form_integral(cubic).value
            assert abs(integral_numeric(cubic).value - closed) <= 1e-12 * closed


@pytest.mark.parametrize(
    "coeffs",
    [(10.0**-k, 1.0, 0.0, -1.0) for k in range(9, 16)] + [(1e-300, 1e8, 0.0, -1.0)],
)
def test_far_apart_roots_are_not_flagged_as_close(coeffs):
    # roots +-1 (+-1e-4) beside one near -b/a: each is far from the others
    # against how far rounding moves it
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        decompose(Polynomial(list(coeffs)))


@pytest.mark.parametrize(
    "coeffs, family_degree",
    [([1, 0, 0, 0, -1], 3), ([1, 0, 0, 0, -1], 0), ([1, 0, 0, 0, -1], True), ([1, 0, 0, -1], 3.5)],
)
def test_decompose_family_degree_is_an_int_at_least_deg_f(coeffs, family_degree):
    # below deg f, u^n f(1/u) is not a polynomial
    with pytest.raises(DomainError, match="family_degree"):
        decompose(Polynomial(coeffs), family_degree)


def test_decompose_root_at_infinity_diverges_at_half_the_family_degree():
    # x^2 + 1 at n = 4: |x|**(-1) at infinity; n = 3 converges
    with pytest.raises(RepeatedRootDivergence, match="root at infinity"):
        decompose(Polynomial([1, 0, 1]), 4)
    assert decompose(Polynomial([1, 0, 1]), 3).panels


def test_decompose_degree_too_low():
    with pytest.raises(DegreeTooLow):
        decompose(Polynomial([1.0, 2.0]))


def _brute_force_reach(g, roots):
    """``_complex_reach`` from the upper hull found by brute force: a point
    (k, log2|c_k|) is a vertex unless it lies on or under a chord between
    two others, decided in exact rationals on the same floats."""
    points = [(k, Fraction(math.log2(abs(c)))) for k, c in enumerate(reversed(g)) if c]

    def under(p):
        return any(
            a[0] < p[0] < b[0] and (p[1] - a[1]) * (b[0] - a[0]) <= (b[1] - a[1]) * (p[0] - a[0])
            for a in points
            for b in points
        )

    hull = [(k, float(l)) for k, l in points if not under((k, l))]
    moduli = []
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        moduli += [(l1 - l2) / (k2 - k1)] * (k2 - k1)
    for r, k in roots:  # each nonzero real root takes out the nearest, the first of ties
        for _ in range(k if r else 0):
            if moduli:
                distances = [abs(m - math.log2(abs(r))) for m in moduli]
                del moduli[distances.index(min(distances))]
    return 2.0 ** min(-max(moduli), 1000.0) if moduli else 0.0


def test_complex_reach_walks_the_brute_force_upper_hull():
    # magnitudes 0, powers of two (exact logs, so exactly collinear points),
    # a few shared values (slope ties) and fresh ones, with real roots, 0.0
    # among them, that take out moduli
    rng = random.Random(89)
    shared = [rng.uniform(0.1, 50.0) for _ in range(3)]
    kinds = {"zero": 0, "collinear": 0, "tie": 0}
    for _ in range(400):
        n = rng.randint(1, 8)
        magnitudes = [
            rng.choice((0.0, 2.0 ** rng.randint(-6, 6), rng.choice(shared), rng.uniform(0.1, 50.0)))
            for _ in range(n)
        ]
        g = [rng.choice((-1.0, 1.0)) * m for m in [2.0 ** rng.randint(-6, 6)] + magnitudes]
        roots = sorted(
            (rng.choice((0.0, rng.uniform(-3.0, 3.0))), rng.randint(1, 2))
            for _ in range(rng.randint(0, n))
        )
        assert quadrature._complex_reach(g, roots) == _brute_force_reach(g, roots), (g, roots)
        kinds["zero"] += 0.0 in g
        kinds["collinear"] += sum(math.log2(abs(c)).is_integer() for c in g if c) >= 3
        kinds["tie"] += len({abs(c) for c in g if c}) < len([c for c in g if c])
    assert min(kinds.values()) >= 100, kinds


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
        disc = discriminant_from_coeffs(coeffs).value
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
    # roots at 0, 1e-2, 1 are well conditioned: no warning, and the value is
    # right to 1.2e-15
    cubic = CubicCoeffs(*[float(c) for c in from_roots([0.0, 1e-2, 1.0]).coeffs])
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        value = integral_numeric(cubic).value
    closed = closed_form_integral(cubic).value
    assert abs(value - closed) <= 1e-14 * closed


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
    v1 = integral_numeric(CubicCoeffs(*reversed(base.as_tuple())), cfg).value
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


def test_no_convergence_when_tolerance_unreachable(monkeypatch):
    monkeypatch.setattr(quadrature, "_BISECTIONS", 4)
    with pytest.raises(NoConvergence, match="within 4 bisections"):
        integral_numeric(CubicCoeffs(1.0, 2.0, 3.0, 5.0), QuadratureConfig(rel_tol=1e-30))


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


def test_gaussian_quadrature_discriminant_is_the_callers_exact_d():
    # D = b^2 - 4ac of the coefficients given, not of their float roundings
    assert gaussian_integral_numeric(Fraction(1, 3), 0, 1).discriminant.value == Fraction(-4, 3)
    big = gaussian_integral_numeric(10**20 + 1, 0, 1).discriminant
    assert big.value == -400000000000000000004 and big.sign is Sign.NEGATIVE
    a, b, c = 0.1, 0.3, 0.7
    d = Fraction(b) ** 2 - 4 * Fraction(a) * Fraction(c)
    assert gaussian_integral_numeric(a, b, c).discriminant.value == d


def _gaussian_forms(rng, count):
    """``count`` exact forms a((x - r)^2 + s^2), a, r and s^2 drawn over wide
    magnitudes."""
    forms = []
    for _ in range(count):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        r = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 99)) * 10 ** rng.randint(0, 12)
        s2 = Fraction(rng.randint(1, 99), rng.randint(1, 99)) * Fraction(10) ** rng.randint(-6, 6)
        forms.append((a, -2 * a * r, a * (r * r + s2)))
    return forms


def test_gaussian_quadrature_integrates_the_callers_exact_coefficients():
    # rounding the exact coefficients to floats before the exact centring
    # shift lost s^2 next to r^2, and a centre rounded to 24 bits left a
    # residual shift that lost it too: 62 of these 150 ended in NoConvergence
    for a, b, c in _gaussian_forms(random.Random(2027), 150):
        closed = gaussian_analogue(a, b, c)
        assert gaussian_integral_numeric(a, b, c).value == pytest.approx(closed, rel=1e-8)


def test_gaussian_quadrature_reproducers():
    # 9/7 ((x - 10^9)^2 + 1): once 0.137, status ok
    a, b, c = Fraction(9, 7), Fraction(-18 * 10**9, 7), Fraction(9 * (10**18 + 1), 7)
    assert abs(gaussian_integral_numeric(a, b, c).value - 2.443460952792061) <= 1e-12
    # (x - 10^8)^2 + 1: its float form was (x - 10^8)^2, a double root
    assert abs(gaussian_integral_numeric(1, -2 * 10**8, 10**16 + 1).value - math.pi) <= 1e-12
    # (x - 10^20)^2 + 1: a 24-bit centre left the float form two real roots
    assert abs(gaussian_integral_numeric(1, -2 * 10**20, 10**40 + 1).value - math.pi) <= 1e-12


def test_gaussian_real_root_of_the_float_form_is_unresolved_not_divergent():
    # (x - 10^25)^2 + 1 has no real root, but the float form of its centred
    # image has two: 10^25 is not a float, so the centre misses it by about
    # 9e8, and the pair's width 1 is lost in rounding.  Once 5.7e-12 with
    # status ok (at 10^20), where the value is pi
    with pytest.raises(NoConvergence, match="exact discriminant rules out"):
        gaussian_integral_numeric(1, -2 * 10**25, 10**50 + 1)


@pytest.mark.parametrize("k", [12, 16])
def test_far_cubic_cluster_matches_the_closed_form(k):
    # roots 10^k and 10^k +- i: a 24-bit centre left the cluster a close
    # pair at unit scale, 2.3e-9 off with status ok (k = 12) or NoConvergence
    coeffs = CubicCoeffs(1, -3 * 10**k, 3 * 10 ** (2 * k) + 1, -(10 ** (3 * k)) - 10**k)
    closed = closed_form_integral(coeffs).value
    value = integral_numeric(coeffs).value
    assert abs(value - closed) <= 1e-13 * closed


@pytest.mark.parametrize(
    "call",
    [
        # a and b below the float range, the value 5e361 above it
        lambda: gaussian_integral_numeric(Fraction(7, 10**400), Fraction(-3, 10**400), 5e-324),
        # mixed input whose float form is a constant (were IndexError when centred)
        lambda: gaussian_integral_numeric(Fraction(7, 10**330), Fraction(-3, 10**400), 5e-324),
    ],
)
def test_float_form_that_loses_its_leading_coefficients_fails_cleanly(call):
    with pytest.raises(NonGaussError):
        call()


def test_float_form_with_a_small_middle_coefficient_keeps_the_fujiwara_chart():
    # c = -3 10^-400, far below b and 1e300 at the Fujiwara s, once sent the
    # chart to s = 0, where b and c underflowed: NoConvergence, "a root of
    # multiplicity 3 at infinity".  At the Fujiwara s the lead is normal
    coeffs = CubicCoeffs(0, Fraction(-3, 10**400), Fraction(-3, 10**400), 1e300)
    closed = closed_form_integral(coeffs).value
    assert abs(integral_numeric(coeffs).value - closed) <= 1e-14 * closed


@pytest.mark.parametrize(
    "a, b, c",
    [
        # pi 10^200: rounded at the caller's scale, the form was the constant 1
        (Fraction(1, 10**400), 0, 1),
        # pi 10^-200: rounded at the caller's scale, 10^400 was no float
        (10**400, 1, 1),
        (10**400, 0, 1.0),
    ],
)
def test_gaussian_numeric_rounds_at_unit_root_scale(a, b, c):
    # the coefficients are rounded once from the exact integers, after the
    # dilation that brings the roots to unit size
    value = gaussian_integral_numeric(a, b, c).value
    assert value == pytest.approx(gaussian_analogue(a, b, c), rel=1e-14)


def test_cubic_below_the_float_range_matches_the_closed_form():
    # every coefficient is 0.0 at the caller's scale (was DomainError)
    tiny = Fraction(1, 10**400)
    cubic = CubicCoeffs(tiny, tiny, 0, tiny)
    value = integral_numeric(cubic).value
    assert value == pytest.approx(closed_form_integral(cubic).value, rel=1e-12)


def test_cubic_numeric_below_the_normal_floats_is_a_domain_error():
    # F(2^1605 (x^3 - x)) ~ 1e-321 was a status-ok value 0.04 % off
    with pytest.raises(DomainError, match="below its normal floats"):
        integral_numeric(CubicCoeffs(2**1605, 0, -(2**1605), 0))


def test_subnormal_cubic_is_right_or_unresolved():
    # the constant 10^-400 rounded to 0.0 at the caller's scale, which made
    # the complex pair of modulus ~7e-201 real: once 1.9e107, status ok,
    # where F = 2.39e67
    cubic = CubicCoeffs(Fraction(-3, 10**400), 2, -1e-310, Fraction(1, 10**400))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            value = integral_numeric(cubic).value
        except NoConvergence:
            return
    assert value == pytest.approx(closed_form_integral(cubic).value, rel=1e-9)


def test_subnormal_roots_next_to_unit_coefficients_are_right_or_unresolved():
    # the s = 0 subnormal fallback of the chart leaves the float form zero at
    # a panel node; F = 6.187162374611548 from the closed form
    cubic = CubicCoeffs(-1e-310, 2, Fraction(1, 10**400), Fraction(1, 3))
    closed = closed_form_integral(cubic).value
    assert closed == pytest.approx(6.187162374611548, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            value = integral_numeric(cubic).value
        except (NoConvergence, SingularPoint):
            return
    assert value == pytest.approx(closed, rel=1e-9)


def test_float_form_whose_root_at_infinity_diverges_fails_before_any_panel(monkeypatch):
    # the two leading coefficients, e^2 = 10^-800, put two roots beyond the
    # float range; stripped, they leave the float form of degree 2 with a
    # double root at infinity, |u|^-1 for n = 4, while the exact f has none
    calls = []
    panel_value = quadrature._panel_value
    monkeypatch.setattr(
        quadrature, "_panel_value", lambda *args: calls.append(args) or panel_value(*args)
    )
    e = Fraction(1, 10**400)
    f = Polynomial([e * e, -3 * e * e, 2 * e * e - 1, 3, -2])
    with pytest.raises(NoConvergence, match="multiplicity 2 at infinity"):
        integral_numeric_general(f)
    assert calls == []


@pytest.mark.parametrize("coeffs", [(Fraction(1, 10**400), 1, 0, -1), (1e-300, 1e300, 1, -1)])
def test_cubic_leading_coefficient_that_underflows_is_a_root_at_infinity(coeffs):
    # the leading coefficient of the unit-scale form underflows to 0.0: its
    # root lies beyond the float range, at u = 0 of the reversal
    closed = closed_form_integral(CubicCoeffs(*coeffs)).value
    assert integral_numeric(CubicCoeffs(*coeffs)).value == pytest.approx(closed, rel=1e-12)


def test_general_leading_coefficient_that_underflows_is_a_root_at_infinity():
    value = integral_numeric_general(Polynomial([Fraction(1, 10**400), 1, 0, 0, -1])).value
    assert value == pytest.approx(6.635196963863946, rel=1e-12)
    leading_1e_30 = integral_numeric_general(Polynomial([1e-30, 1, 0, 0, -1])).value
    assert leading_1e_30 == pytest.approx(value, rel=1e-12)


def test_gaussian_quadrature_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            gaussian_integral_numeric(1.0, 0.0, bad)


@pytest.mark.parametrize(
    "a,b,c",
    [(1e200, 1e200, 1e200), (1e-200, 1e-200, 1e-200), (1e300, 1.0, 1e-300), (1e-300, 0.0, 1e300)],
)
def test_gaussian_domain_is_decided_exactly(a, b, c):
    # b^2 - 4ac over- or underflows in floats, and c underflows once the
    # coefficients are divided by the largest; the exact integers do neither
    closed = gaussian_analogue(a, b, c)
    numeric = gaussian_integral_numeric(a, b, c).value
    assert abs(numeric - closed) <= 1e-10 * closed


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    # the bisection depth is fixed, not an option
    assert QuadratureConfig._fields == ("rel_tol",)


@pytest.mark.parametrize("rel_tol", [math.inf, math.nan, -1e-10])
def test_config_rel_tol_is_positive_and_finite(rel_tol):
    with pytest.raises(DomainError, match="rel_tol"):
        QuadratureConfig(rel_tol=rel_tol)


@pytest.mark.parametrize("rel_tol", [-1.0, math.nan])
def test_config_replace_and_make_validate(rel_tol):
    # a plain NamedTuple's _replace and _make skip __new__; these do not
    with pytest.raises(DomainError) as built:
        QuadratureConfig(rel_tol=rel_tol)
    with pytest.raises(DomainError) as replaced:
        QuadratureConfig()._replace(rel_tol=rel_tol)
    with pytest.raises(DomainError) as made:
        QuadratureConfig._make([rel_tol])
    assert str(replaced.value) == str(made.value) == str(built.value)
    assert QuadratureConfig()._replace(rel_tol=1e-8) == QuadratureConfig(1e-8)
    assert type(QuadratureConfig._make([1e-8])) is QuadratureConfig


def test_panel_too_narrow_for_its_endpoint_powers_is_a_domain_error():
    # hs**(-0.99) overflows for a half-width of 1e-316
    cfg = QuadratureConfig()
    with pytest.raises(DomainError, match="too narrow"):
        quadrature._panel_value([1.0, -2e-316, 0.0], 0.99, 0.0, 2e-316, 1, 1, cfg)


def test_zero_width_panel_is_worth_nothing():
    cfg = QuadratureConfig()
    assert quadrature._panel_value([1.0, 0.0, 1.0], 1.0, 0.5, 0.5, 0, 0, cfg) == (0.0, 0.0, True, 0)


def test_zero_at_the_panel_midpoint_is_a_singular_point():
    # x on [-1, 1]: |x|^-1 is not integrable, so no rule resolves the panel,
    # and its midpoint, where it would be cut, is the zero
    cfg = QuadratureConfig()
    with pytest.raises(SingularPoint, match="unexpected interior zero at 0.0"):
        quadrature._panel_value([1.0, 0.0], 1.0, -1.0, 1.0, 0, 0, cfg)


def test_gaussian_with_a_subnormal_middle_coefficient_keeps_the_fujiwara_chart():
    # b = 1e-300 between 1e-10 and 1e300 once sent the chart to s = 0, where
    # the lead fell to about 1.5e-310 and the rules' sums overflowed next to
    # u = 0: SingularPoint.  Only a lead below the normal floats at the
    # Fujiwara s takes s = 0, and the lead here is normal there.  The
    # analogue is 3.1415926535897933e-145
    value = gaussian_integral_numeric(1e-10, 1e-300, 1e300).value
    reference = gaussian_analogue(1e-10, 1e-300, 1e300)
    assert abs(value - reference) <= 1e-15 * reference


def _direct_bisected_panel(coeffs, exponent, lo, hi, m_lo, m_hi, cfg, depth=0):
    """Reference for the bisection of ``quadrature._panel_value``: the direct
    ladder of the panel, and where it does not converge and cuts are left,
    the sum of the panel's halves, the lower keeping m_lo and the upper
    m_hi, up to the first that does not converge."""
    value, error, converged, nodes = _direct_gauss_panel(coeffs, exponent, lo, hi, m_lo, m_hi, cfg)
    if converged or depth == quadrature._BISECTIONS:
        return value, error, converged, nodes
    mid = 0.5 * (lo + hi)
    value = error = 0.0
    for a, b, k_lo, k_hi in ((lo, mid, m_lo, 0), (mid, hi, 0, m_hi)):
        half = _direct_bisected_panel(coeffs, exponent, a, b, k_lo, k_hi, cfg, depth + 1)
        value, error, nodes = value + half[0], error + half[1], nodes + half[3]
        if not half[2]:
            return value, error, False, nodes
    return value, error, True, nodes


@pytest.mark.parametrize("m_lo,m_hi", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("length", range(1, 14))
def test_panel_kernel_of_every_quotient_length_walks_the_direct_nodes(length, m_lo, m_hi):
    # one kernel per quotient length, with Horner written out, and the
    # bisection: the direct ladders' value, error, convergence and node
    # count, bit for bit, summed over the same halves, on a quotient with a
    # root 0.0035-0.006 beyond hi = 3, which no rule on [1, 3] resolves, its
    # other roots off [1, 3], and endpoint roots at neither end, one end or both
    rng = random.Random(length)
    lo, hi = 1.0, 3.0
    roots = [rng.uniform(-2.0, 0.5) if i % 2 else rng.uniform(3.5, 6.0) for i in range(length - 1)]
    roots[:1] = [hi + 0.001 * r for r in roots[:1]]
    coeffs = [float(c) for c in from_roots(roots + [lo] * m_lo + [hi] * m_hi).coeffs]
    args = (coeffs, 2.0 / max(3, len(coeffs) - 1), lo, hi, m_lo, m_hi, QuadratureConfig())
    value, error, converged, nodes = _direct_bisected_panel(*args)
    assert converged and (nodes > 248 if length > 1 else nodes == 24)
    assert quadrature._panel_value(*args) == (value, error, converged, nodes)


@pytest.mark.parametrize("length", range(2, 14))
def test_panel_kernel_names_the_node_where_the_quotient_is_zero(length, monkeypatch):
    # (x - x0) x^(length - 2) is exactly 0.0 by Horner at x0, the first node
    # of the 8-point rule on [0.5, 2.5]: with no cut left, the panel names it
    lo, hi = 0.5, 2.5
    x0 = 1.5 + 1.0 * quadrature._jacobi_rule(8, 0.0, 0.0)[0][0]
    args = ([1.0, -x0] + [0.0] * (length - 2), 2.0 / 3.0, lo, hi, 0, 0, QuadratureConfig())
    monkeypatch.setattr(quadrature, "_BISECTIONS", 0)
    with pytest.raises(SingularPoint, match=f"^unexpected interior zero at {re.escape(repr(x0))}$"):
        quadrature._panel_value(*args)


def _outcome(call, *args):
    try:
        result = call(*args)
    except NoConvergence as exc:
        return str(exc)
    return result.value, result.error_estimate


def _dilated(coeffs, j):
    """f(2^j x) for leading-first coefficients: the power-p term gains 2^(j p)."""
    n = len(coeffs) - 1
    return [math.ldexp(c, j * (n - i)) for i, c in enumerate(coeffs)]


def _unit_band_cubics(rng, count):
    cubics = []
    while len(cubics) < count:
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if abs(discriminant_from_coeffs(coeffs).value) >= 1e-3 * max(map(abs, coeffs)) ** 4:
            cubics.append(coeffs)
    return cubics


def test_cubic_dilation_is_exact():
    # f(2^j x) normalizes to the same unit-scale form as f, so the result is
    # F(f) * 2^-j to the last bit, error estimate included
    rng = random.Random(41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for coeffs in _unit_band_cubics(rng, 30):
            j = rng.randint(-100, 100)
            base = integral_numeric(CubicCoeffs(*coeffs))
            dilated = integral_numeric(CubicCoeffs(*_dilated(coeffs, j)))
            assert dilated.value == math.ldexp(base.value, -j)
            assert dilated.error_estimate == math.ldexp(base.error_estimate, -j)


def test_general_dilation_is_exact():
    rng = random.Random(43)
    succeeded = 0
    for n in range(4, 9):
        for _ in range(4):
            coeffs = [1.0] + [rng.uniform(-2.0, 2.0) for _ in range(n)]
            j = rng.randint(-100, 100)
            base = _outcome(integral_numeric_general, Polynomial(coeffs))
            dilated = _outcome(integral_numeric_general, Polynomial(_dilated(coeffs, j)))
            if isinstance(base, str):
                assert isinstance(dilated, str)
                continue
            assert dilated == (math.ldexp(base[0], -j), math.ldexp(base[1], -j))
            succeeded += 1
    assert succeeded >= 15


# Compressing dilations that ended in NoConvergence while the quadrature
# worked at the caller's root scale (bench/workloads.py keeps them as _FAULT_B).
_COMPRESSED = [
    ((-0.11530035241317593, 1.32831720317207, 0.7025450712263854, 0.09780398909811794), 6),
    ((-0.8923246105829215, -0.7847540700206932, 1.8862607160440947, -0.659847654260663), 23),
]


def test_compressing_dilations_match_closed_form():
    rng = random.Random(47)
    cases = _COMPRESSED + [(c, rng.randint(1, 30)) for c in _unit_band_cubics(rng, 60)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for coeffs, j in cases:
            cubic = CubicCoeffs(*_dilated(coeffs, j))
            numeric = integral_numeric(cubic).value
            closed = closed_form_integral(cubic).value
            assert abs(numeric - closed) <= 1e-8 * closed


def test_dilated_cubic_costs_what_its_base_costs(count_evaluations):
    base = [1.0, 2.0, 3.0, 5.0]
    expected = count_evaluations(integral_numeric, CubicCoeffs(*base))
    assert expected == 115
    for j in (-30, -7, 6, 23):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            cost = count_evaluations(integral_numeric, CubicCoeffs(*_dilated(base, j)))
        assert cost == expected


def test_unit_root_scale_finds_the_smallest_root():
    # roots r with log-uniform moduli, a zero root (the x^k factor) among them
    # at times: with the centre held at 0, the smallest nonzero |r| / 2^s of
    # the chart stays of order one, and a dilation by 2^j moves s by -j alone
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(2, 8)
        roots = [rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-40.0, 40.0) for _ in range(n)]
        if rng.random() < 0.2:
            roots[0] = 0.0
        coeffs = [float(c) for c in from_roots(roots, leading=1.0).coeffs]
        _, s, e, _ = _chart(coeffs, 0.0)
        smallest = min(abs(r) for r in roots if r)
        assert 0.25 <= math.ldexp(smallest, -s) <= 2 * n
        j = rng.randint(-20, 20)
        assert _chart(_dilated(coeffs, j), 0.0)[1:3] == (s - j, e)


def test_unit_root_scale_keeps_coefficients_normal():
    # at s = -510 the x^3 coefficient of g would be 2^-1530 (below the float
    # range) while x^2 and 1 are of unit size, so s falls back to 0
    assert _chart([1.0, 2.0**520, 0.0, 2.0**-500])[:3] == (0.0, 0, 520)


@pytest.mark.parametrize("k", [30, 100, 300])
def test_unit_pair_with_far_root(k):
    # (x + 2^k)(x^2 + 1): the complex pair stays at unit size in y, where the
    # panels resolve it
    big = 2.0**k
    cubic = CubicCoeffs(1.0, big, 1.0, big)
    numeric = integral_numeric(cubic).value
    closed = closed_form_integral(cubic).value
    assert abs(numeric - closed) <= 1e-8 * closed


def test_integrand_is_the_log_space_form_as_one_power():
    # the power |f(x)|^(-2/n) against exp(-(2/n) log|f(x)|), with |f(x)| from
    # 2^-300 to 2^300 through 2^k-scaled coefficients
    rng = random.Random(79)
    for i in range(600):
        n = rng.randint(2, 8)
        k = rng.choice((-300, 300)) if i % 3 == 0 else rng.randint(-300, 300)
        f = Polynomial([math.ldexp(rng.uniform(-2.0, 2.0), k) for _ in range(n + 1)])
        x = rng.uniform(-3.0, 3.0)
        family = max(3, f.degree)
        value = abs(f(x))
        expected = math.exp(-(2.0 / family) * math.log(value))
        assert abs(integrand(f, x) - expected) <= 1e-13 * expected


@pytest.mark.parametrize(
    "a, b, c",
    [
        (5e-324, 0, 5e-324),
        (10**400, 0, 10**400),
        (5e-324, 0.0, 1e-300),
    ],
)
def test_gaussian_numeric_beyond_the_float_range_is_a_domain_error(a, b, c):
    with pytest.raises(DomainError):
        gaussian_integral_numeric(a, b, c)


def test_cubic_numeric_with_a_coefficient_beyond_the_float_range_is_a_domain_error():
    # 10^-2000 (x^3 + 1): F is 10^(2000/3) F(x^3 + 1), beyond the float range
    tiny = Fraction(1, 10**2000)
    with pytest.raises(DomainError, match="the integral lies beyond the float range"):
        integral_numeric(CubicCoeffs(tiny, 0, 0, tiny))


@pytest.mark.filterwarnings("ignore::nongauss.IllConditionedWarning")
def test_cubic_numeric_with_a_leading_coefficient_beyond_the_float_range():
    # 10^400 x^3 + 1 has its roots near 10^-133: the chart brings them to unit size
    cubic = CubicCoeffs(10**400, 0, 0, 1)
    closed = closed_form_integral(cubic).value
    assert abs(integral_numeric(cubic).value - closed) <= 1e-13 * closed


def test_exact_coefficients_beyond_the_float_range_next_to_a_float():
    # 10^-400 x^5 + x^4 + 1: the root near -10^400 is beyond the float range,
    # its power 2/5 integrable, so F is that of x^4 + 1 at n = 5, 1/2 B(1/4, 3/20)
    quintic = integral_numeric_general(Polynomial([Fraction(1, 10**400), 1, 0, 0, 0, 1.0]))
    assert abs(quintic.value - 0.5 * beta(0.25, 0.15)) <= 1e-13 * quintic.value
    # 10^400 x^4 + 1 = g(10^100 x), g = x^4 + 1: F is 10^-100 * 1/2 B(1/4, 1/4)
    mixed = integral_numeric_general(Polynomial([10**400, 0, 0, 0, 1.0])).value
    assert mixed == integral_numeric_general(Polynomial([10**400, 0, 0, 0, 1])).value
    assert abs(mixed - 0.5e-100 * beta(0.25, 0.25)) <= 1e-13 * mixed


def _reported(call, *args):
    """repr of call(*args) and of its warnings, or the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(call(*args))
        except NonGaussError as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, [str(w.message) for w in caught]


def test_each_public_route_clears_the_callers_coefficients_once(monkeypatch):
    # the entry clears them to (ints, den) and passes those down: no D, chart,
    # relocation or stencil center below it clears them again, on mixed
    # Fraction and float input, nor on (x - 1/3)((x - 2)^2 - 10^-12), for
    # which cubic_roots builds a chart on each critical point of its first one
    cleared, charts = [], []
    clear, chart = polynomial.integer_coefficients, polynomial._chart

    def counted_clear(values):
        cleared.append(tuple(values))
        return clear(values)

    def counted_chart(*args):
        charts.append(args)
        return chart(*args)

    for module in (polynomial, renorm):
        monkeypatch.setattr(module, "integer_coefficients", counted_clear)
    monkeypatch.setattr(polynomial, "_chart", counted_chart)
    cubic = (0.75, Fraction(-2, 3), -1.5, Fraction(5, 7))
    big = 3 * 10**12
    pair = (1.0, Fraction(-13, 3), Fraction(16 * 10**12 - 3, big), Fraction(1 - 4 * 10**12, big))
    # the two verifiers at their default step, which clears no caller value
    verifiers = (expectations_fd_check, pde_identity_residuals)
    first = (closed_form_integral, log_closed_form, expectations, *verifiers)
    routes = [(route, CubicCoeffs(*cubic)) for route in first]
    routes += [(integral_numeric, CubicCoeffs(*cubic)), (cubic_roots, CubicCoeffs(*cubic))]
    routes += [(route, Polynomial(cubic)) for route in (integral_numeric_general, decompose)]
    routes += [(cubic_roots, CubicCoeffs(*pair))]
    for route, argument in routes:
        cleared.clear()
        charts.clear()
        route(argument)
        values = argument.as_tuple() if isinstance(argument, CubicCoeffs) else argument.coeffs
        assert cleared == [values], route.__name__
    assert len(charts) >= 3  # the close pair's
    cleared.clear()
    gaussian_integral_numeric(0.5, Fraction(1, 3), 2.0)
    assert cleared == [(0.5, Fraction(1, 3), 2.0)]


def test_results_do_not_depend_on_how_a_coefficient_is_written():
    # floats next to one or two non-dyadic Fractions, against the same values
    # all as Fractions: F and its panels depend only on the exact values, so
    # values, error estimates, D and panels agree to the last bit
    rng = random.Random(19)
    for n in range(3, 9):
        for _ in range(4):
            mixed = [1.0] + [rng.uniform(-2.0, 2.0) for _ in range(n)]
            for i in rng.sample(range(n + 1), rng.randint(1, 2)):
                mixed[i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice((3, 5, 7, 10)))
            exact = [Fraction(c) for c in mixed]
            for call, args in (
                (integral_numeric_general, ()),
                (discriminant_general, ()),
                (decompose, (n,)),
            ):
                assert _reported(call, Polynomial(mixed), *args) == _reported(
                    call, Polynomial(exact), *args
                ), (call.__name__, mixed)
            if n == 3:
                assert _reported(integral_numeric, CubicCoeffs(*mixed)) == _reported(
                    integral_numeric, CubicCoeffs(*exact)
                ), mixed


def test_roots_that_coalesce_only_in_floats_are_unresolved_not_divergent():
    # ((x - 1)^2 + 2^-60)(x^2 + 1) has D != 0, but its float coefficients are
    # those of (x - 1)^2 (x^2 + 1), whose double root would diverge at n = 4
    f = Polynomial([1, -2, 2 + Fraction(1, 2**60), -2, 1 + Fraction(1, 2**60)])
    with pytest.raises(NoConvergence, match="discriminant is nonzero"):
        integral_numeric_general(f)
    with pytest.raises(RepeatedRootDivergence):
        integral_numeric_general(Polynomial([1, -2, 2, -2, 1]))
