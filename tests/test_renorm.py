"""Closed-form integral, Gaussian analogue, moments, and FD verifiers."""

import math
import random
import statistics
from fractions import Fraction

import pytest

from polynomials import wide_integer_cubics

from nongauss import (
    CubicCoeffs,
    DivergentIntegral,
    DomainError,
    IntegralMethod,
    Polynomial,
    StencilCrossesSingularity,
    closed_form_integral,
    constants,
    discriminant_from_coeffs,
    expectations,
    expectations_fd_check,
    gaussian_analogue,
    integral_numeric,
    log_closed_form,
    pde_identity_residuals,
)
from nongauss import discriminant, polynomial, renorm
from nongauss.polynomial import cubic_discriminant_int


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
        if discriminant_from_coeffs(coeffs).value == 0:
            continue
        c = CubicCoeffs(*coeffs)
        negated = CubicCoeffs(*(-v for v in c.as_tuple()))
        assert closed_form_integral(negated).value == closed_form_integral(c).value


def test_reversal_invariance_exact():
    rng = random.Random(67)
    for _ in range(50):
        coeffs = [rng.uniform(-2, 2) for _ in range(4)]
        if discriminant_from_coeffs(coeffs).value == 0:
            continue
        c = CubicCoeffs(*coeffs)
        reversed_c = CubicCoeffs(*reversed(c.as_tuple()))
        assert closed_form_integral(reversed_c).value == closed_form_integral(c).value


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


@pytest.mark.parametrize("coeffs", [(0, 0, 1, 2), (0.0, 0.0, 1.0, 2.0)])
def test_expectations_report_the_divergent_tail(coeffs):
    # D = 0 here too, but the reason given is the one closed_form_integral
    # and the FD verifiers give
    with pytest.raises(DivergentIntegral, match="a = b = 0"):
        expectations(CubicCoeffs(*coeffs))
    with pytest.raises(DivergentIntegral, match="a = b = 0"):
        closed_form_integral(CubicCoeffs(*coeffs))


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
    # D = 4 - 27 d^2 is within 4e-6 of zero here; the +-1e-4 stencil flips it.
    # The first point the moment walk visits, a moved up, is the one named
    with pytest.raises(StencilCrossesSingularity) as info:
        expectations_fd_check(CubicCoeffs(1.0, 0.0, -1.0, 0.3849))
    assert str(info.value) == (
        "stencil point (1.0001, 0.0, -1.0, 0.3849) has discriminant sign Negative, center has Positive"
    )


def test_fd_check_visits_the_stencil_before_the_center_moments():
    # at 10^310 x^3 - x the stencil's c = -1 is 10^-310 of a, so the +-h points
    # of c cross D = 0, and the float moment xy2 = 1 / (2c) lies beyond the
    # float range: both verifiers report the crossing (the moment check raised
    # DomainError before any stencil point)
    for verifier in (expectations_fd_check, pde_identity_residuals):
        with pytest.raises(StencilCrossesSingularity):
            verifier(CubicCoeffs(10**310, 0, -1, 0))


def test_pde_identities_worked_points():
    assert max(pde_identity_residuals(CubicCoeffs(1.0, 0.0, -1.0, 0.0))) <= 1e-5
    assert max(pde_identity_residuals(CubicCoeffs(0.0, 1.0, 0.0, 1.0))) <= 1e-5
    # moderate |D|/scale^4 needs a finer step to push second-order truncation
    # below 1e-5; the default step is exercised on well-separated points below
    assert max(pde_identity_residuals(CubicCoeffs(1.0, 2.0, 3.0, 5.0), step=5e-4)) <= 1e-5


def test_pde_identities_default_step_far_from_singularity():
    assert max(pde_identity_residuals(CubicCoeffs(1.0, 0.0, 0.0, 1.0))) <= 1e-5


def test_pde_identities_default_step_on_a_uniform_sweep():
    # four uniform(-2, 2) coefficients, D != 0.  At the identity check's old
    # default step, 1e-3 * scale, 2 of these 2,500 stencils crossed D = 0,
    # and the 90th percentile below was 3.6e-5 (1.3e-6 at 1e-4 * scale)
    rng = random.Random(5)
    draws, well_separated = 0, []
    while draws < 2500:
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        d = discriminant_from_coeffs(coeffs).value
        if d == 0:
            continue
        residual = max(pde_identity_residuals(CubicCoeffs(*coeffs)))
        if draws < 500 and abs(d) >= max(map(abs, coeffs)) ** 4:
            well_separated.append(residual)
        draws += 1
    assert len(well_separated) == 407
    assert statistics.quantiles(well_separated, n=10)[-1] <= 1e-5


def test_pde_identities_stencil_crossing():
    # the identity walk's first moved point, the ++ corner of (a, d), is the one named
    with pytest.raises(StencilCrossesSingularity) as info:
        pde_identity_residuals(CubicCoeffs(1.0, 0.0, -1.0, 0.3849))
    assert str(info.value) == (
        "stencil point (1.0001, 0.0, -1.0, 0.385) has discriminant sign Negative, center has Positive"
    )


@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, 2.0, 3.0, 5.0),
        (-3.0, 1.0, 4.0, 2.0),
        (0.0, 1.0, 0.0, 1.0),
        # exact input is rounded once from its integers at every scale: at
        # the old identity default step 1e-3 * scale, the stencil of 2^-1070
        # f gave the identity residuals (0.00322, 0.00124, 0.00938) where f
        # gave (0.00681, 0.00252, 0.0197), and 2^-1100 f, 2^1100 f and
        # 10^400 f raised DomainError
        (1, 0, -1, Fraction(3, 7)),
    ],
)
def test_fd_residuals_do_not_depend_on_scale(coeffs):
    exact = all(isinstance(v, (int, Fraction)) for v in coeffs)
    step = Fraction(5e-4) if exact else 5e-4

    def times(v, factor, k):
        return v * Fraction(factor) ** k if exact else math.ldexp(v, k)

    moments = expectations_fd_check(CubicCoeffs(*coeffs))
    identities = pde_identity_residuals(CubicCoeffs(*coeffs), step=step)
    for k in (-1500, -1100, -1070, 1100, 3000) if exact else (-1000, -300, 0, 300, 1000):
        scaled = CubicCoeffs(*(times(v, 2, k) for v in coeffs))
        assert expectations_fd_check(scaled) == moments
        assert pde_identity_residuals(scaled, step=times(step, 2, k)) == identities
    for k in (400, -400) if exact else ():  # no power of two: other roundings, close residuals
        scaled = CubicCoeffs(*(times(v, 10, k) for v in coeffs))
        assert expectations_fd_check(scaled) == pytest.approx(moments, rel=1e-4)
        assert pde_identity_residuals(scaled, step=times(step, 10, k)) == pytest.approx(
            identities, rel=1e-4
        )
    # (1, 0, -1, 3/7) is nearer D = 0: its identity residuals are truncation, 5e-3
    assert max(moments + identities) <= (1e-2 if exact else 1e-5)


@pytest.mark.parametrize(
    "step",
    [10**400, Fraction(1, 10**400), 0, math.nan, math.inf, 2.0**-512],
    ids=["1e400", "1e-400", "0", "nan", "inf", "subnormal-square"],
)
def test_fd_step_out_of_range_is_domain_error(step):
    # float(10^400) raised a bare OverflowError
    for verifier in (expectations_fd_check, pde_identity_residuals):
        with pytest.raises(DomainError, match="out of range at this scale"):
            verifier(CubicCoeffs(1, 0, -1, 0), step=step)


def test_pde_identities_refuse_a_step_whose_differences_overflow():
    # x^3 + c x, c one ulp above the least step whose square is a normal
    # float, h = 2^-511: F at c - h = 2^-52 h is 2^26 times F at the
    # center, and its second difference over h^2 was an inf residual.  The
    # step is refused before that: a + h rounds back to a = 1
    h = 2.0**-511
    with pytest.raises(DomainError, match="leaves coefficient 0 unmoved"):
        pde_identity_residuals(CubicCoeffs(1.0, 0.0, h * (1.0 + 2.0**-52), 0.0), step=h)


def test_fd_divergent_center():
    with pytest.raises(DivergentIntegral):
        expectations_fd_check(CubicCoeffs(1.0, -3.0, 3.0, -1.0))
    # decided on the caller's exact coefficients: x (x - 1/3)^2 has D = 0,
    # though its float rounding does not
    for verifier in (expectations_fd_check, pde_identity_residuals):
        with pytest.raises(DivergentIntegral, match="a = b = 0"):
            verifier(CubicCoeffs(0, 0, 1, 2))
        with pytest.raises(DivergentIntegral, match="D = 0"):
            verifier(CubicCoeffs(1, Fraction(-2, 3), Fraction(1, 9), 0))


def test_moment_numerators_on_wide_integers():
    # the numerators on the shared products bc and ad against their
    # term-by-term form, on integers of 1 to 1,100 bits with zeros and both
    # signs; with den = 1 and D_int = 1 each exact moment is its numerator / 6
    for a, b, c, d in wide_integer_cubics(random.Random(1101), 400):
        terms = [
            18 * b * c * d - 4 * c**3 - 54 * a * d * d,
            2 * b * c * c + 18 * a * c * d - 12 * b * b * d,
            2 * b * b * c + 18 * a * b * d - 12 * a * c * c,
            18 * a * b * c - 4 * b**3 - 54 * a * a * d,
        ]
        assert [6 * m for m in renorm._moments([a, b, c, d], 1, 1, True)] == terms


# (expectations_fd_check, pde_identity_residuals) at the default step, bit for
# bit; 2^-1100 (x^3 - x + 3/7), as p/q, rounds its stencil to that of x^3 - x + 3/7.
# Each point's log F is the closed form's, on the split |D| = m 2^e
_X3_X_3_7 = (
    (7.520313532365141e-08, 2.2825733754968275e-07, 6.501602004572067e-07, 1.6589959103781817e-06),
    (6.808997810026085e-05, 2.5224267119483557e-05, 0.0001964872708981602),
)


@pytest.mark.parametrize(
    "coeffs, pinned",
    [
        (
            (1, 2, 3, 5),
            (
                (6.159132190720016e-08, 1.4867407211410272e-07, 2.650982119109871e-08, 4.892429888190664e-09),
                (4.5796699765787707e-07, 1.3378187446733136e-06, 7.771561172376096e-08),
            ),
        ),
        (
            (1, 0, -1, 0),
            (
                (3.337220333410329e-09, 0.0, 3.3372202778991777e-09, 0.0),
                (0.0, 1.3877787807814457e-08, 1.1102230246251565e-08),
            ),
        ),
        ((1, 0, -1, Fraction(3, 7)), _X3_X_3_7),
        (
            (Fraction(1, 2**1100), 0, Fraction(-1, 2**1100), Fraction(3, 7 * 2**1100)),
            _X3_X_3_7,
        ),
    ],
)
def test_fd_residuals_keep_their_bits(coeffs, pinned):
    cubic = CubicCoeffs(*coeffs)
    assert (expectations_fd_check(cubic), pde_identity_residuals(cubic)) == pinned


def _counted_d(monkeypatch) -> tuple:
    """(fraction_calls, int_calls): the arguments of every Fraction D, from
    ``discriminant_from_coeffs``, and of every integer D, at the entry
    ``polynomial._exact`` and at the stencil's ``log_f`` in ``renorm``."""
    fraction_calls, int_calls = [], []

    def counted_fraction(values):
        fraction_calls.append(values)
        return discriminant_from_coeffs(values)

    def counted_int(*args):
        int_calls.append(args)
        return cubic_discriminant_int(*args)

    monkeypatch.setattr(discriminant, "discriminant_from_coeffs", counted_fraction)
    monkeypatch.setattr(polynomial, "cubic_discriminant_int", counted_int)
    monkeypatch.setattr(renorm, "cubic_discriminant_int", counted_int)
    return fraction_calls, int_calls


def test_fd_stencil_points_evaluate_d_once(monkeypatch):
    # one integer D on the caller's own coefficients for the center's sign,
    # with no Fraction D, then one integer D per distinct point of the shared
    # grid: 8 moment points plus the center's moments, and 21 identity
    # points, the center among them
    fraction_calls, int_calls = _counted_d(monkeypatch)
    cubic = CubicCoeffs(1.0, 2.0, 3.0, 5.0)
    expectations_fd_check(cubic)
    assert fraction_calls == []
    assert int_calls[0] == (1, 2, 3, 5)
    assert len(int_calls[1:]) == len(set(int_calls[1:])) == 9
    int_calls.clear()
    pde_identity_residuals(cubic)
    assert fraction_calls == []
    assert int_calls[0] == (1, 2, 3, 5)
    assert len(int_calls[1:]) == len(set(int_calls[1:])) == 21


@pytest.mark.parametrize("route", [closed_form_integral, expectations, integral_numeric])
def test_cubic_routes_evaluate_d_once(monkeypatch, route):
    # one integer D, on the integers the entry cleared the caller's mixed
    # Fraction and float coefficients to (over den 42), and no Fraction D
    fraction_calls, int_calls = _counted_d(monkeypatch)
    route(CubicCoeffs(Fraction(1, 3), 2.0, 0.5, Fraction(-5, 7)))
    assert fraction_calls == []
    assert int_calls == [(14, 84, 21, -30)]


@pytest.mark.parametrize("zeros", [1846, 2000])
def test_closed_form_beyond_float_range(zeros):
    # D = 4 / 10^zeros: exp(-ln|D| / 6) overflows (2000) or C times it does (1846)
    cubic = CubicCoeffs(Fraction(1, 10**zeros), 0, -1, 0)
    with pytest.raises(DomainError, match="out of float range"):
        closed_form_integral(cubic)


def test_closed_form_underflow_is_domain_error():
    # D = 4 * 10^2000: F ~ 10^-333 underflows to 0.0
    with pytest.raises(DomainError, match="out of float range"):
        closed_form_integral(CubicCoeffs(10**2000, 0, -1, 0))
    # so is a subnormal F, which has lost bits (was a status-ok value)
    with pytest.raises(DomainError, match="out of float range"):
        closed_form_integral(CubicCoeffs(10**1900, 0, -1, 0))


# Status-ok floats below the normal range, each with lost bits: the closed
# form of 2^1605 (x^3 - x) was 1.023e-321, 2.5 % off; the Gaussian analogue
# of 2^1070 (x^2 + 1) 2.47e-322; the float moments of 2^1075 (x^3 - x) + 1.0
# (0.0, -0.0, -0.0, -0.0), where the exact ones are nonzero.
def test_closed_form_below_the_normal_floats_is_a_domain_error():
    cubic = CubicCoeffs(2**1605, 0, -(2**1605), 0)
    with pytest.raises(DomainError, match="log_closed_form"):
        closed_form_integral(cubic)
    assert log_closed_form(cubic) < math.log(2.0**-1022)


def test_gaussian_analogue_below_the_normal_floats_is_a_domain_error():
    with pytest.raises(DomainError, match="out of float range"):
        gaussian_analogue(2**1070, 0, 2**1070)


def test_float_moments_below_the_normal_floats_are_a_domain_error():
    with pytest.raises(DomainError, match="below its normal floats"):
        expectations(CubicCoeffs(2**1075, 0, -(2**1075), 1.0))
    # exact input keeps its exact moments, and a moment that is zero stays 0.0
    exact = expectations(CubicCoeffs(2**1075, 0, -(2**1075), 1))
    assert all(isinstance(m, Fraction) and m != 0 for m in exact.as_tuple())
    assert expectations(CubicCoeffs(1.0, 0.0, -1.0, 0.0)).x2y == 0.0
