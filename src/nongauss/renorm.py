"""Closed forms for the renormalized cubic integral and its derived quantities.

The central object is

    F(a, b, c, d) = integral over R of ((a*x^3 + b*x^2 + c*x + d)^2)^(-1/3) dx

which evaluates to c_plus / D**(1/6) when the cubic discriminant D is
positive and c_minus / (-D)**(1/6) when it is negative.  D = 0 means a
repeated real root and a divergent integral, as does a = b = 0 (the tail
|c*x + d|^(-2/3) is not integrable even though the D expression is finite).

The four renormalized moments are minus the log-derivatives of F with
respect to the coefficients; they reduce to rational expressions in
(a, b, c, d, D) and are verified here against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .discriminant import DiscriminantResult, Sign, discriminant_cubic_explicit
from .errors import DivergentIntegral, DomainError, StencilCrossesSingularity
from .polynomial import (
    CubicCoeffs,
    Number,
    binary_exponent,
    cubic_discriminant_int,
    integer_coefficients,
)
from .special import constants

_FD_EXPECTATION_STEP = 1e-4
_FD_IDENTITY_STEP = 1e-3
# Floor for the relative-residual denominator when a moment vanishes by
# symmetry; moments carry dimension 1/coefficient, hence the 1/scale factor.
_FD_DENOM_FLOOR = 1e-3


class IntegralMethod(Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class IntegralResult:
    value: float
    method: IntegralMethod
    discriminant: DiscriminantResult
    error_estimate: float = 0.0


@dataclass(frozen=True)
class ExpectationSet:
    """The four renormalized moments; exact Fractions for exact input."""

    x3: Union[Fraction, float]
    x2y: Union[Fraction, float]
    xy2: Union[Fraction, float]
    y3: Union[Fraction, float]

    def as_tuple(self) -> tuple:
        return (self.x3, self.x2y, self.xy2, self.y3)


def _ln_abs_fraction(value: Fraction) -> float:
    # math.log takes big ints directly, so huge |D| never overflows a float
    return math.log(abs(value.numerator)) - math.log(value.denominator)


def _checked_discriminant(coeffs: CubicCoeffs) -> DiscriminantResult:
    if coeffs.a == 0 and coeffs.b == 0:
        raise DivergentIntegral("a = b = 0: the integrand tail is not integrable")
    disc = discriminant_cubic_explicit(coeffs)
    if disc.sign is Sign.ZERO:
        raise DivergentIntegral("D = 0: repeated real root makes the integral diverge")
    return disc


def _closed_form_parts(coeffs: CubicCoeffs) -> tuple:
    """(D, C+ or C- by the sign of D, ln|D| / 6) for F = C * exp(-ln|D| / 6)."""
    disc = _checked_discriminant(coeffs)
    k = constants()
    c = k.c_plus if disc.sign is Sign.POSITIVE else k.c_minus
    return disc, c, _ln_abs_fraction(disc.value) / 6.0


def log_closed_form(coeffs: CubicCoeffs) -> float:
    """log F(a, b, c, d); fully in log space for scale robustness."""
    _, c, log_root = _closed_form_parts(coeffs)
    return math.log(c) - log_root


def closed_form_integral(coeffs: CubicCoeffs) -> IntegralResult:
    """Evaluate F exactly from the discriminant sign and the Beta constants.

    The sixth root goes through exp(-ln|D|/6), with ln|D| taken on the exact
    rational D, so extreme coefficient scales neither overflow nor underflow.
    """
    disc, c, log_root = _closed_form_parts(coeffs)
    return IntegralResult(c * math.exp(-log_root), IntegralMethod.CLOSED_FORM, disc, 0.0)


def gaussian_analogue(a: Number, b: Number, c: Number) -> float:
    """The quadratic counterpart: integral of 1/(a*x^2 + b*x + c) = 2*pi/sqrt(-D2)
    for a > 0 and D2 = b^2 - 4ac < 0.

    The coefficients are scaled by a power of two 2^-e to unit size first, so
    D2 neither overflows nor underflows; the value then scales back by 2^-e.
    """
    values = (float(a), float(b), float(c))
    if not (all(math.isfinite(v) for v in values) and values[0] > 0.0):
        raise DomainError(f"gaussian analogue requires finite a, b, c and a > 0, got {values}")
    e = binary_exponent(values)
    af, bf, cf = (math.ldexp(v, -e) for v in values)
    d2 = bf * bf - 4.0 * af * cf
    if d2 >= 0.0:
        raise DomainError(f"gaussian analogue requires b^2 - 4ac < 0, got {values}")
    return math.ldexp(2.0 * math.pi / math.sqrt(-d2), -e)


def expectations(coeffs: CubicCoeffs) -> ExpectationSet:
    """The four renormalized moments as rational expressions over 6*D.

    Over one common denominator den, each moment is den * N_int / (6 * D_int).
    Exact inputs stay exact; any float coefficient switches the whole set to
    floating point, rounded once from the exact ratio.
    """
    (a, b, c, d), den = integer_coefficients(coeffs.as_tuple())
    six_d = 6 * cubic_discriminant_int(a, b, c, d)
    if six_d == 0:
        raise DivergentIntegral("moments are undefined at D = 0")
    numerators = (
        18 * b * c * d - 4 * c**3 - 54 * a * d * d,
        2 * b * c * c + 18 * a * c * d - 12 * b * b * d,
        2 * b * b * c + 18 * a * b * d - 12 * a * c * c,
        18 * a * b * c - 4 * b**3 - 54 * a * a * d,
    )
    if coeffs.is_exact():
        return ExpectationSet(*[Fraction(den * n, six_d) for n in numerators])
    try:
        # int / int true division rounds the exact quotient once, like float(Fraction)
        return ExpectationSet(*[den * n / six_d for n in numerators])
    except OverflowError:
        raise DomainError(
            "a moment exceeds the float range; exact (integer or p/q) input keeps it exact"
        ) from None


def _unit_stencil(coeffs: CubicCoeffs, default_step: float, step) -> tuple:
    """(base, scale, h, log_f) for the finite-difference verifiers.

    ``base`` is the coefficients divided by 2^e, the power of two just below
    their largest magnitude, ``scale`` the largest |base|, ``h`` the step in
    those units: residuals are normalized by the scale, so none changes, and
    stencils stay in float range.  ``log_f({index: delta})`` is log F at the
    moved point; it raises if that point's D sign differs from the center's.
    """
    center = _checked_discriminant(coeffs).sign
    values = [float(v) for v in coeffs.as_tuple()]
    e = binary_exponent(values)
    base = tuple(math.ldexp(v, -e) for v in values)
    scale = max(abs(v) for v in base)
    h = default_step * scale if step is None else math.ldexp(float(step), -e)
    if not 0.0 < h * h < math.inf:
        raise DomainError(f"step {step} is zero, non-finite or out of range at this scale")

    def log_f(deltas: dict) -> float:
        moved = list(base)
        for index, delta in deltas.items():
            moved[index] += delta
        point = CubicCoeffs(*moved)
        disc = discriminant_cubic_explicit(point)
        if disc.sign is not center:
            raise StencilCrossesSingularity(
                f"stencil point {point.as_tuple()} has discriminant sign "
                f"{disc.sign.value}, center has {center.value}"
            )
        return log_closed_form(point)

    return base, scale, h, log_f


def expectations_fd_check(
    coeffs: CubicCoeffs, step: Optional[float] = None
) -> tuple:
    """Residuals of the moment formulas against central differences of -log F.

    Each residual is |fd - formula| / max(|formula|, 1e-3/scale); the floor
    keeps symmetry-forced zero moments from dividing by zero.  Default step
    is 1e-4 * max|coefficient|.
    """
    base, scale, h, log_f = _unit_stencil(coeffs, _FD_EXPECTATION_STEP, step)
    residuals = []
    for i, formula_value in enumerate(expectations(CubicCoeffs(*base)).as_tuple()):
        fd = -(log_f({i: +h}) - log_f({i: -h})) / (2.0 * h)
        denom = max(abs(float(formula_value)), _FD_DENOM_FLOOR / scale)
        residuals.append(abs(fd - float(formula_value)) / denom)
    return tuple(residuals)


def pde_identity_residuals(
    coeffs: CubicCoeffs, step: Optional[float] = None
) -> tuple:
    """Second-difference residuals of the three coefficient identities

        (d/da d/dd - d/db d/dc) F = 0
        (d/db d/db - d/da d/dc) F = 0
        (d/dc d/dc - d/db d/dd) F = 0

    using second-order central stencils at step 1e-3 * max|coefficient| by
    default, each normalized by |F| / scale^2.
    """
    _, scale, h, log_f = _unit_stencil(coeffs, _FD_IDENTITY_STEP, step)

    def value_at(deltas: dict) -> float:
        return math.exp(log_f(deltas))

    f0 = value_at({})

    def mixed(i: int, j: int) -> float:
        return (
            value_at({i: +h, j: +h})
            - value_at({i: +h, j: -h})
            - value_at({i: -h, j: +h})
            + value_at({i: -h, j: -h})
        ) / (4.0 * h * h)

    def second(i: int) -> float:
        return (value_at({i: +h}) - 2.0 * f0 + value_at({i: -h})) / (h * h)

    norm = scale * scale / abs(f0)
    return (
        abs(mixed(0, 3) - mixed(1, 2)) * norm,
        abs(second(1) - mixed(0, 2)) * norm,
        abs(second(2) - mixed(1, 3)) * norm,
    )
