"""Closed forms for the renormalized cubic integral and its derived quantities.

The central object is

    F(a, b, c, d) = integral over R of ((a*x^3 + b*x^2 + c*x + d)^2)^(-1/3) dx

which evaluates to c_plus / D**(1/6) when the cubic discriminant D is
positive and c_minus / (-D)**(1/6) when it is negative.  D = 0 means a
repeated real root and a divergent integral, as does a = b = 0 (the tail
|c*x + d|^(-2/3) is not integrable even though the D expression is finite).

F is also the paper's two-dimensional integral.  For a binary form f(x, y)
of degree n, with F = integral over R of |f(x, 1)|^(-2/n) dx,

    integral over R^2 of exp(-|f(x, y)|) dx dy = (2/n) * Gamma(2/n) * F

by polar coordinates: the radial integral is Gamma(2/n) / (n |f(cos t,
sin t)|^(2/n)), and x = cot t turns the angle over [0, pi), which [0, 2 pi)
covers twice, into F.  At n = 2 this is the Gaussian 2 pi / sqrt(4ac - b^2)
of ``gaussian_analogue``; at n = 3 it is (2/3) Gamma(2/3) C+- / |D|^(1/6),
the real-category form of Morozov and Shakirov's 1 / (-D)^(1/6).

The four renormalized moments are minus the log-derivatives of F with
respect to the coefficients; they reduce to rational expressions in
(a, b, c, d, D) and are verified here against central finite differences.

The finite-difference verifiers round the coefficients once, over a power of
two, from their exact integers (``polynomial._rounded``, as the chart does),
so 2^k f gives the same stencil at every k, and move each one by 0, +h or -h:
every stencil point lies on one grid of twelve floats.  That grid is cleared
to integers over one power-of-two denominator once per stencil; a point's D
is then the five-term expansion on four looked-up integers, its sign is
decided exactly, and its log F is the closed form's to the last bit.  The
moment formulas at the center are evaluated on the same integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .discriminant import DiscriminantResult, Sign, discriminant_cubic_explicit
from .errors import DivergentIntegral, DomainError, StencilCrossesSingularity
from .polynomial import CubicCoeffs, Number, _rounded, cubic_discriminant_int, integer_coefficients
from .special import constants

_FD_STEP = 1e-4  # both verifiers' default step, in units of max|coefficient|
# Floor for the relative-residual denominator when a moment vanishes by
# symmetry; moments carry dimension 1/coefficient, hence the 1/scale factor.
_FD_DENOM_FLOOR = 1e-3
# The least normal float: a result below it has lost bits, so no route
# returns one as a value (error estimates and FD residuals may be smaller).
_NORMAL_MIN = 2.0**-1022


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


def _ln_abs(num: int, den: int) -> float:
    """ln(|num| / den) for integers num != 0 and den > 0; math.log takes big
    ints directly, so a huge |num| or den never overflows a float."""
    return math.log(abs(num)) - math.log(den)


def _tail_checked(coeffs: CubicCoeffs) -> CubicCoeffs:
    if coeffs.a == 0 and coeffs.b == 0:
        raise DivergentIntegral("a = b = 0: the integrand tail is not integrable")
    return coeffs


def _checked_sign(d: int) -> Sign:
    """The sign of D, read from an integer of the same sign."""
    if d == 0:
        raise DivergentIntegral("D = 0: repeated real root makes the integral diverge")
    return Sign.POSITIVE if d > 0 else Sign.NEGATIVE


def _checked_discriminant(coeffs: CubicCoeffs) -> DiscriminantResult:
    disc = discriminant_cubic_explicit(_tail_checked(coeffs))
    _checked_sign(disc.value.numerator)
    return disc


def _beta_constant(sign: Sign) -> float:
    """C+ for D > 0, C- for D < 0."""
    k = constants()
    return k.c_plus if sign is Sign.POSITIVE else k.c_minus


def _closed_form_parts(disc: DiscriminantResult) -> tuple:
    """(C+ or C- by the sign of the nonzero D, ln|D| / 6) for F = C * exp(-ln|D| / 6)."""
    d = disc.value
    return _beta_constant(disc.sign), _ln_abs(d.numerator, d.denominator) / 6.0


def log_closed_form(coeffs: CubicCoeffs) -> float:
    """log F(a, b, c, d); fully in log space for scale robustness."""
    c, log_root = _closed_form_parts(_checked_discriminant(coeffs))
    return math.log(c) - log_root


def closed_form_integral(coeffs: CubicCoeffs) -> IntegralResult:
    """Evaluate F exactly from the discriminant sign and the Beta constants.

    The sixth root goes through exp(-ln|D|/6), with ln|D| taken on the exact
    rational D, so extreme coefficient scales neither overflow nor underflow
    on the way; a value F beyond the float range or below its normal
    floats, which log_closed_form still gives, raises DomainError.
    """
    disc = _checked_discriminant(coeffs)
    c, log_root = _closed_form_parts(disc)
    try:
        value = c * math.exp(-log_root)
    except OverflowError:
        value = math.inf
    if not _NORMAL_MIN <= value < math.inf:
        raise DomainError(
            f"value out of float range: ln F = {math.log(c) - log_root:.6g} (log_closed_form)"
        )
    return IntegralResult(value, IntegralMethod.CLOSED_FORM, disc, 0.0)


def _checked_gaussian(a: Number, b: Number, c: Number) -> tuple:
    """(den, N) with N = 4AC - B^2 for A, B, C = den * (a, b, c), the integers
    of ``integer_coefficients``; DomainError unless A > 0 and N > 0, exactly."""
    (big_a, big_b, big_c), den = integer_coefficients((a, b, c))
    n = 4 * big_a * big_c - big_b * big_b
    if not (big_a > 0 and n > 0):
        raise DomainError(f"gaussian analogue requires a > 0 and b^2 - 4ac < 0, got {(a, b, c)}")
    return den, n


def gaussian_analogue(a: Number, b: Number, c: Number) -> float:
    """The quadratic counterpart: integral of 1/(a*x^2 + b*x + c) = 2*pi/sqrt(-D2)
    for a > 0 and D2 = b^2 - 4ac < 0, as 2*pi*den / sqrt(N) on the integers of
    ``_checked_gaussian``.  Both are split exactly into a power of two and a
    ratio near one, so nothing over- or underflows on the way; a value beyond
    the float range or below its normal floats raises DomainError."""
    den, n = _checked_gaussian(a, b, c)
    t, k = den.bit_length(), n.bit_length() // 2  # den / 2^t in [1/2, 1), N / 4^k in [1/2, 2)
    try:
        value = math.ldexp(2.0 * math.pi * (den / (1 << t)) / math.sqrt(n / (1 << 2 * k)), t - k)
    except OverflowError:
        value = math.inf
    if not _NORMAL_MIN <= value < math.inf:
        raise DomainError(f"gaussian analogue out of float range, got {(a, b, c)}")
    return value


def _moments(ints: list, den: int, exact: bool) -> ExpectationSet:
    """den * N_int / (6 * D_int) for the four moment numerators N_int, on the
    integers ``ints`` and ``den`` of ``integer_coefficients``: Fractions if
    ``exact``, else floats rounded once from the exact ratio, each zero or
    a normal float."""
    a, b, c, d = ints
    six_d = 6 * cubic_discriminant_int(a, b, c, d)
    _checked_sign(six_d)
    numerators = (
        18 * b * c * d - 4 * c**3 - 54 * a * d * d,
        2 * b * c * c + 18 * a * c * d - 12 * b * b * d,
        2 * b * b * c + 18 * a * b * d - 12 * a * c * c,
        18 * a * b * c - 4 * b**3 - 54 * a * a * d,
    )
    if exact:
        return ExpectationSet(*[Fraction(den * n, six_d) for n in numerators])
    try:
        # int / int true division rounds the exact quotient once, like float(Fraction)
        moments = [den * n / six_d for n in numerators]
        lost = any(n and abs(m) < _NORMAL_MIN for n, m in zip(numerators, moments))
    except OverflowError:  # a quotient beyond the float range
        lost = True
    if lost:
        raise DomainError(
            "a moment lies beyond the float range or below its normal floats; "
            "exact (integer or p/q) input keeps it exact"
        )
    return ExpectationSet(*moments)


def expectations(coeffs: CubicCoeffs) -> ExpectationSet:
    """The four renormalized moments as rational expressions over 6*D.

    Over one common denominator den, each moment is den * N_int / (6 * D_int).
    Exact inputs stay exact; any float coefficient switches the whole set to
    floating point, rounded once from the exact ratio.  a = b = 0 and D = 0
    raise DivergentIntegral with the messages of ``closed_form_integral``.
    """
    ints, den = integer_coefficients(_tail_checked(coeffs).as_tuple())
    return _moments(ints, den, coeffs.is_exact())


def _in_caller_units(point: list, den: int, e: int) -> str:
    """The stencil point ``point / den`` times 2^e, the caller's coefficients,
    as a tuple; "(...) × 2^e" in stencil units where a coordinate would
    overflow or lose bits on the way back."""
    internal = tuple(n / den for n in point)  # exact: each is a float
    try:
        caller = tuple(math.ldexp(v, e) for v in internal)
    except OverflowError:
        caller = None
    if caller is None or any(math.ldexp(v, -e) != w for v, w in zip(caller, internal)):
        return f"{internal} × 2^{e}"
    return str(caller)


def _unit_stencil(coeffs: CubicCoeffs, step) -> tuple:
    """(center, den, scale, h, log_f) for the finite-difference verifiers.

    The stencil works on the coefficients over 2^e, the power of two just
    below their largest magnitude, each rounded once from their exact
    integers by ``_rounded``, as the chart is; ``scale`` is the largest of
    them in magnitude and ``h`` the step in those units, rounded the same
    way and refused unless h^2 is a normal float: residuals are normalized
    by the scale, so 2^k f gives the same ones, and stencils stay in float
    range.  Every stencil point moves each coordinate by 0, +h or -h, so
    the twelve floats ``base[i] + delta`` are cleared to integers over one
    power-of-two ``den`` once, by one ``integer_coefficients`` call;
    ``center`` holds the four at delta = 0.  ``log_f({index: sign})``, each
    sign +1 or -1, looks up the moved point's integers and evaluates D_int
    on them: it raises StencilCrossesSingularity if D_int is zero or its
    sign differs from the center's, and otherwise returns
    log C - ln(|D_int| / den^4) / 6.  The center's sign is decided on the
    exact integers the stencil is rounded from.
    """
    exact, exact_den = integer_coefficients(_tail_checked(coeffs).as_tuple())
    center_sign = _checked_sign(cubic_discriminant_int(*exact))
    e, base = _rounded(exact, exact_den, (0, 0, 0, 0))
    scale = max(abs(v) for v in base)
    if step is None:
        h = _FD_STEP * scale
    else:
        try:
            h = _rounded(*integer_coefficients((step,)), (0,), e)[1][0]
        except DomainError:  # a step that is not finite, or beyond the float range here
            h = math.inf
    if not _NORMAL_MIN <= h * h < math.inf:
        raise DomainError(f"step {step} is zero, non-finite or out of range at this scale")
    ints, den = integer_coefficients([v + delta for v in base for delta in (0.0, h, -h)])
    # grid[i][s]: coordinate i moved by s * h, for s = 0, +1 and -1 (the last
    # entry, so a negative index reaches it)
    grid = [ints[3 * i : 3 * i + 3] for i in range(4)]
    center = [row[0] for row in grid]
    den4_bits = 4 * (den.bit_length() - 1)  # the grid is floats: den is a power of two
    log_c = math.log(_beta_constant(center_sign))
    positive = center_sign is Sign.POSITIVE

    def log_f(moves: dict) -> float:
        point = center.copy()
        for index, sign in moves.items():
            point[index] = grid[index][sign]
        d = cubic_discriminant_int(*point)
        if d == 0 or (d > 0) != positive:
            raise StencilCrossesSingularity(
                f"stencil point {_in_caller_units(point, den, e)} has discriminant sign "
                f"{DiscriminantResult.from_value(d).sign.value}, center has {center_sign.value}"
            )
        # cancel the factors of two D_int shares with den^4, as Fraction(D_int,
        # den^4) would: log F is then the closed form's, to the last bit
        twos = min((d & -d).bit_length() - 1, den4_bits)
        return log_c - _ln_abs(d >> twos, 1 << (den4_bits - twos)) / 6.0

    return center, den, scale, h, log_f


def expectations_fd_check(
    coeffs: CubicCoeffs, step: Optional[float] = None
) -> tuple:
    """Residuals of the moment formulas against central differences of -log F.

    Each residual is |fd - formula| / max(|formula|, 1e-3/scale); the floor
    keeps symmetry-forced zero moments from dividing by zero.  Default step
    is 1e-4 * max|coefficient|.  The formulas are evaluated on the stencil's
    center integers, after every stencil point: a stencil that crosses the
    singularity raises StencilCrossesSingularity, as the identity check does,
    before a center moment beyond the float range raises DomainError.
    """
    center, den, scale, h, log_f = _unit_stencil(coeffs, step)
    fds = [-(log_f({i: +1}) - log_f({i: -1})) / (2.0 * h) for i in range(4)]
    residuals = []
    for fd, formula_value in zip(fds, _moments(center, den, False).as_tuple()):
        denom = max(abs(formula_value), _FD_DENOM_FLOOR / scale)
        residuals.append(abs(fd - formula_value) / denom)
    return tuple(residuals)


def pde_identity_residuals(
    coeffs: CubicCoeffs, step: Optional[float] = None
) -> tuple:
    """Second-difference residuals of the three coefficient identities

        (d/da d/dd - d/db d/dc) F = 0
        (d/db d/db - d/da d/dc) F = 0
        (d/dc d/dc - d/db d/dd) F = 0

    using second-order central stencils at step 1e-4 * max|coefficient| by
    default, about eps^(1/4), where truncation (h^2) and rounding (eps / h^2)
    balance; each is normalized by scale^2.  The identities are linear in F,
    so the stencils difference F / F0 = exp(log F - log F0), F0 at the center.
    """
    *_, scale, h, log_f = _unit_stencil(coeffs, step)
    log_f0 = log_f({})

    def ratio(moves: dict) -> float:
        return math.exp(log_f(moves) - log_f0)

    def mixed(i: int, j: int) -> float:
        corners = ratio({i: +1, j: +1}) - ratio({i: +1, j: -1}) - ratio({i: -1, j: +1})
        return (corners + ratio({i: -1, j: -1})) / (4.0 * h * h)

    def second(i: int) -> float:
        return (ratio({i: +1}) - 2.0 + ratio({i: -1})) / (h * h)

    norm = scale * scale
    residuals = (
        abs(mixed(0, 3) - mixed(1, 2)) * norm,
        abs(second(1) - mixed(0, 2)) * norm,
        abs(second(2) - mixed(1, 3)) * norm,
    )
    if not all(r < math.inf for r in residuals):  # nan fails too
        raise DomainError(f"step {step} is out of range at this scale: a difference overflows")
    return residuals
