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
every stencil point lies on one grid of twelve floats.  That grid is built in
one pass over the four coefficients and cleared to integers by shifts, once
per stencil, and a positional evaluator, one grid index per coordinate, gives
a point's log F from one ``cubic_discriminant_int`` call: its sign is decided
exactly, and log F is the closed form's to the last bit.  The moment formulas
at the center are evaluated on the same integers and their own integer D.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .discriminant import DiscriminantResult, Sign
from .errors import DivergentIntegral, DomainError, StencilCrossesSingularity
from .polynomial import (
    CubicCoeffs,
    Number,
    _exact,
    _rounded,
    cubic_discriminant_int,
    integer_coefficients,
)
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


class IntegralResult(NamedTuple):
    value: float
    method: IntegralMethod
    discriminant: DiscriminantResult
    error_estimate: float = 0.0


class ExpectationSet(NamedTuple):
    """The four renormalized moments; exact Fractions for exact input."""

    x3: Union[Fraction, float]
    x2y: Union[Fraction, float]
    xy2: Union[Fraction, float]
    y3: Union[Fraction, float]

    def as_tuple(self) -> tuple:
        return (self.x3, self.x2y, self.xy2, self.y3)


def _checked_sign(d: int) -> Sign:
    """The sign of D, read from an integer of the same sign."""
    if d == 0:
        raise DivergentIntegral("D = 0: repeated real root makes the integral diverge")
    return Sign.POSITIVE if d > 0 else Sign.NEGATIVE


def _exact_cubic(coeffs: CubicCoeffs) -> tuple:
    """(ints, den, d, sign): ``polynomial._exact`` of the caller's
    coefficients, d = den^4 D, and D's sign, for every cubic route to read.
    a = b = 0 and D = 0 raise DivergentIntegral."""
    if coeffs.a == 0 and coeffs.b == 0:
        raise DivergentIntegral("a = b = 0: the integrand tail is not integrable")
    ints, den, d = _exact(coeffs)
    return ints, den, d, _checked_sign(d)


def _beta_constant(sign: Sign) -> float:
    """C+ for D > 0, C- for D < 0."""
    k = constants()
    return k.c_plus if sign is Sign.POSITIVE else k.c_minus


def _closed_form_parts(sign: Sign, num: int, den: int) -> tuple:
    """(C, ln|D| / 6) for F = C * exp(-ln|D| / 6), D = num / den in lowest
    terms; math.log takes big ints directly, so a huge |num| or den never
    overflows a float."""
    return _beta_constant(sign), (math.log(abs(num)) - math.log(den)) / 6.0


def log_closed_form(coeffs: CubicCoeffs) -> float:
    """log F(a, b, c, d); fully in log space for scale robustness."""
    _, den, d, sign = _exact_cubic(coeffs)
    den4 = den**4
    common = math.gcd(d, den4)
    c, log_root = _closed_form_parts(sign, d // common, den4 // common)
    return math.log(c) - log_root


def closed_form_integral(coeffs: CubicCoeffs) -> IntegralResult:
    """Evaluate F exactly from the discriminant sign and the Beta constants.

    The sixth root goes through exp(-ln|D|/6), with ln|D| taken on the exact
    rational D, so extreme coefficient scales neither overflow nor underflow
    on the way; a value F beyond the float range or below its normal
    floats, which log_closed_form still gives, raises DomainError.
    """
    _, den, d, sign = _exact_cubic(coeffs)
    disc = DiscriminantResult(Fraction(d, den**4), sign)
    c, log_root = _closed_form_parts(sign, disc.value.numerator, disc.value.denominator)
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
    """(ints, den, d): ``polynomial._exact`` of (a, b, c), ints = [A, B, C]
    over den and d = B^2 - 4AC; DomainError unless A > 0 and d < 0, exactly."""
    ints, den, d = _exact((a, b, c))
    if not (ints[0] > 0 and d < 0):
        raise DomainError(f"gaussian analogue requires a > 0 and b^2 - 4ac < 0, got {(a, b, c)}")
    return ints, den, d


def gaussian_analogue(a: Number, b: Number, c: Number) -> float:
    """The quadratic counterpart: integral of 1/(a*x^2 + b*x + c) = 2*pi/sqrt(-D2)
    for a > 0 and D2 = b^2 - 4ac < 0, as 2*pi*den / sqrt(N), N = -d, on the
    integers of ``_checked_gaussian``.  Both are split exactly into a power of
    two and a ratio near one, so nothing over- or underflows on the way; a
    value beyond the float range or below its normal floats raises DomainError."""
    _, den, d = _checked_gaussian(a, b, c)
    n = -d
    t, k = den.bit_length(), n.bit_length() // 2  # den / 2^t in [1/2, 1), N / 4^k in [1/2, 2)
    try:
        value = math.ldexp(2.0 * math.pi * (den / (1 << t)) / math.sqrt(n / (1 << 2 * k)), t - k)
    except OverflowError:
        value = math.inf
    if not _NORMAL_MIN <= value < math.inf:
        raise DomainError(f"gaussian analogue out of float range, got {(a, b, c)}")
    return value


def _moments(ints: list, den: int, d_int: int, exact: bool) -> ExpectationSet:
    """den * N_int / (6 * D_int) for the four moment numerators N_int, on the
    integers ``ints`` over ``den`` and their D_int = ``d_int``: Fractions if
    ``exact``, else floats rounded once from the exact ratio, each zero or
    a normal float."""
    a, b, c, d = ints
    six_d = 6 * d_int
    _checked_sign(six_d)
    # the expanded numerators, e.g. 18bcd - 4c^3 - 54ad^2, on two shared products
    bc, ad = b * c, a * d
    u, v = 9 * bc - 27 * ad, bc + 9 * ad
    numerators = (
        2 * d * u - 4 * c**3,
        2 * c * v - 12 * b * b * d,
        2 * b * v - 12 * a * c * c,
        2 * a * u - 4 * b**3,
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
    ints, den, d, _ = _exact_cubic(coeffs)
    return _moments(ints, den, d, coeffs.is_exact())


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
    way and refused unless h^2 is a normal float and base[i] +- h differs
    from base[i] for every coefficient i: residuals are normalized by the
    scale, so 2^k f gives the same ones, and stencils stay in float range.
    Every point moves each coordinate by 0, +h or -h, so the stencil is one
    grid of twelve floats, built in one pass over the coefficients: each
    v = base[i] gives v + h and v - h once, each checked to differ from v,
    and the three split into numerators over powers of two, cleared to
    integers by shifts: ``den`` is the largest denominator, and p / q is
    p << (bits - q.bit_length()) over it, as ``integer_coefficients`` would
    give; ``center`` holds the four at delta = 0.  ``log_f(i, j, k, l)``
    takes one grid index per coordinate, 0, +1 or -1, and makes one
    ``cubic_discriminant_int`` call on that point: it raises
    StencilCrossesSingularity if D_int is zero or its sign differs from the
    center's, decided on the caller's exact integers, and otherwise returns
    log C - ln(|D_int| / den^4) / 6.
    """
    exact, exact_den, _, center_sign = _exact_cubic(coeffs)
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
    # coordinate i moved by s * h is grid[3 * i + s] for s = 0, +1 and -1
    # (the last of its row, so a negative index reaches it)
    nums, qbits = [], []
    for i, v in enumerate(base):
        up, down = v + h, v - h
        if up == v or down == v:
            raise DomainError(
                f"step {step} is out of range at this scale: it leaves coefficient {i} unmoved"
            )
        for p, q in (v.as_integer_ratio(), up.as_integer_ratio(), down.as_integer_ratio()):
            nums.append(p)
            qbits.append(q.bit_length())
    bits = max(qbits)
    grid = [p << (bits - q) for p, q in zip(nums, qbits)]
    a_row, b_row, c_row, d_row = grid[0:3], grid[3:6], grid[6:9], grid[9:12]
    center = grid[::3]
    den, den4_bits = 1 << (bits - 1), 4 * (bits - 1)
    log_c = math.log(_beta_constant(center_sign))
    positive = center_sign is Sign.POSITIVE

    def log_f(i: int, j: int, k: int, l: int) -> float:
        d = cubic_discriminant_int(a_row[i], b_row[j], c_row[k], d_row[l])
        if d == 0 or (d > 0) != positive:
            point = [a_row[i], b_row[j], c_row[k], d_row[l]]
            raise StencilCrossesSingularity(
                f"stencil point {_in_caller_units(point, den, e)} has discriminant sign "
                f"{DiscriminantResult.from_value(d).sign.value}, center has {center_sign.value}"
            )
        # cancel the factors of two D_int shares with den^4, as Fraction(D_int,
        # den^4) would: log F is then the closed form's, to the last bit
        twos = (d & -d).bit_length() - 1
        if twos > den4_bits:
            twos = den4_bits
        return log_c - (math.log(abs(d >> twos)) - math.log(1 << (den4_bits - twos))) / 6.0

    return center, den, scale, h, log_f


# The verifiers' stencil points in visiting order, one grid index per
# coordinate (a, b, c, d): each coordinate moved by +h and by -h for the
# moments; for the identities the corners ++, +-, -+, -- of the mixed
# differences in (a, d) and (b, c), b's two ends, then (a, c), c's two ends, (b, d).
_MOMENT_POINTS = (((1, 0, 0, 0), (-1, 0, 0, 0)), ((0, 1, 0, 0), (0, -1, 0, 0)),
                  ((0, 0, 1, 0), (0, 0, -1, 0)), ((0, 0, 0, 1), (0, 0, 0, -1)))
_IDENTITY_POINTS = (
    (1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, 1), (-1, 0, 0, -1),
    (0, 1, 1, 0), (0, 1, -1, 0), (0, -1, 1, 0), (0, -1, -1, 0), (0, 1, 0, 0), (0, -1, 0, 0),
    (1, 0, 1, 0), (1, 0, -1, 0), (-1, 0, 1, 0), (-1, 0, -1, 0), (0, 0, 1, 0), (0, 0, -1, 0),
    (0, 1, 0, 1), (0, 1, 0, -1), (0, -1, 0, 1), (0, -1, 0, -1),
)


def expectations_fd_check(coeffs: CubicCoeffs, step: Optional[float] = None) -> tuple:
    """Residuals of the moment formulas against central differences of -log F.

    Each residual is |fd - formula| / max(|formula|, 1e-3/scale); the floor
    keeps symmetry-forced zero moments from dividing by zero.  Default step
    is 1e-4 * max|coefficient|.  The formulas are evaluated on the stencil's
    center integers, after every stencil point: a stencil that crosses the
    singularity raises StencilCrossesSingularity, as the identity check does,
    before a center moment beyond the float range raises DomainError.
    """
    center, den, scale, h, log_f = _unit_stencil(coeffs, step)
    two_h = 2.0 * h
    fds = [-(log_f(*up) - log_f(*down)) / two_h for up, down in _MOMENT_POINTS]
    moments = _moments(center, den, cubic_discriminant_int(*center), False)
    floor = _FD_DENOM_FLOOR / scale
    return tuple([abs(fd - m) / max(abs(m), floor) for fd, m in zip(fds, moments)])


def pde_identity_residuals(coeffs: CubicCoeffs, step: Optional[float] = None) -> tuple:
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
    log_f0 = log_f(0, 0, 0, 0)
    exp = math.exp
    f = [exp(log_f(i, j, k, l) - log_f0) for i, j, k, l in _IDENTITY_POINTS]
    # f[n : n + 4] are the corners of a mixed difference, f[n : n + 2] the ends of a second one
    ad, bc, ac, bd = [
        (f[n] - f[n + 1] - f[n + 2] + f[n + 3]) / (4.0 * h * h) for n in (0, 4, 10, 16)
    ]
    bb, cc = [(f[n] - 2.0 + f[n + 1]) / (h * h) for n in (8, 14)]
    norm = scale * scale
    residuals = (abs(ad - bc) * norm, abs(bb - ac) * norm, abs(cc - bd) * norm)
    if not all(r < math.inf for r in residuals):  # nan fails too
        raise DomainError(f"step {step} is out of range at this scale: a difference overflows")
    return residuals
