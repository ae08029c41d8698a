"""Dense polynomials, cubic coefficient quadruples, and real cubic roots.

Coefficients are stored leading-first: ``(a0, a1, ..., an)`` represents
``a0*x**n + a1*x**(n-1) + ... + an``.  Every object supports dual arithmetic:
it is *exact* when all coefficients are ``int``/``Fraction`` and floating
otherwise, chosen per call site rather than globally.  All operations are
pure functions of immutable values and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DegenerateLeadingCoefficient, DomainError, NotARoot

Number = Union[int, Fraction, float]

_ROOT_RESIDUAL_FACTOR = 1e-10


def is_exact_number(value: Number) -> bool:
    """True for values that participate in exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def integer_coefficients(values: Sequence[Number]) -> tuple:
    """Exact integers ``ints`` and one positive ``den`` with v == ints[i] / den.

    This is the only place denominators are cleared.  Floats convert
    losslessly through ``as_integer_ratio``, so all-float input gives a
    power-of-two ``den``; a NaN or infinity raises DomainError.
    """
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"coefficients must be finite: {exc}") from None
    # a list: star-unpacking a generator leaves cyclic garbage on CPython 3.11
    den = math.lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios], den


def binary_exponent(values: Sequence[float]) -> int:
    """The e with 2**e <= max|v| < 2**(e+1): scaling every value by 2**-e puts
    the largest magnitude in [1, 2), changes no mantissa, and leaves input of
    that scale exactly as it was."""
    return math.frexp(max(abs(v) for v in values))[1] - 1


def horner(coeffs: Sequence[Number], x: Number) -> Number:
    """Nested evaluation at ``x``; exact when ``coeffs`` and ``x`` are exact."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def derivative_coeffs(coeffs: Sequence[Number]) -> list:
    """Power-rule derivative of leading-first ``coeffs``."""
    n = len(coeffs) - 1
    return [(n - i) * c for i, c in enumerate(coeffs[:-1])]


def magnitude_at(coeffs: Sequence[Number], x: Number) -> float:
    """Sum of |coeff| * |x|**power; magnitude reference for residual tests."""
    acc = 0.0
    ax = abs(float(x))
    for c in coeffs:
        acc = acc * ax + abs(float(c))
    return acc


def _cbrt(x: float) -> float:
    if hasattr(math, "cbrt"):
        return math.cbrt(x)
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


class Polynomial:
    """Immutable dense polynomial with leading-first coefficients."""

    __slots__ = ("coeffs", "exact")

    coeffs: tuple
    exact: bool

    def __init__(self, coefficients: Iterable[Number]):
        cs = list(coefficients)
        if not cs:
            cs = [0]
        exact = all(is_exact_number(c) for c in cs)
        if not exact:
            cs = [float(c) for c in cs]
        while len(cs) > 1 and cs[0] == 0:
            cs.pop(0)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,) or self.coeffs == (0.0,)

    def __call__(self, x: Number) -> Number:
        """Evaluate at ``x`` by nested (Horner) multiplication."""
        return horner(self.coeffs, x)

    def derivative(self) -> "Polynomial":
        """Coefficient-wise power-rule derivative; a constant's is zero."""
        return Polynomial(derivative_coeffs(self.coeffs) or [0 if self.exact else 0.0])

    def taylor_shift(self, t: Number) -> "Polynomial":
        """Return q with q(y) = p(y + t), by repeated synthetic division.

        Exact when both the polynomial and ``t`` are exact.
        """
        cs = list(self.coeffs)
        if not is_exact_number(t) or not self.exact:
            cs = [float(c) for c in cs]
            t = float(t)
        n = len(cs) - 1
        for i in range(n):
            for j in range(1, n + 1 - i):
                cs[j] = cs[j] + t * cs[j - 1]
        return Polynomial(cs)

    def reverse(self) -> "Polynomial":
        """Reciprocal polynomial x**n * p(1/x): the coefficient list reversed."""
        return Polynomial(tuple(reversed(self.coeffs)))

    def scale_bound(self, x: Number) -> float:
        """Sum of |coeff| * |x|**power; magnitude reference for residual tests."""
        return magnitude_at(self.coeffs, x)

    @classmethod
    def from_roots(cls, roots: Sequence[Number], leading: Number = 1) -> "Polynomial":
        cs: list = [leading]
        for r in roots:
            nxt = [cs[0]]
            for i in range(1, len(cs)):
                nxt.append(cs[i] - r * cs[i - 1])
            nxt.append(-r * cs[-1])
            cs = nxt
        return cls(cs)

    def coefficient_strings(self) -> list:
        """Serialized form: list of coefficient strings, leading-first."""
        if self.exact:
            return [str(Fraction(c)) for c in self.coeffs]
        return [repr(float(c)) for c in self.coeffs]

    @classmethod
    def from_coefficient_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls([parse_number(s) for s in items])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs and self.exact == other.exact

    def __hash__(self) -> int:
        return hash((self.coeffs, self.exact))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def parse_number(text: str) -> Number:
    """Parse a coefficient string: 'p/q' or integer literals stay exact,
    decimal/scientific literals become floats."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    try:
        return int(s)
    except ValueError:
        return float(s)


@dataclass(frozen=True)
class CubicCoeffs:
    """The quadruple (a, b, c, d) of a*x**3 + b*x**2 + c*x + d."""

    a: Number
    b: Number
    c: Number
    d: Number

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_exact(self) -> bool:
        return all(is_exact_number(v) for v in self.as_tuple())

    def scale(self) -> float:
        return max(abs(float(v)) for v in self.as_tuple())

    def reversed(self) -> "CubicCoeffs":
        return CubicCoeffs(self.d, self.c, self.b, self.a)

    def negated(self) -> "CubicCoeffs":
        return CubicCoeffs(-self.a, -self.b, -self.c, -self.d)

    def as_polynomial(self) -> Polynomial:
        """Drop leading zeros, so a = 0 inputs come out as true quadratics."""
        return Polynomial(self.as_tuple())


@dataclass(frozen=True)
class CubicFactorization:
    """Data of the split f = (x - alpha) * (a*x**2 + k*x + l)."""

    alpha: Number
    k: Number
    l: Number


class RootClassification(Enum):
    THREE_DISTINCT_REAL = "ThreeDistinctReal"
    ONE_REAL_ONE_COMPLEX_PAIR = "OneRealOneComplexPair"
    REPEATED_ROOT = "RepeatedRoot"


@dataclass(frozen=True)
class RootSet:
    """Real roots with multiplicities, plus the discriminant-sign class."""

    roots: tuple
    classification: RootClassification

    def values(self) -> tuple:
        return tuple(r for r, _ in self.roots)


def cubic_discriminant_int(a: int, b: int, c: int, d: int) -> int:
    """Five-term expansion b^2c^2 + 18abcd - 4ac^3 - 4b^3d - 27a^2d^2 on the
    integers of ``integer_coefficients``; homogeneous of degree 4."""
    return (
        b * b * c * c
        + 18 * a * b * c * d
        - 4 * a * c**3
        - 4 * b**3 * d
        - 27 * a * a * d * d
    )


def cubic_discriminant_exact(a: Number, b: Number, c: Number, d: Number) -> Fraction:
    """Five-term cubic discriminant, exactly: D_int / den^4 in integers.

    Floats convert exactly (they are dyadic rationals), so the sign is always
    decided without rounding.
    """
    ints, den = integer_coefficients((a, b, c, d))
    return Fraction(cubic_discriminant_int(*ints), den**4)


def _polish_root(cs: tuple, x: float) -> float:
    """A few guarded Newton steps on the original cubic."""
    deriv = derivative_coeffs(cs)
    best, best_abs = x, abs(horner(cs, x))
    for _ in range(3):
        fp = horner(deriv, x)
        if fp == 0.0 or not math.isfinite(fp):
            break
        step = horner(cs, x) / fp
        x -= step
        fabs = abs(horner(cs, x))
        if fabs < best_abs:
            best, best_abs = x, fabs
        if step == 0.0:
            break
    return best


def cubic_roots(coeffs: CubicCoeffs) -> RootSet:
    """All real roots of a true cubic (a != 0).

    Closed forms locate the roots (trigonometric when all three are real,
    Cardano otherwise) and Newton polishing restores full precision on the
    simple ones.  The classification follows the exact discriminant sign.
    """
    if coeffs.a == 0:
        raise DegenerateLeadingCoefficient(
            "cubic_roots requires a != 0; use the quadratic path for a = 0"
        )
    disc = cubic_discriminant_exact(*coeffs.as_tuple())
    cs = tuple(float(v) for v in coeffs.as_tuple())
    a, b, c, d = cs

    big_b = b / a
    big_c = c / a
    big_d = d / a
    p = big_c - big_b * big_b / 3.0
    q = 2.0 * big_b**3 / 27.0 - big_b * big_c / 3.0 + big_d
    shift = -big_b / 3.0

    if disc > 0:
        # three distinct real roots force p < 0; rounding can still push the
        # float p to 0 in the triple-root corner, where all roots collapse
        # onto the inflection point
        if p >= 0.0:
            raw = [shift, shift, shift]
        else:
            m = 2.0 * math.sqrt(-p / 3.0)
            arg = max(-1.0, min(1.0, 3.0 * q / (p * m)))
            theta = math.acos(arg)
            raw = [m * math.cos(theta / 3.0 - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
        polished = sorted(_polish_root(cs, x) for x in raw)
        return RootSet(tuple((x, 1) for x in polished), RootClassification.THREE_DISTINCT_REAL)

    if disc < 0:
        if p == 0.0:
            t = _cbrt(-q)
        else:
            s = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
            u = -q / 2.0 - s if q >= 0.0 else -q / 2.0 + s
            u = _cbrt(u)
            t = u - p / (3.0 * u) if u != 0.0 else 0.0
        x = _polish_root(cs, t + shift)
        return RootSet(((x, 1),), RootClassification.ONE_REAL_ONE_COMPLEX_PAIR)

    # D = 0: triple root exactly when b^2 = 3ac; otherwise the double root is
    # rational in the coefficients, so compute it without rounding
    at, bt, ct, dt = (Fraction(v) for v in coeffs.as_tuple())
    if bt * bt == 3 * at * ct:
        return RootSet(((shift, 3),), RootClassification.REPEATED_ROOT)
    shift_ex = -bt / (3 * at)
    p_ex = ct / at - (bt / at) ** 2 / 3
    q_ex = 2 * (bt / at) ** 3 / 27 - (bt / at) * (ct / at) / 3 + dt / at
    double = float(-3 * q_ex / (2 * p_ex) + shift_ex)
    simple = _polish_root(cs, float(3 * q_ex / p_ex + shift_ex))
    roots = sorted([(double, 2), (simple, 1)])
    return RootSet(tuple(roots), RootClassification.REPEATED_ROOT)


def factor_out_root(coeffs: CubicCoeffs, alpha: Number) -> CubicFactorization:
    """Split off a known root: f = (x - alpha) * (a*x**2 + k*x + l).

    Synthetic division gives k = b + a*alpha and l = c + k*alpha.  In exact
    mode the residual f(alpha) must vanish identically; in floating mode it
    must pass a scale-aware tolerance.
    """
    a, b, c, d = coeffs.as_tuple()
    exact = coeffs.is_exact() and is_exact_number(alpha)
    if exact:
        residual = horner((a, b, c, d), alpha)
        if residual != 0:
            raise NotARoot(f"f({alpha}) = {residual} != 0 in exact mode")
        return CubicFactorization(alpha, b + a * alpha, c + (b + a * alpha) * alpha)

    af, bf, cf, df = (float(v) for v in (a, b, c, d))
    alpha_f = float(alpha)
    residual = horner((af, bf, cf, df), alpha_f)
    tol = _ROOT_RESIDUAL_FACTOR * (1.0 + coeffs.scale() * max(1.0, abs(alpha_f)) ** 3)
    if abs(residual) > tol:
        raise NotARoot(f"|f({alpha_f})| = {abs(residual):.3e} exceeds tolerance {tol:.3e}")
    k = bf + af * alpha_f
    l = cf + k * alpha_f
    return CubicFactorization(alpha_f, k, l)
