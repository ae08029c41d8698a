"""Dense polynomials, cubic coefficient quadruples, and real cubic roots.

Coefficients are stored leading-first: ``(a0, a1, ..., an)`` represents
``a0*x**n + a1*x**(n-1) + ... + an``.  Every object supports dual arithmetic:
it is *exact* when all coefficients are ``int``/``Fraction`` and floating
otherwise, chosen per call site rather than globally.  All operations are
pure functions of immutable values and safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DegenerateLeadingCoefficient, DomainError, NotARoot

Number = Union[int, Fraction, float]

_ROOT_RESIDUAL_FACTOR = 1e-10
# Roots up to 2^160 keep the powers cubic_roots takes (p**3 and q*q grow like
# (b/a)**6) inside the float range.
_ROOT_SCALE = 2.0**160


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


def float_coefficients(values: Sequence[Number]) -> list:
    """``values`` as floats; a value beyond the float range raises DomainError."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise DomainError("a coefficient lies beyond the float range") from None


def binary_exponent(values: Sequence[float]) -> int:
    """The e with 2**e <= max|v| < 2**(e+1): scaling every value by 2**-e puts
    the largest magnitude in [1, 2), changes no mantissa, and leaves input of
    that scale exactly as it was."""
    return math.frexp(max(abs(v) for v in values))[1] - 1


def fujiwara_exponent(values: Sequence[float]) -> int:
    """The least integer j >= (e_i - e_0) / i over the nonzero non-leading
    ``values[i]`` (leading first, e_i the ``math.frexp`` exponent), 0 if none:
    2^(j + 1) exceeds each |v_i / v_0|^(1/i), so by Fujiwara's bound every
    root of f(2^j y) has modulus below 4."""
    e0 = math.frexp(values[0])[1]
    ceilings = [-((e0 - math.frexp(v)[1]) // i) for i, v in enumerate(values[1:], 1) if v]
    return max(ceilings, default=0)


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


def _primitive(cs: Sequence[int]) -> list:
    """Integer coefficients over their content, the leading one positive; [] for 0."""
    cs = list(itertools.dropwhile(lambda c: c == 0, cs))
    content = math.gcd(*cs) if cs and cs[0] > 0 else -math.gcd(*cs)
    return [c // content for c in cs]


def _integer_gcd(a: list, b: list) -> list:
    """Primitive gcd of integer polynomials: Euclid's algorithm on remainders
    taken up to a constant factor and reduced to their primitive parts."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = a
        while len(r) >= len(b):
            r = _primitive([b[0] * u - r[0] * v for u, v in zip(r[1:], b[1:] + [0] * len(r))])
        a, b = b, r
    return a


def _exact_quotient(a: list, b: list) -> list:
    """a / b, len(a) - len(b) + 1 coefficients, for a primitive b dividing a;
    each is an integer by Gauss's lemma."""
    q = []
    while len(a) >= len(b):
        q.append(a[0] // b[0])
        a = [u - q[-1] * v for u, v in zip(a[1:], b[1:] + [0] * len(a))]
    return q


def squarefree_factors(f: "Polynomial") -> list:
    """Yun's square-free decomposition of f's exact integers (Yun, SYMSAC 1976):
    pairs (f_k, k) by ascending k with f = c * prod f_k^k, c rational, each
    f_k a non-constant primitive integer Polynomial, square-free and coprime
    to the others, so its roots are exactly the roots of multiplicity k of f.
    """
    a = _primitive(integer_coefficients(f.coeffs)[0])
    da = derivative_coeffs(a)
    c = _integer_gcd(a, da)
    if len(c) == 1:  # gcd(f, f') is constant: f is square-free
        return [(Polynomial(a), 1)] if len(a) > 1 else []
    w, y = _exact_quotient(a, c), _exact_quotient(da, c)
    out, k = [], 1
    while len(w) > 1:
        z = [u - v for u, v in zip(y, derivative_coeffs(w))]
        factor = _integer_gcd(w, z)
        if len(factor) > 1:
            out.append((Polynomial(factor), k))
        w, y, k = _exact_quotient(w, factor), _exact_quotient(z, factor), k + 1
    return out


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


def _dilated_monic(cs: tuple) -> tuple:
    """(j, B, C, D) with y**3 + B*y**2 + C*y + D = f(2**j * y) / (a * 8**j),
    j = fujiwara_exponent(cs): the roots come to unit size.  The quotients
    are formed from mantissas and exponents, so b/a is never formed and
    cannot overflow.
    """
    ma, ea = math.frexp(cs[0])
    parts = [math.frexp(v) for v in cs[1:]]
    j = fujiwara_exponent(cs)
    return (j, *(math.ldexp(m / ma, e - ea - i * j) for i, (m, e) in enumerate(parts, 1)))


def _undilated(y: float, j: int) -> float:
    """The root x = 2**j * y of f for the root y of _dilated_monic's cubic."""
    try:
        return math.ldexp(y, j)
    except OverflowError:
        raise DomainError(f"a real root lies beyond the float range: {y} * 2**{j}") from None


def _deflated_pair(cs: tuple, alpha: float) -> tuple:
    """The roots of a*x**2 + k*x + l = f / (x - alpha), for the real root
    alpha of largest modulus when all three roots are real.  The constant
    end of the synthetic division, l = -d/alpha and k = (l - c)/alpha, loses
    no digits to the cancellation in b + a*alpha; the pair's sum -k/a and
    product l/a go into the sign-stable quadratic formula, its square root
    taken as |s/2| * sqrt(1 - p/(s/2)**2) once s/2 is large, so that
    neither (s/2)**2 nor the roots overflow.
    """
    a, _, c, d = cs
    a_alpha = a * alpha
    s = (c + d / alpha) / a_alpha
    p = -d / a_alpha
    half = 0.5 * s
    if abs(half) >= 1.0:
        root = abs(half) * math.sqrt(max(0.0, 1.0 - p / half / half))
    else:
        root = math.sqrt(max(0.0, half * half - p))
    big = half + math.copysign(root, half)
    return (big, p / big) if big else (0.0, 0.0)


def cubic_roots(coeffs: CubicCoeffs) -> RootSet:
    """All real roots of a true cubic (a != 0).

    Closed forms locate the roots (trigonometric when all three are real,
    Cardano otherwise) and Newton polishing restores full precision on the
    simple ones.  With three real roots, the two besides the largest come
    from the quadratic that deflating the largest leaves, so roots many
    orders of magnitude below it are not lost to cancellation.  The
    classification follows the exact discriminant sign.
    Roots too large for the closed forms are located at unit size after the
    exact dilation x = 2**j * y; a root beyond the float range raises
    DomainError.
    """
    if coeffs.a == 0:
        raise DegenerateLeadingCoefficient(
            "cubic_roots requires a != 0; use the quadratic path for a = 0"
        )
    # the sign of D on the cleared integers is the sign of D
    disc = cubic_discriminant_int(*integer_coefficients(coeffs.as_tuple())[0])
    cs = tuple(float(v) for v in coeffs.as_tuple())
    a, b, c, d = cs

    big_b = b / a
    big_c = c / a
    big_d = d / a
    j = 0
    if not (
        abs(big_b) <= _ROOT_SCALE
        and abs(big_c) <= _ROOT_SCALE**2
        and abs(big_d) <= _ROOT_SCALE**3
    ):
        j, big_b, big_c, big_d = _dilated_monic(cs)
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
        # the closed forms cancel on the roots much smaller than the largest;
        # those are the roots of the quadratic left by deflating the largest
        alpha = _polish_root(cs, _undilated(max(raw, key=abs), j))
        pair = (_polish_root(cs, x) for x in _deflated_pair(cs, alpha))
        polished = sorted((alpha, *pair))
        return RootSet(tuple((x, 1) for x in polished), RootClassification.THREE_DISTINCT_REAL)

    if disc < 0:
        if p == 0.0:
            t = _cbrt(-q)
        else:
            s = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
            u = -q / 2.0 - s if q >= 0.0 else -q / 2.0 + s
            u = _cbrt(u)
            t = u - p / (3.0 * u) if u != 0.0 else 0.0
        x = _polish_root(cs, _undilated(t + shift, j))
        return RootSet(((x, 1),), RootClassification.ONE_REAL_ONE_COMPLEX_PAIR)

    # D = 0: triple root exactly when b^2 = 3ac; otherwise the double root is
    # rational in the coefficients, so compute it without rounding
    at, bt, ct, dt = (Fraction(v) for v in coeffs.as_tuple())
    if bt * bt == 3 * at * ct:
        return RootSet(((_undilated(shift, j), 3),), RootClassification.REPEATED_ROOT)
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
