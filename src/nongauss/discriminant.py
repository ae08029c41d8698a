"""Exact resultants and discriminants for arbitrary degree.

The resultant R(f, f') is the determinant of the (2n-1) x (2n-1) band matrix
built from n-1 shifted rows of f and n shifted rows of f'.  The discriminant
follows from

    D = (-1)**(n*(n-1)/2) * R(f, f') / a0.

Everything here is exact: inputs are cleared once to integers over a common
denominator den (floats convert losslessly), and R(den f, den f') =
den^(2n-1) * R(f, f') comes from the subresultant polynomial remainder
sequence on those integers, ``polynomial._subresultant``, the one kernel
that also gives Yun's square-free split its gcds: integer
pseudo-remainders, each divided exactly by a known factor, in O(n^2)
big-integer steps where elimination on the Sylvester matrix takes O(n^3).
The den powers are divided out once at the end.  ``discriminant_from_coeffs``
takes quadratics as b^2 - 4ac and cubics as the explicit five-term expansion
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import DegreeTooLow, DomainError
from .polynomial import (
    CubicCoeffs,
    Number,
    Polynomial,
    _subresultant,
    cubic_discriminant_exact,
    cubic_discriminant_int,
    derivative_coeffs,
    float_coefficients,
    integer_coefficients,
    is_exact_number,
)


class Sign(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ZERO = "Zero"


@dataclass(frozen=True)
class DiscriminantResult:
    """Exact discriminant value together with its sign classification."""

    value: Fraction
    sign: Sign

    @classmethod
    def from_value(cls, value: Fraction) -> "DiscriminantResult":
        if value > 0:
            return cls(value, Sign.POSITIVE)
        if value < 0:
            return cls(value, Sign.NEGATIVE)
        return cls(value, Sign.ZERO)


@dataclass(frozen=True)
class SylvesterMatrix:
    """The (2n-1) x (2n-1) resultant matrix of f and f'."""

    entries: tuple
    degree: int

    @property
    def size(self) -> int:
        return 2 * self.degree - 1


@dataclass(frozen=True)
class ResolventData:
    """Coefficients A = b^2 - 3ac, B = bc - 9ad, C = c^2 - 3bd of the
    resolvent quadratic A*X^2 + B*X + C, satisfying D = -(B^2 - 4AC)/3."""

    A: Fraction
    B: Fraction
    C: Fraction


def _cleared(f: Polynomial) -> tuple:
    """(ints, den) from ``integer_coefficients(f.coeffs)``: den * f has the
    integer coefficients ``ints``; degree below 2 raises DegreeTooLow."""
    if f.degree < 2:
        raise DegreeTooLow(f"need degree >= 2, got {f.degree}")
    return integer_coefficients(f.coeffs)


def sylvester_matrix(f: Polynomial) -> SylvesterMatrix:
    """The band matrix whose determinant is R(f, f'), as exact Fractions."""
    ints, den = _cleared(f)
    ds = derivative_coeffs(ints)
    n = f.degree
    size = 2 * n - 1
    rows = [[0] * r + ints + [0] * (size - r - n - 1) for r in range(n - 1)]
    rows += [[0] * r + ds + [0] * (size - r - n) for r in range(n)]
    return SylvesterMatrix(tuple(tuple(Fraction(v, den) for v in row) for row in rows), n)


def resultant(f: Polynomial) -> Fraction:
    """R(f, f') as an exact rational; for cubics R/a = -D."""
    ints, den = _cleared(f)
    return Fraction(_subresultant(ints, derivative_coeffs(ints))[0], den ** (2 * f.degree - 1))


def discriminant_general(f: Polynomial) -> DiscriminantResult:
    """Discriminant of any degree >= 2 polynomial via the resultant."""
    n = f.degree
    ints, den = _cleared(f)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    # D = sign * R / a0 with R = R_int / den^(2n-1) and a0 = ints[0] / den
    r_int = _subresultant(ints, derivative_coeffs(ints))[0]
    return DiscriminantResult.from_value(Fraction(sign * r_int, ints[0] * den ** (2 * n - 2)))


def discriminant_cubic_explicit(coeffs: CubicCoeffs) -> DiscriminantResult:
    """Five-term expansion b^2c^2 + 18abcd - 4ac^3 - 4b^3d - 27a^2d^2.

    a = 0 is allowed; the expansion degenerates to b^2*(c^2 - 4bd).
    """
    return DiscriminantResult.from_value(cubic_discriminant_exact(*coeffs.as_tuple()))


def discriminant_from_coeffs(values: Sequence[Number]) -> DiscriminantResult:
    """Discriminant of the degree len(values) - 1 form with these coefficients.

    Quadratics use b^2 - 4ac and cubics the five-term expansion, exactly on
    the integers of ``integer_coefficients``; other degrees the subresultant
    PRS.  A leading zero keeps the declared degree through D_n(0, a1, ...,
    an) = a1^2 * D_{n-1}(a1, ..., an), the rule both expansions follow at
    a = 0.  A declared degree below 2 raises DegreeTooLow.
    """
    n = len(values) - 1
    if n < 2:
        raise DegreeTooLow(f"need degree >= 2, got {n}")
    if n == 2:
        (a, b, c), den = integer_coefficients(values)
        return DiscriminantResult.from_value(Fraction(b * b - 4 * a * c, den * den))
    if n == 3:
        return DiscriminantResult.from_value(cubic_discriminant_exact(*values))
    if n > 3 and values[0] == 0:
        rest = discriminant_from_coeffs(values[1:]).value
        return DiscriminantResult.from_value(Fraction(values[1]) ** 2 * rest)
    return discriminant_general(Polynomial(values))


def resolvent_data(coeffs: CubicCoeffs) -> ResolventData:
    """The three quantities behind the resolvent quadratic of a cubic.

    Asserts the identity D = -(B^2 - 4AC)/3 internally; both sides are exact
    so any disagreement would be a logic error, not rounding.
    """
    (a, b, c, d), den = integer_coefficients(coeffs.as_tuple())
    big_a = b * b - 3 * a * c
    big_b = b * c - 9 * a * d
    big_c = c * c - 3 * b * d
    assert 3 * cubic_discriminant_int(a, b, c, d) == 4 * big_a * big_c - big_b * big_b
    return ResolventData(*[Fraction(v, den * den) for v in (big_a, big_b, big_c)])


def vandermonde_delta_sq(roots: Sequence[Number], a: Number) -> Number:
    """a**4 * ((r1-r2)(r1-r3)(r2-r3))**2, the root-difference form of D:
    exact for exact input, else in floats, where a value beyond the float
    range raises DomainError."""
    values = (*roots, a)
    exact = all(is_exact_number(v) for v in values)
    r1, r2, r3, a = values if exact else float_coefficients(values)
    delta = (r1 - r2) * (r1 - r3) * (r2 - r3)
    try:
        value = a**4 * delta * delta
    except OverflowError:
        value = math.inf
    if not (exact or math.isfinite(value)):
        raise DomainError(f"the root-difference form at {values} lies beyond the float range")
    return value


def key_lemma_check(a: Number, alpha: Number, k: Number, l: Number) -> Number:
    """Residual of (a*alpha^2 + k*alpha + l)^2 * (4al - k^2) = -D.

    (b, c, d) are rebuilt from the factorization data, so the identity holds
    for arbitrary inputs; exact inputs give a residual of exactly zero.  A
    float term beyond the float range raises DomainError.
    """
    values = (a, alpha, k, l)
    exact = all(is_exact_number(v) for v in values)
    a, alpha, k, l = [Fraction(v) for v in values] if exact else float_coefficients(values)
    b = k - a * alpha
    c = l - k * alpha
    d = -l * alpha
    try:
        lhs = (a * alpha * alpha + k * alpha + l) ** 2 * (4 * a * l - k * k)
        # a float lhs plus the exact Fraction D comes out as a float
        residual = abs(lhs + cubic_discriminant_exact(a, b, c, d))
    except OverflowError:
        residual = math.inf
    if not math.isfinite(residual):
        raise DomainError(f"a term of the key lemma at {(a, alpha, k, l)} lies beyond the float range")
    return residual
