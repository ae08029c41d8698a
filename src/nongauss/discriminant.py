"""Exact resultants and discriminants for arbitrary degree.

The resultant R(f, f') is the determinant of the (2n-1) x (2n-1) band matrix
built from n-1 shifted rows of f and n shifted rows of f'.  The discriminant
follows from

    D = (-1)**(n*(n-1)/2) * R(f, f') / a0.

Everything here is exact: inputs are cleared to integers over a common
denominator (floats convert losslessly) and the determinant is computed with
fraction-free Bareiss elimination over big integers.  Cubics use the explicit
five-term expansion instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import DegreeTooLow
from .polynomial import (
    CubicCoeffs,
    Number,
    Polynomial,
    cubic_discriminant_exact,
    cubic_discriminant_int,
    derivative_coeffs,
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


def sylvester_matrix(f: Polynomial) -> SylvesterMatrix:
    """Assemble the band matrix whose determinant is R(f, f').

    Row r < n-1 holds the coefficients of f shifted r places; the remaining
    n rows hold the coefficients of f' shifted likewise.
    """
    n = f.degree
    if n < 2:
        raise DegreeTooLow(f"need degree >= 2, got {n}")
    ints, den = integer_coefficients(f.coeffs)
    cs = [Fraction(p, den) for p in ints]
    ds = derivative_coeffs(cs)
    size = 2 * n - 1
    zero = Fraction(0)
    rows = []
    for r in range(n - 1):
        rows.append(tuple([zero] * r + cs + [zero] * (size - r - n - 1)))
    for r in range(n):
        rows.append(tuple([zero] * r + ds + [zero] * (size - r - n)))
    return SylvesterMatrix(tuple(rows), n)


def _bareiss_determinant_int(m: list) -> int:
    """Fraction-free elimination; entries must be Python ints."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _determinant(rows: tuple) -> Fraction:
    """Exact determinant: clear each row's denominators, then run Bareiss."""
    scale = 1
    int_rows = []
    for row in rows:
        ints, den = integer_coefficients(row)
        scale *= den
        int_rows.append(ints)
    return Fraction(_bareiss_determinant_int(int_rows), scale)


def resultant(f: Polynomial) -> Fraction:
    """R(f, f') as an exact rational; for cubics R/a = -D."""
    return _determinant(sylvester_matrix(f).entries)


def discriminant_general(f: Polynomial) -> DiscriminantResult:
    """Discriminant of any degree >= 2 polynomial via the resultant."""
    n = f.degree
    res = resultant(f)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return DiscriminantResult.from_value(sign * res / Fraction(f.coeffs[0]))


def discriminant_cubic_explicit(coeffs: CubicCoeffs) -> DiscriminantResult:
    """Five-term expansion b^2c^2 + 18abcd - 4ac^3 - 4b^3d - 27a^2d^2.

    a = 0 is allowed; the expansion degenerates to b^2*(c^2 - 4bd).
    """
    return DiscriminantResult.from_value(cubic_discriminant_exact(*coeffs.as_tuple()))


def discriminant_from_coeffs(values: Sequence[Number]) -> DiscriminantResult:
    """Discriminant of the degree len(values) - 1 form with these coefficients.

    Cubics use the explicit expansion, other degrees Bareiss.  A leading zero
    keeps the declared degree through D_n(0, a1, ..., an) = a1^2 *
    D_{n-1}(a1, ..., an), the rule the cubic expansion follows at a = 0.
    """
    n = len(values) - 1
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
    """a**4 * ((r1-r2)(r1-r3)(r2-r3))**2, the root-difference form of D."""
    r1, r2, r3 = roots
    delta = (r1 - r2) * (r1 - r3) * (r2 - r3)
    return a**4 * delta * delta


def key_lemma_check(a: Number, alpha: Number, k: Number, l: Number) -> Number:
    """Residual of (a*alpha^2 + k*alpha + l)^2 * (4al - k^2) = -D.

    (b, c, d) are rebuilt from the factorization data, so the identity holds
    for arbitrary inputs; exact inputs give a residual of exactly zero.
    """
    convert = Fraction if all(is_exact_number(v) for v in (a, alpha, k, l)) else float
    a, alpha, k, l = (convert(v) for v in (a, alpha, k, l))
    b = k - a * alpha
    c = l - k * alpha
    d = -l * alpha
    lhs = (a * alpha * alpha + k * alpha + l) ** 2 * (4 * a * l - k * k)
    # a float lhs plus the exact Fraction D comes out as a float
    return abs(lhs + cubic_discriminant_exact(a, b, c, d))
