"""Reference values computed without the package under test.

Every check in the benchmark compares an output of ``nongauss`` with a value
built here from the standard library alone: the cubic discriminant in plain
integer arithmetic, the constants C+ and C- from ``math.lgamma``, the Beta
values of x^n + 1 and x^n - 1, and the four exact moment identities.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _beta(p: float, q: float) -> float:
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


C_PLUS = 3.0 * _beta(1.0 / 3.0, 1.0 / 3.0)
C_MINUS = 2.0 ** (1.0 / 3.0) * _beta(0.5, 1.0 / 6.0)

# Closed-form and quadrature values are held to the acceptance suite's
# agreement bound; the finite-difference residuals to its 1e-5.
REL_VALUE_TOL = 1e-8
FD_RESIDUAL_TOL = 1e-5
# A float moment is an exactly rounded rational, so each identity holds to a
# few units of rounding of the sum of absolute terms.
MOMENT_ROUNDING_TOL = 1e-14


def integer_coefficients(values) -> tuple:
    """Integers (p0, .., pn) and a common denominator q with values = p/q."""
    fracs = [Fraction(v) for v in values]
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    return tuple(int(f * den) for f in fracs), den


def cubic_discriminant(values) -> Fraction:
    """b^2c^2 + 18abcd - 4ac^3 - 4b^3d - 27a^2d^2, in integers over den^4."""
    (a, b, c, d), den = integer_coefficients(values)
    value = b * b * c * c + 18 * a * b * c * d - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d
    return Fraction(value, den**4)


def cubic_value(disc: Fraction) -> float:
    """F = C+- / |D|^(1/6), taken in log space so no scale overflows."""
    ln_abs = math.log(abs(disc.numerator)) - math.log(disc.denominator)
    constant = C_PLUS if disc > 0 else C_MINUS
    return constant * math.exp(-ln_abs / 6.0)


def general_value(n: int, plus: bool) -> float:
    """Integral of ((x^n +- 1)^2)^(-1/n) over the real line (x^n - 1: even n)."""
    if plus:
        if n % 2 == 0:
            return (2.0 / n) * _beta(1.0 / n, 1.0 / n)
        return (1.0 / n) * _beta(1.0 / n, 1.0 / n) + (2.0 / n) * _beta(1.0 / n, 1.0 - 2.0 / n)
    return (4.0 / n) * _beta(1.0 / n, 1.0 - 2.0 / n)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_VALUE_TOL * abs(reference)


def moments_hold(values, moments) -> bool:
    """The Euler, dilation and two translation identities of the moments.

    Exact (Fraction) moments must satisfy them exactly; float moments to
    rounding, measured against the sum of the absolute terms.
    """
    a, b, c, d = (Fraction(v) for v in values)
    x3, x2y, xy2, y3 = (Fraction(m) for m in moments)
    identities = (
        ((a * x3, b * x2y, c * xy2, d * y3), Fraction(2, 3)),
        ((3 * a * x3, 2 * b * x2y, c * xy2), Fraction(1)),
        ((3 * a * x2y, 2 * b * xy2, c * y3), Fraction(0)),
        ((b * x3, 2 * c * x2y, 3 * d * xy2), Fraction(0)),
    )
    exact = all(isinstance(m, (int, Fraction)) for m in moments)
    for terms, target in identities:
        miss = abs(sum(terms) - target)
        if exact:
            if miss != 0:
                return False
        elif miss > MOMENT_ROUNDING_TOL * (sum(abs(t) for t in terms) + abs(target)):
            return False
    return True
