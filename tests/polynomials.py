"""Polynomial helpers that only the tests use.

``from_roots`` expands a product of linear factors, so a test can build a form
whose roots it knows, and ``magnitude_at`` is the scale a residual at a root is
measured against.  ``coefficient_strings`` and ``from_coefficient_strings``
are a text round trip through ``parse_number``, the parser the CLI reads
coefficients with.
"""

from fractions import Fraction

from nongauss import Polynomial
from nongauss.polynomial import parse_number


def from_roots(roots, leading=1) -> Polynomial:
    """leading * (x - r_1) * ... * (x - r_k), expanded leading-first."""
    cs = [leading]
    for r in roots:
        nxt = [cs[0]]
        for i in range(1, len(cs)):
            nxt.append(cs[i] - r * cs[i - 1])
        nxt.append(-r * cs[-1])
        cs = nxt
    return Polynomial(cs)


def magnitude_at(coeffs, x) -> float:
    """Sum of |coeff| * |x|**power; magnitude reference for residual tests."""
    acc = 0.0
    ax = abs(float(x))
    for c in coeffs:
        acc = acc * ax + abs(float(c))
    return acc


def coefficient_strings(p: Polynomial) -> list:
    """Serialized form: list of coefficient strings, leading-first."""
    if p.exact:
        return [str(Fraction(c)) for c in p.coeffs]
    return [repr(float(c)) for c in p.coeffs]


def from_coefficient_strings(items) -> Polynomial:
    return Polynomial([parse_number(s) for s in items])
