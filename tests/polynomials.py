"""Polynomial helpers that only the tests use.

``from_roots`` expands a product of linear factors, so a test can build a form
whose roots it knows, and ``magnitude_at`` is the scale a residual at a root is
measured against.  ``coefficient_strings`` and ``from_coefficient_strings``
are a text round trip through ``parse_number``, the parser the CLI reads
coefficients with.  ``sl2_image`` carries x^n +- 1 by a matrix of SL(2, Z),
which keeps F, and ``beta_value`` is that F in closed form.
``wide_integer_cubics`` draws integer cubics over wide bit lengths, an
oracle set for exact integer arithmetic.
"""

import math
from fractions import Fraction

from nongauss import Polynomial, beta
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


def sl2_image(n, plus, m) -> list:
    """(alpha x + beta)^n +- (gamma x + delta)^n, leading first."""
    alpha, b, gamma, delta = m
    sign = 1 if plus else -1
    return [
        math.comb(n, i) * (alpha ** (n - i) * b**i + sign * gamma ** (n - i) * delta**i)
        for i in range(n + 1)
    ]


def beta_value(n, plus) -> float:
    """Integral of |x^n +- 1|^(-2/n) over the line (x^n - 1: even n)."""
    if not plus:
        return (4.0 / n) * beta(1.0 / n, 1.0 - 2.0 / n)
    if n % 2 == 0:
        return (2.0 / n) * beta(1.0 / n, 1.0 / n)
    return (1.0 / n) * beta(1.0 / n, 1.0 / n) + (2.0 / n) * beta(1.0 / n, 1.0 - 2.0 / n)


def wide_integer_cubics(rng, count, max_bits=1100) -> list:
    """``count`` integer cubics (a, b, c, d), each coefficient zero one time
    in eight, else a random sign times an integer of exactly 1 to
    ``max_bits`` bits, drawn anew per coefficient."""
    cubics = []
    for _ in range(count):
        cubic = []
        for _ in range(4):
            bits = rng.randint(1, max_bits)
            value = (rng.getrandbits(bits) | 1 << (bits - 1)) * rng.choice((-1, 1))
            cubic.append(0 if rng.randrange(8) == 0 else value)
        cubics.append(tuple(cubic))
    return cubics
