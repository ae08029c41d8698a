"""The finite-difference stencil against a Fraction reference.

``renorm._unit_stencil`` clears one integer grid per cubic and decides the D
sign of every stencil point on those integers.  The reference here rebuilds
each moved point as floats in the stencil's units (the coefficients divided
by 2^e, 2^e <= max|coefficient| < 2^(e+1), each rounded once from its exact
value), decides its sign with the five-term D in Fractions, and takes log F
from ``log_closed_form``.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from nongauss import CubicCoeffs, StencilCrossesSingularity, log_closed_form
from nongauss.renorm import _unit_stencil

_STEPS = (1e-4, 1e-3)  # the default, and a coarser step that crosses D = 0 more often


def _reference_sign(point) -> int:
    a, b, c, d = (Fraction(v) for v in point)
    value = b * b * c * c + 18 * a * b * c * d - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d
    return (value > 0) - (value < 0)


def _moves():
    """The center, each coordinate moved by +-h, and each pair by (+-h, +-h):
    every point a verifier visits, and more."""
    yield {}
    for i in range(4):
        for s in (1, -1):
            yield {i: s}
    for i, j in itertools.combinations(range(4), 2):
        for s, t in itertools.product((1, -1), repeat=2):
            yield {i: s, j: t}


def _crossings(coeffs, step) -> list:
    """Check every stencil point of ``coeffs`` against the reference; return
    the number of moved coordinates of each point that crosses D = 0."""
    top = max(abs(Fraction(v)) for v in coeffs)
    e = top.numerator.bit_length() - top.denominator.bit_length()
    e -= top < Fraction(2) ** e
    base = [float(Fraction(v) / Fraction(2) ** e) for v in coeffs]
    h = step * max(abs(v) for v in base)
    center = _reference_sign(coeffs)
    # the step in the caller's units, h * 2^e, exact as a Fraction
    *_, stencil_h, log_f = _unit_stencil(CubicCoeffs(*coeffs), Fraction(h) * Fraction(2) ** e)
    assert stencil_h == h
    if step == _STEPS[0]:
        assert _unit_stencil(CubicCoeffs(*coeffs), None)[3] == h
    crossed = []
    for moves in _moves():
        point = list(base)
        for i, s in moves.items():
            point[i] = base[i] + s * h
        if _reference_sign(point) != center:
            with pytest.raises(StencilCrossesSingularity):
                log_f(moves)
            crossed.append(len(moves))
        else:
            assert log_f(moves) == log_closed_form(CubicCoeffs(*point))
    return crossed


def _log_uniform(rng, bits=300):
    return rng.choice((-1.0, 1.0)) * math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-bits, bits))


def _near_double_root(rng, t, step):
    """a (x - r)^2 (x - s) with d moved by t * step * scale, times 2^k: to
    first order a coordinate moved by h changes D by K r^(3-i) h and the
    offset sets D = K t h, so t between the largest |r|^(3-i) and the sum of
    the two largest makes only two-coordinate points cross, and t below the
    largest lets one-coordinate points cross too.  With |s - r| >= 1 and the
    moment step 1e-4, the first-order picture holds."""
    r = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    s = r + rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
    coeffs = [1.0, -(2 * r + s), r * r + 2 * r * s, -r * r * s]
    powers = sorted((abs(r) ** (3 - i) for i in range(4)), reverse=True)
    offset = t(powers[0], powers[0] + powers[1]) * step * max(abs(v) for v in coeffs)
    coeffs[3] += offset
    k = rng.randint(-300, 300)
    return [math.ldexp(v, k) for v in coeffs]


def test_stencil_matches_fraction_reference_on_log_uniform_cubics():
    rng = random.Random(20260)
    for n in range(200):
        if n % 2:
            # one scale 2^k, unit-size mantissas
            k = rng.randint(-300, 300)
            coeffs = [math.ldexp(rng.uniform(-2.0, 2.0), k) for _ in range(4)]
        else:
            coeffs = [_log_uniform(rng) for _ in range(4)]
        if _reference_sign(coeffs) == 0 or coeffs[0] == coeffs[1] == 0:
            continue
        for step in _STEPS:
            _crossings(coeffs, step)


def test_stencil_matches_fraction_reference_on_exact_input():
    for coeffs in [
        (Fraction(1, 3), 0, Fraction(-1, 3), Fraction(1, 7)),
        (1, 2, 3, 5),
        (Fraction(-5, 11), Fraction(2, 9), 4, Fraction(1, 10**30)),
        # beyond the float range, where float() of a coefficient overflows
        tuple(v * 2**1100 for v in (Fraction(1, 3), 0, Fraction(-1, 3), Fraction(1, 7))),
        tuple(v * 10**400 for v in (1, 2, 3, 5)),
    ]:
        for step in _STEPS:
            _crossings(coeffs, step)


@pytest.mark.parametrize(
    "kind, t, low, high",
    [
        # one-coordinate points cross (and usually some pairs too)
        ("single", lambda m1, m2: 0.5 * m1, 1, 2),
        # only two-coordinate (mixed) points cross
        ("mixed", lambda m1, m2: 0.5 * (m1 + m2), 2, 2),
    ],
)
def test_stencil_crossings_match_fraction_reference(kind, t, low, high):
    rng = random.Random(f"near-singular {kind}")
    counts = {1: 0, 2: 0}
    for _ in range(40):
        coeffs = _near_double_root(rng, t, _STEPS[0])
        crossed = _crossings(coeffs, _STEPS[0])
        assert crossed, coeffs
        assert low <= min(crossed) and max(crossed) <= high
        counts[min(crossed)] += 1
    assert counts[low] == 40
