"""Tanh-sinh quadrature, the tests' reference for the Gauss-Jacobi panels.

A second rule, independent of the package's (Takahasi & Mori 1974; Bailey,
Jeyabalan & Li 2005): every node is evaluated from its formula, on every
panel, by ``integrand``.  ``panel_value`` takes the arguments of
``quadrature._panel_value`` and an explicit level cap, and doubles its levels
until a stop rule of ``stop`` holds or the cap is reached, so a cap of 16 at
an unreachable rel_tol gives the walk with no early stop that
tests/test_accuracy.py compares against.
"""

import math

from nongauss import Polynomial, SingularPoint
from nongauss.polynomial import _synthetic_quotient


def integrand(f, x, family_degree=None):
    """Reference integrand: (f(x)**2)**(-1/n) as the one power |f(x)|**(-2/n),
    evaluated per node by ``panel_value``.

    ``family_degree`` defaults to max(3, deg f): quadratics are always the
    degenerate a = 0 member of the cubic family.
    """
    n = family_degree if family_degree is not None else max(3, f.degree)
    value = float(f(float(x)))
    if value == 0.0:
        raise SingularPoint(f"f({x}) = 0")
    return abs(value) ** (-2.0 / n)


def node(t):
    """The tanh-sinh node at t on a unit panel: (1 - tanh z, 1 + tanh z,
    pi/2 * cosh t * (1 - tanh z) * (1 + tanh z)), z = pi/2 * sinh t."""
    z = math.pi / 2.0 * math.sinh(t)
    e2 = math.exp(-2.0 * z)
    one_minus = 2.0 * e2 / (1.0 + e2)
    one_plus = 2.0 / (1.0 + e2)
    return one_minus, one_plus, math.pi / 2.0 * math.cosh(t) * one_minus * one_plus


def walk(fn, lo, hi, p_lo, p_hi, rel_tol, levels):
    """The level-doubling rule for fn(x) * (x - lo)**p_lo * (hi - x)**p_hi,
    up to ``levels`` levels after level 0: (value, error, converged).  A node
    at distances hs * u_lo and hs * u_hi from the ends folds each factor (hs
    * u)**p as hs**p * u**p: the weight times the u powers, its own side's
    first, multiplies fn(x), and hs * hs**p_lo * hs**p_hi scales the panel's
    sums once."""
    hs = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    if hs == 0.0:
        return 0.0, 0.0, True
    scale = hs * hs**p_lo * hs**p_hi

    def side_sum(h, only_odd):
        total = 0.0
        for sign in (+1, -1):
            k = 1
            negligible = 0
            while True:
                t = k * h
                one_minus, one_plus, w = node(t)
                if hs * one_minus == 0.0 or hs * one_plus == 0.0 or w * hs == 0.0:
                    break
                if sign > 0:
                    x, weight = hi - hs * one_minus, w * one_minus**p_hi * one_plus**p_lo
                else:
                    x, weight = lo + hs * one_minus, w * one_minus**p_lo * one_plus**p_hi
                term = fn(x) * weight
                total += term
                if term <= abs(total) * 1e-17:
                    negligible += 1
                    if negligible >= 2 and t > 3.0:
                        break
                else:
                    negligible = 0
                k += 2 if only_odd else 1
                if t > 7.5:
                    break
        return total

    node_sum = math.pi / 2.0 * fn(mid) + side_sum(1.0, False)
    values = [node_sum]
    h = 1.0
    for _ in range(levels):
        h *= 0.5
        node_sum += side_sum(h, True)
        values.append(h * node_sum)
        stopped = stop(values, rel_tol)
        if stopped:
            return values[-1] * scale, stopped[1] * scale, True
    return values[-1] * scale, abs(values[-1] - values[-2]) * scale, False


def stop(values, rel_tol):
    """The rule that ends the level doubling after the level values
    ``values``, with its error estimate, or None to go on: "difference" when
    the last two levels differ by at most rel_tol of the last; "quadratic"
    when the last difference d1 is below the one before, d0, is at most
    0.01 * sqrt(rel_tol) of the last level S, d0^2 <= 100 d1 |S| (the
    relative difference fell by no more than a square), and 100 * d1^2 /
    d0, the next difference of a quadratically converging rule with a
    margin of 100, is at most rel_tol of S."""
    value = abs(values[-1])
    d1 = abs(values[-1] - values[-2])
    if d1 <= rel_tol * value:
        return "difference", d1
    if len(values) >= 3:
        d0 = abs(values[-2] - values[-3])
        squared = d0 * d0 <= 100.0 * d1 * value
        if d1 < d0 and d1 <= 0.01 * math.sqrt(rel_tol) * value and squared:
            estimate = 100.0 * d1 * (d1 / d0)
            if estimate <= rel_tol * value:
                return "quadratic", estimate
    return None


def panel_value(coeffs, exponent, lo, hi, m_lo, m_hi, cfg, levels):
    """``quadrature._panel_value``'s value by tanh-sinh, up to ``levels``
    levels: the endpoint roots divided out into q, then |q|**(-exponent)
    from ``integrand`` times the endpoint factors at every node of ``walk``;
    (value, error, converged, evaluated nodes)."""
    q = list(coeffs)
    for _ in range(m_lo):
        q = _synthetic_quotient(q, lo)
    for _ in range(m_hi):
        q = _synthetic_quotient(q, hi)
    quotient, family_degree = Polynomial(q), 2.0 / exponent
    assert 2.0 / family_degree == exponent
    nodes = []

    def fn(x):
        nodes.append(x)
        return integrand(quotient, x, family_degree)

    p_lo, p_hi = -exponent * m_lo, -exponent * m_hi
    return (*walk(fn, lo, hi, p_lo, p_hi, cfg.rel_tol, levels), len(nodes))
