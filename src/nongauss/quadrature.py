"""Direct numerical evaluation of integral over R of |f(x)|**(-2/n) dx.

|f|**(-2/n) dx is a density on the projective line (hence F's SL(2)
invariance): the panels are the arcs between consecutive real roots, the arc
through infinity included, each in a chart where it is bounded, y or u = 1/y
(on the reversal u^n f(1/u)), and graded toward its nearest other root.
Tanh-sinh quadrature absorbs the |x - r|**(-2k/n) endpoint singularities
(Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005); endpoint roots are
divided out and their factors rebuilt from the exact endpoint distances of
the transform, so no node loses accuracy to cancellation next to a root.

Root multiplicities are exact, never read from floats, and decided once, by
``_unit_scale_layout`` from the exact D each route passes it: with D != 0
every root is simple; with D = 0, the roots of f_k from Yun's square-free
decomposition of f's integers are those of multiplicity k.  So a close
complex pair is never taken for a double real root; distinct roots on one
float raise NoConvergence, and a root with 2k >= n RepeatedRootDivergence
(at infinity, k = n - deg f), or NoConvergence if D < 0 rules it out (so
n = 2), as does a root at infinity that only the float form has.

Every integral runs at unit root scale, on the one float form g(y) = 2^-e
f(2^s y + t) of ``polynomial._chart``: a root cluster far from the origin,
relative to its size, is centred on its centroid, rounded once, and the
smallest nonzero root and the largest coefficient come to unit size.  F is
translation invariant and changes by an exact factor under the other two,
so f(2^j x) costs what f costs, warns where f warns, and its value and
error estimate are those of f times 2^-j, to the last bit.  g is rounded
once from the exact integers, stripped once of leading coefficients that
underflow (a root at infinity), and read as it is by the locator, the
panels and the one IllConditionedWarning: rounding g may move a root by more
than rel_tol of its distance to the nearest other root or critical point.

Each panel doubles its tanh-sinh levels up to the fixed 12, whose node
tables (25,239 nodes) are built once and shared by every panel of every
call.  With d1 a level's difference from the last, d0 the last one's and S
its value, a panel stops at the first level where d1 <= rel_tol |S|, and
reports d1; or, from level 2 on, since tanh-sinh error about squares per
level (Bailey, Jeyabalan & Li 2005), where d1 < d0, d1 <= 0.01
sqrt(rel_tol) |S|, d0^2 <= 100 d1 |S| (the relative difference fell by no
more than a square: a faster fall is a cancellation, not convergence) and
E = 100 d1^2 / d0 <= rel_tol |S|, and reports E.  The error estimate is
the sum of these: the quadratic model of the next difference with a margin
of 100, not a bound.

An endpoint root of multiplicity m contributes (hs * (1 -+ tanh z))**(-2m/n)
at each node: its hs power is applied once per panel, and the weight times
the (1 -+ tanh z) powers is a column of at most 12,620 doubles cached per
(level, near power, far power), at most 256 of them, least recently used
out first: 25 MB at most.  Panels are independent and pure, so callers
may evaluate them concurrently and sum.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional, Sequence, Tuple

from .discriminant import DiscriminantResult, discriminant_general
from .errors import (
    DegreeTooLow,
    DomainError,
    IllConditionedWarning,
    NoConvergence,
    RepeatedRootDivergence,
    SingularPoint,
)
from .polynomial import (
    Chart,
    CubicCoeffs,
    Polynomial,
    _chart,
    _real_roots,
    _synthetic_quotient,
    derivative_coeffs,
    horner,
    squarefree_factors,
)
from .renorm import (
    _NORMAL_MIN,
    IntegralMethod,
    IntegralResult,
    _checked_discriminant,
    _checked_gaussian,
)

_HALF_PI = math.pi / 2.0
# tanh-sinh levels per panel after level 0, each halving the node spacing
_LEVELS = 12
# endpoint-factor columns kept by _endpoint_column, each one level long
_COLUMN_CACHE_SIZE = 256
_GRADE_RATIO = 16.0  # ratio of consecutive cut distances in _graded
_GRADE_REACH = 4.0  # _graded cuts while a panel reaches this far beyond the cut
_CUT_CLEARANCE = 2.0**-40  # least cut distance, relative to the point cut toward


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")


class Panel(NamedTuple):
    """An integration interval, in u = 1/y if ``reciprocal``, and its ends' root multiplicities."""

    lo: float
    hi: float
    lo_multiplicity: int = 0
    hi_multiplicity: int = 0
    reciprocal: bool = False


@dataclass(frozen=True)
class PanelDecomposition:
    breakpoints: tuple
    panels: tuple


def _complex_reach(g: list, roots: list) -> float:
    """1/rho, rho the largest modulus of a non-real root of g (0.0 if none): in
    u = 1/y all of them lie within 1/rho of 0.  Moduli are Newton-polygon
    estimates (Bini 1996): an edge of the upper hull of the points (k,
    log2|c_k|) from power k1 to k2 stands for k2 - k1 roots of modulus
    (|c_k1|/|c_k2|)^(1/(k2 - k1)); each nonzero real root takes out the nearest."""
    points = [(k, math.log2(abs(c))) for k, c in enumerate(reversed(g)) if c]
    moduli, i = [], 0
    while i < len(points) - 1:  # the hull vertex after points[i]: steepest, then farthest
        (k1, l1), steepest = points[i], -math.inf
        for m in range(i + 1, len(points)):
            slope = (points[m][1] - l1) / (points[m][0] - k1)
            if slope >= steepest:  # a tie goes to the farther point
                steepest, vertex = slope, m
        k2, l2 = points[vertex]
        moduli += [(l1 - l2) / (k2 - k1)] * (k2 - k1)
        i = vertex
    for log_r in [math.log2(abs(r)) for r, k in roots if r for _ in range(k)][: len(moduli)]:
        distances = [abs(m - log_r) for m in moduli]
        del moduli[distances.index(min(distances))]
    return 2.0 ** min(-max(moduli), 1000.0) if moduli else 0.0


def _graded(panel: Panel, images: list, reach: float) -> list:
    """``panel`` cut d, R d, R^2 d, ... from its point nearest its nearest
    feature, d away, while it reaches beyond _GRADE_REACH times the next: a
    root in ``images`` (the chart's) that is not an end, or the non-real
    roots, within ``reach`` of u = 0.  Each piece then ends a distance of its
    own order from the feature, and no cut is within rounding of the point."""
    lo, hi, m_lo, m_hi, reciprocal = panel
    d, point = math.inf, lo
    for z in images:  # the nearest root that is not an end, ties to the lower point
        if not lo <= z <= hi:
            p = min(max(z, lo), hi)
            if (abs(z - p), p) < (d, point):
                d, point = abs(z - p), p
    if reach > 0:  # or the non-real roots, within reach of u = 0
        p = min(max(0.0, lo), hi)
        d, point = min((d, point), (max(abs(p), reach), p))
    cuts = []
    for end in (lo, hi):
        step = max(d, _CUT_CLEARANCE * abs(point))
        while abs(end - point) > _GRADE_REACH * step:
            cuts.append(point + math.copysign(step, end - point))
            step *= _GRADE_RATIO
    if not cuts:
        return [panel]
    ends = [lo] + sorted(cuts) + [hi]
    return [
        Panel(a, b, m_lo if a == lo else 0, m_hi if b == hi else 0, reciprocal)
        for a, b in zip(ends, ends[1:])
    ]


def decompose(f: Polynomial, family_degree: Optional[int] = None) -> PanelDecomposition:
    """The panels on which the quadrature evaluates the integral over R of
    |f|**(-2/n), n = ``family_degree`` (default max(3, deg f)), and the real
    roots as breakpoints, in y of ``_unit_scale_layout`` (u = 1/y for a
    ``reciprocal`` panel), whose root multiplicities come from f's exact D.
    n is an int >= deg f, and u^n f(1/u) has a root of multiplicity n - deg f
    at u = 0, the root at infinity, which diverges like any other root."""
    disc = discriminant_general(f)
    n = family_degree if family_degree is not None else max(3, f.degree)
    if not (type(n) is int and n >= f.degree):  # not a bool either
        raise DomainError(f"family_degree must be an int >= deg f = {f.degree}, got {n!r}")
    return _unit_scale_layout(f.coeffs, n, disc.value, QuadratureConfig().rel_tol, 3)[1]


def _unit_scale_layout(
    values: Sequence, n: int, disc: Fraction, rel_tol: float, stacklevel: int
) -> Tuple[Chart, PanelDecomposition]:
    """(chart, panels) of the integral of |f|**(-2/n) at unit root scale, on
    chart = ``_chart(values)`` for f's coefficients ``values``: the degree,
    root at infinity and reversal of its float form g come from it.  With
    f's exact D ``disc`` != 0 every root is simple, located on g; with D = 0
    the roots of each f_k of ``squarefree_factors(f)`` (Yun's split, which
    runs its own remainder sequence), moved as g is, are its roots of
    multiplicity k; the errors they raise are those of the module docstring.
    The rounding warning below goes to the frame ``stacklevel`` up, the
    public function's caller."""
    degree = len(values) - 1
    if 2 * (n - degree) >= n:
        raise RepeatedRootDivergence(
            f"the root at infinity has multiplicity {n - degree}; "
            f"|x|**(-{2 * degree}/{n}) is not integrable there"
        )
    chart = _chart(values)
    g = chart.g
    located = [(g, 1)] if disc else [
        (_chart(p.coeffs, chart.t, chart.s).g, k)
        for p, k in squarefree_factors(Polynomial(values))
    ]
    found = [(_real_roots(coeffs), k) for coeffs, k in located]
    roots = sorted((r + 0.0, k) for (rs, _), k in found for r in rs)  # 0.0, never -0.0
    critical = [c for (_, cs), _ in found for c in cs]
    for root, k in roots:
        if 2 * k < n:
            continue
        if disc < 0:  # every root simple, so n = 2, and no real root
            raise NoConvergence(
                f"the float form has a real root at {root}{chart.units}, which the exact "
                "discriminant rules out: double precision does not resolve the integral"
            )
        raise RepeatedRootDivergence(
            f"root {root}{chart.units} has multiplicity {k}; "
            f"|x - r|**(-{2 * k}/{n}) is not integrable"
        )
    origin = n - (len(g) - 1)
    if 2 * origin >= n:
        raise NoConvergence(
            f"the float form has a root of multiplicity {origin} at infinity{chart.units}: "
            "leading coefficients beyond the float range were stripped, and double "
            "precision does not resolve the integral"
        )
    gaps = [b - a for (a, _), (b, _) in zip(roots, roots[1:])]
    if 0.0 in gaps:
        raise NoConvergence(
            f"roots within rounding of each other at {roots[gaps.index(0.0)][0]}{chart.units}: "
            "the exact discriminant is nonzero on the square-free part, so they are distinct "
            "and the integral is finite, but double precision does not resolve it"
        )
    # Rounding g moves a simple root r by up to 2n u ĝ(|r|) / |g'(r)|, u = 2^-53,
    # ĝ with the coefficients max(|g_i|, 2^-1022), so as to bound a subnormal's
    # rounding too (Horner's running-error bound: Higham, Accuracy and Stability
    # of Numerical Algorithms, sec. 5.1); beyond |y| = 1, r^2 times 1/r's move.
    ratio, bound = 0.0, 2 * (len(g) - 1) * 2.0**-53
    in_y = [r for r, _ in roots]
    if len(roots) > 1 or critical:  # else no root has another root or critical point
        hat = [max(abs(c), 2.0**-1022) for c in g]
        near, far = (hat, derivative_coeffs(g)), (hat[::-1], derivative_coeffs(g[::-1]))
    for i, (r, k) in enumerate(roots):
        others = in_y[:i] + in_y[i + 1:] + critical
        if k == 1 and others:
            (hat_cs, deriv), x, scale = (far, 1.0 / r, abs(r)) if abs(r) > 1.0 else (near, r, 1.0)
            move = horner(hat_cs, abs(x)) * scale * bound
            slope = abs(horner(deriv, x)) * min([abs(p - r) for p in others])
            ratio = max(ratio, move * scale / slope if slope else math.inf)
    if ratio > rel_tol:
        warnings.warn(
            f"rounding the coefficients moves a root by {ratio:.3e} of its distance to the "
            "nearest other root or critical point; quadrature error may exceed rel_tol",
            IllConditionedWarning,
            stacklevel=stacklevel,
        )
    # Arcs between the roots, u = 0 when deg g < n (a root of multiplicity
    # n - deg g), and y = 2 (-2) unless a root in [1, 4] ([-4, -1]) stands in
    # its place: each has |y| >= 1 on it (in u = 1/y) or lies in [-4, 4] (in y).
    cuts = [(y, 0) for y in (-2.0, 2.0) if not any([0.5 <= r / y <= 2.0 for r in in_y])]
    marks = sorted(roots + cuts + [(math.inf, origin)] * (origin > 0))
    in_u = [1.0 / r for r in in_y if r] + [0.0] * (origin > 0)
    reach = _complex_reach(g, roots)
    panels = []
    for (lo, m_lo), (hi, m_hi) in zip(marks, marks[1:] + marks[:1]):
        if lo >= hi or lo >= 1.0 or hi <= -1.0:  # through infinity, or beyond y = +-1
            panels += _graded(Panel(1.0 / hi, 1.0 / lo, m_hi, m_lo, True), in_u, reach)
        else:
            panels += _graded(Panel(lo, hi, m_lo, m_hi), in_y, 0.0)
    return chart, PanelDecomposition(tuple(in_y), tuple(panels))


@functools.cache
def _node_table(level: int) -> tuple:
    """Unit-panel tanh-sinh nodes t = k*h, h = 2^-level, k = 1, 2, ... (odd k
    past level 0): (1 - tanh z, 1 + tanh z, pi/2 * cosh t * (1 - tanh z) *
    (1 + tanh z), index of the first node with t > 3), z = pi/2 * sinh t.

    A panel of half-width hs places its nodes hs * (1 - tanh z) from an
    end, bit-identical to evaluating the node formulas per panel, and
    scales its sums by hs once (see ``_endpoint_column``).  The table ends
    before the first node whose 1 - tanh z underflows to zero (t ~ 6.16),
    since that node is zero on every panel; the weight is at least
    1 - tanh z, so it is not zero first.  Built on first use; 25,239 nodes
    for levels 0-12, held as ``array('d')`` columns.
    """
    one_minus, one_plus, weights = array("d"), array("d"), array("d")
    h = 2.0**-level
    tail_start = 0
    k = 1
    while True:
        t = k * h
        z = _HALF_PI * math.sinh(t)
        e2 = math.exp(-2.0 * z)
        om = 2.0 * e2 / (1.0 + e2)  # 1 - tanh(z), stable
        op = 2.0 / (1.0 + e2)  # 1 + tanh(z)
        w = _HALF_PI * math.cosh(t) * om * op
        if om == 0.0:
            break
        if t <= 3.0:
            tail_start += 1
        one_minus.append(om)
        one_plus.append(op)
        weights.append(w)
        k += 2 if level else 1
    return one_minus, one_plus, weights, tail_start


@functools.lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _endpoint_column(level: int, p_near: float, p_far: float) -> array:
    """The weights of ``_node_table(level)`` times the endpoint factors
    of a unit panel, w * (1 - tanh z)**p_near * (1 + tanh z)**p_far, for the
    nodes of the side whose own endpoint carries the power p_near; the
    weight column itself when both powers are zero.

    A panel of half-width hs multiplies every term by hs * hs**(p_near +
    p_far), once, so each node costs one multiply by this column.  The
    column ends early at a subnormal 1 - tanh z whose power overflows (an
    endpoint power near -1, degree 23 and above); those nodes are
    negligible.
    """
    one_minus, one_plus, weights, _ = _node_table(level)
    if not (p_near or p_far):
        return weights
    column = array("d")
    for om, op, w in zip(one_minus, one_plus, weights):
        try:
            column.append(w * om**p_near * op**p_far)
        except OverflowError:
            break
    return column


def _panel_value(
    coeffs: Sequence[float],
    exponent: float,
    lo: float,
    hi: float,
    m_lo: int,
    m_hi: int,
    cfg: QuadratureConfig,
) -> Tuple[float, float, bool, int]:
    """Level-doubling tanh-sinh value of |p|**(-exponent) on [lo, hi], p the
    polynomial with ``coeffs`` and roots of multiplicity m_lo at lo and m_hi
    at hi: (value, error estimate, converged, integrand evaluations).

    The endpoint roots are divided out into q, and a node at distances
    hs * (1 -+ tanh z) from the endpoints is worth |q(x)|**-exponent times
    the endpoint factors (hs * (1 -+ tanh z))**(-exponent m).  Each factor
    splits into hs**(-exponent m), applied once per panel, and a power of
    1 -+ tanh z, folded with the weight into ``_endpoint_column``: one
    inline Horner evaluation, one power and one multiply-add per node.
    Each side of a level walks the level's node table outwards, and ends
    before its first distance that underflows, found once per side and
    level.  The head of the walk, t <= 3, has no stop and no bookkeeping;
    the tail stops once two terms in a row are negligible, the first of
    them possibly the head's last.  A zero or, at p = -1, subnormal q at a
    node fails the power, caught once around the walk.  Levels stop by the
    two rules of the module docstring, and the second one's estimate, 100
    d1^2 / d0, is the error reported.
    """
    hs = 0.5 * (hi - lo)
    if hs == 0.0:
        return 0.0, 0.0, True, 0
    q = list(coeffs)
    for _ in range(m_lo):
        q = _synthetic_quotient(q, lo)
    for _ in range(m_hi):
        q = _synthetic_quotient(q, hi)
    lead, rest = q[0], q[1:]
    p, p_lo, p_hi = -exponent, -exponent * m_lo, -exponent * m_hi
    try:
        scale = hs * hs**p_lo * hs**p_hi  # hs**0.0 is 1.0
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise DomainError(f"panel [{lo}, {hi}] is too narrow for its endpoint powers")

    quadratic_tol = 0.01 * math.sqrt(cfg.rel_tol)  # the second rule's bound on d1 / |S|
    x = 0.5 * (lo + hi)
    try:
        v = lead
        for c in rest:
            v = v * x + c
        # the midpoint, where 1 -+ tanh z = 1 and the weight is pi/2
        node_sum = _HALF_PI * abs(v) ** p
        nodes = 1
        for level in range(_LEVELS + 1):
            one_minus, _, _, tail_start = _node_table(level)
            total = 0.0
            # A node lies hs * (1 - tanh z) from its own side's endpoint: x =
            # hi - hs * (1 - tanh z) on the upper side, x = lo - (-hs) * (1 -
            # tanh z) on the lower.  The table's weight w is at least 1 - tanh
            # z, so hs * w cannot underflow before that distance does.
            for anchor, toward, column in (
                (hi, hs, _endpoint_column(level, p_hi, p_lo)),
                (lo, -hs, _endpoint_column(level, p_lo, p_hi)),
            ):
                # 1 - tanh z decreases along the table, so the side ends
                # before its first zero distance, if any
                end = len(column)
                if toward * one_minus[end - 1] == 0.0:
                    end = bisect.bisect_left(
                        one_minus, True, 0, end, key=lambda om: toward * om == 0.0
                    )
                # the head, t <= 3, where no stop can happen
                head = min(tail_start, end)
                for om, weight in zip(one_minus, islice(column, head)):
                    x = anchor - toward * om
                    v = lead
                    for c in rest:
                        v = v * x + c
                    term = abs(v) ** p * weight
                    total += term
                # the tail stops after two negligible terms in a row; no term
                # is negative, so total is its own absolute value
                negligible = head > 0 and term <= total * 1e-17
                for i in range(head, end):
                    x = anchor - toward * one_minus[i]
                    v = lead
                    for c in rest:
                        v = v * x + c
                    term = abs(v) ** p * column[i]
                    total += term
                    if term > total * 1e-17:
                        negligible = False
                    elif negligible:  # the second negligible term in a row
                        end = i + 1
                        break
                    else:
                        negligible = True
                nodes += end
            node_sum += total
            value = 2.0**-level * node_sum
            if level:
                error = abs(value - previous)
                size = abs(value)
                if error <= cfg.rel_tol * size:
                    return value * scale, error * scale, True, nodes
                # error squares per level: the next difference is about
                # error^2 / last, taken 100 times over, unless this level's
                # fell by more than a square (a cancellation, not convergence)
                if (
                    level >= 2
                    and error < last
                    and error <= quadratic_tol * size
                    and last * last <= 100.0 * error * size
                ):
                    estimate = 100.0 * error * (error / last)
                    if estimate <= cfg.rel_tol * size:
                        return value * scale, estimate * scale, True, nodes
                last = error
            previous = value
    except (ZeroDivisionError, OverflowError):  # abs(v) ** p, p < 0, v = 0.0 or subnormal
        raise SingularPoint(f"unexpected interior zero at {x}") from None
    return value * scale, error * scale, False, nodes


def _integrate_at_unit_scale(
    values: Sequence, n: int, cfg: QuadratureConfig, disc: Fraction
) -> Tuple[float, float]:
    """(value, error estimate) of integral over R of |f|**(-2/n), f with the
    caller's exact coefficients ``values`` and exact D ``disc``, summed over
    the panels of ``_unit_scale_layout`` (which splits f itself where D = 0):
    F(f) = 2^s * 2^(-2e/n) * F(g).  A panel in u = 1/y is integrated on the
    degree-n reversal u^n g(1/u)."""
    # the frames up to the caller: layout, this function, the public integral
    chart, layout = _unit_scale_layout(values, n, disc, cfg.rel_tol, 4)
    exponent = 2.0 / n
    reversal = chart.g[::-1] + [0.0] * (n + 1 - len(chart.g))
    total = 0.0
    total_error = 0.0
    for lo, hi, m_lo, m_hi, reciprocal in layout.panels:
        coeffs = reversal if reciprocal else chart.g
        value, error, converged, _ = _panel_value(coeffs, exponent, lo, hi, m_lo, m_hi, cfg)
        if not converged:
            raise NoConvergence(
                f"panel [{lo}, {hi}] of {'u = 1/y' if reciprocal else 'y'}{chart.units} did not "
                f"reach rel_tol={cfg.rel_tol} within {_LEVELS} levels (last delta {error:.3e})"
            )
        total += value
        total_error += error
    # 2^(-2e/n) = 2^(r/n) * 2^q: only the fractional power rounds
    q, r = divmod(-2 * chart.e, n)
    rescale = 2.0 ** (r / n)
    try:
        value = math.ldexp(total * rescale, q + chart.s)
    except OverflowError:
        value = math.inf
    if not _NORMAL_MIN <= value < math.inf:
        raise DomainError(
            f"the integral lies beyond the float range or below its normal floats "
            f"(2^{q + chart.s} * {total * rescale!r})"
        )
    return value, math.ldexp(total_error * rescale, q + chart.s)


def integral_numeric(
    coeffs: CubicCoeffs, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Tanh-sinh evaluation of the renormalized cubic integral.

    Independent of the closed form: the value comes entirely from panel
    quadrature.  D = 0 and a = b = 0 raise DivergentIntegral.  The layout
    warns IllConditioned on this route as on every other.
    """
    cfg = config or QuadratureConfig()
    disc = _checked_discriminant(coeffs)
    value, error = _integrate_at_unit_scale(coeffs.as_polynomial().coeffs, 3, cfg, disc.value)
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)


def integral_numeric_general(
    f: Polynomial, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Numeric value of integral over R of (f(x)**2)**(-1/n) for deg f = n >= 3.

    No closed form is asserted for n >= 4; this returns numbers only.
    """
    cfg = config or QuadratureConfig()
    if f.degree < 3:
        raise DegreeTooLow(f"general route needs degree >= 3, got {f.degree}")
    disc = discriminant_general(f)
    value, error = _integrate_at_unit_scale(f.coeffs, f.degree, cfg, disc.value)
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)


def gaussian_integral_numeric(
    a: float, b: float, c: float, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Quadrature cross-check for the Gaussian analogue 1/(a*x^2 + b*x + c).

    This is the n = 2 member of the same family (exponent -2/n = -1), so the
    panel machinery applies unchanged; requires a > 0 and b^2 - 4ac < 0.  The
    discriminant is the exact b^2 - 4ac of the coefficients given, and the
    quadrature integrates those same coefficients.
    """
    cfg = config or QuadratureConfig()
    den, n = _checked_gaussian(a, b, c)
    disc = DiscriminantResult.from_value(Fraction(-n, den * den))
    value, error = _integrate_at_unit_scale((a, b, c), 2, cfg, disc.value)
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)
