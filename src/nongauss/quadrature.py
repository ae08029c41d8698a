"""Direct numerical evaluation of integral over R of |f(x)|**(-2/n) dx.

|f|**(-2/n) dx is a density on the projective line (hence F's SL(2)
invariance): the panels are the arcs between consecutive real roots, the arc
through infinity included, each in a chart where it is bounded, y or u = 1/y
(on the reversal u^n f(1/u)), and graded toward its nearest other root.
Tanh-sinh quadrature absorbs the |x - r|**(-2k/n) endpoint singularities
(Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005); endpoint roots are
divided out and their factors rebuilt from the exact endpoint distances of
the transform, so no node loses accuracy to cancellation next to a root.

Root multiplicities are exact, never read from floats: with the exact
discriminant D != 0 every root is simple; with D = 0, the roots of f_k from
Yun's square-free decomposition of f's integers are those of multiplicity k.
So a close complex pair is never taken for a double real root; distinct
roots that land on one float raise NoConvergence, and a root with 2k >= n
raises RepeatedRootDivergence (at infinity, k = n - deg f).  A real root of
the float form where the exact D < 0 allows none is NoConvergence too.

Every integral runs at unit root scale, on the one float form g(y) = 2^-e
f(2^s y + t) of ``polynomial._chart``: a root cluster far from the origin,
relative to its size, is centred on its centroid, rounded once, and the
smallest nonzero root and the largest coefficient come to unit size.  F is
translation invariant and changes by an exact factor under the other two,
so f(2^j x) costs what f costs, and its value and error estimate are those
of f times 2^-j, to the last bit.  g is rounded once from the exact
integers, stripped once of leading coefficients that underflow (a root at
infinity), and read as it is by the locator and the panels.

Each level's tanh-sinh node table is built once and shared by every panel
of every call; ``QuadratureConfig.max_levels`` is 4..16, so the tables hold
at most about 0.4M nodes.  An endpoint root of multiplicity m contributes
(hs * (1 -+ tanh z))**(-2m/n) at each node: its hs power is applied once per
panel, and the weight times the (1 -+ tanh z) powers is a column cached per
(level, near power, far power), at most 128 of them, least recently used
out first: 13 MB at most at the default 12 levels, 0.2 GB at 16.  Panels are
independent and pure, so callers may evaluate them concurrently and sum.
"""

from __future__ import annotations

import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .discriminant import DiscriminantResult, _discriminant_and_gcd
from .errors import (
    DegreeTooLow,
    DomainError,
    IllConditionedWarning,
    NoConvergence,
    RepeatedRootDivergence,
    SingularPoint,
)
from .polynomial import (
    CubicCoeffs,
    Polynomial,
    _chart,
    _moved,
    _real_roots,
    _squarefree,
    squarefree_factors,
)
from .renorm import IntegralMethod, IntegralResult, _checked_discriminant, _checked_gaussian

_HALF_PI = math.pi / 2.0
# |D| below this multiple of scale**4 still computes but is flagged.
_DISCRIMINANT_CONDITION_BAND = 1e-3
# adjacent roots a < b closer than this times max(1, |a|, |b|), in x, are flagged
_SINGULARITY_CLEARANCE = 1e-6
# Levels 0..16 of cached node tables hold about 0.4M nodes (10 MB); each
# further level would double that.
_MAX_LEVELS = 16
# endpoint-factor columns kept by _endpoint_column, each one level long
_COLUMN_CACHE_SIZE = 128
_GRADE_RATIO = 16.0  # ratio of consecutive cut distances in _graded
_GRADE_REACH = 4.0  # _graded cuts while a panel reaches this far beyond the cut
_CUT_CLEARANCE = 2.0**-40  # least cut distance, relative to the point cut toward


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    max_levels: int = 12

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (type(self.max_levels) is int and 4 <= self.max_levels <= _MAX_LEVELS):
            raise DomainError(
                f"max_levels must be an int in 4..{_MAX_LEVELS}, got {self.max_levels!r}"
            )


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


def _synthetic_quotient(coeffs: Sequence[float], root: float) -> list:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    return out


def _complex_reach(g: list, roots: list) -> float:
    """1/rho, rho the largest modulus of a non-real root of g (0.0 if none): in
    u = 1/y all of them lie within 1/rho of 0.  Moduli are Newton-polygon
    estimates (Bini 1996): an edge of the upper hull of the points (k,
    log2|c_k|) from power k1 to k2 stands for k2 - k1 roots of modulus
    (|c_k1|/|c_k2|)^(1/(k2 - k1)); each nonzero real root takes out the nearest."""
    points = [(k, math.log2(abs(c))) for k, c in enumerate(reversed(g)) if c]
    moduli, (k1, l1) = [], points[0]
    while k1 < points[-1][0]:  # the hull vertex after k1: steepest, then farthest
        right = [p for p in points if p[0] > k1]
        k2, l2 = max(right, key=lambda p: ((p[1] - l1) / (p[0] - k1), p[0]))
        moduli += [(l1 - l2) / (k2 - k1)] * (k2 - k1)
        k1, l1 = k2, l2
    for log_r in [math.log2(abs(r)) for r, k in roots if r for _ in range(k)][: len(moduli)]:
        moduli.remove(min(moduli, key=lambda m: abs(m - log_r)))
    return 2.0 ** min(-max(moduli), 1000.0) if moduli else 0.0


def _graded(panel: Panel, images: list, reach: float) -> list:
    """``panel`` cut d, R d, R^2 d, ... from its point nearest its nearest
    feature, d away, while it reaches beyond _GRADE_REACH times the next: a
    root in ``images`` (the chart's) that is not an end, or the non-real
    roots, within ``reach`` of u = 0.  Each piece then ends a distance of its
    own order from the feature, and no cut is within rounding of the point."""
    lo, hi, m_lo, m_hi, reciprocal = panel
    features = [(z, 0.0) for z in images if not lo <= z <= hi] + [(0.0, reach)] * (reach > 0)
    nearest = ((max(abs(z - p), least), p) for z, least in features for p in [min(max(z, lo), hi)])
    d, point = min(nearest, default=(math.inf, lo))
    cuts = []
    for end in (lo, hi):
        step = max(d, _CUT_CLEARANCE * abs(point))
        while abs(end - point) > _GRADE_REACH * step:
            cuts.append(point + math.copysign(step, end - point))
            step *= _GRADE_RATIO
    ends = [lo] + sorted(cuts) + [hi]
    return [
        Panel(a, b, m_lo if a == lo else 0, m_hi if b == hi else 0, reciprocal)
        for a, b in zip(ends, ends[1:])
    ]


def decompose(f: Polynomial, family_degree: Optional[int] = None) -> PanelDecomposition:
    """The panels on which the quadrature evaluates the integral over R of
    |f|**(-2/n), n = ``family_degree`` (default max(3, deg f)), and the real
    roots as breakpoints, in y of ``_unit_scale_layout`` (u = 1/y for a
    ``reciprocal`` panel); root multiplicities come from Yun's factors.  n is
    an int >= deg f, and u^n f(1/u) has a root of multiplicity n - deg f at
    u = 0, the root at infinity, which diverges like any other root."""
    if f.degree < 2:
        raise DegreeTooLow(f"need degree >= 2, got {f.degree}")
    n = family_degree if family_degree is not None else max(3, f.degree)
    if not (type(n) is int and n >= f.degree):  # not a bool either
        raise DomainError(f"family_degree must be an int >= deg f = {f.degree}, got {n!r}")
    if 2 * (n - f.degree) >= n:
        raise RepeatedRootDivergence(
            f"the root at infinity has multiplicity {n - f.degree}; "
            f"|x|**(-{2 * f.degree}/{n}) is not integrable there"
        )
    return _unit_scale_layout(f.coeffs, n, squarefree_factors(f), 3)[-1]


def _unit_scale_layout(
    values: Sequence, n: int, factors: Optional[list], stacklevel: int
) -> tuple:
    """(g, s, e, units, panels) of the integral of |f|**(-2/n) at unit root
    scale, (t, s, e, g) = ``_chart(values)`` for f's coefficients ``values``
    (``units`` names y): g's degree, root at infinity and reversal come from it.
    ``factors`` is ``squarefree_factors(f)``, or None when the exact D != 0:
    the simple roots of a square-free f are located on g, else those of each
    f_k, moved as g is, are its roots of multiplicity k.  A root with 2k >= n
    raises RepeatedRootDivergence (NoConvergence when D != 0: the float form
    is at fault), distinct roots on one float NoConvergence.  The
    close-roots warning goes to the frame ``stacklevel`` up, the public
    function's caller."""
    t, s, e, g = _chart(values)
    shift = f"(x {'-' if t > 0 else '+'} {abs(t)!r})" if t else "x"
    units = f" (in y = {shift} / 2^{s})" if s else f" (in y = {shift})" if t else ""

    located = [(g, 1)] if factors is None or [k for _, k in factors] == [1] else [
        (_chart(p.coeffs, t, s)[3], k) for p, k in factors
    ]
    roots = sorted((r, k) for coeffs, k in located for r in _real_roots(coeffs))
    for root, k in roots:
        if 2 * k < n:
            continue
        if factors is None:  # every root simple, so n = 2, where the exact D < 0
            raise NoConvergence(
                f"the float form has a real root at {root}{units}, which the exact "
                "discriminant rules out: double precision does not resolve the integral"
            )
        raise RepeatedRootDivergence(
            f"root {root}{units} has multiplicity {k}; "
            f"|x - r|**(-{2 * k}/{n}) is not integrable"
        )
    gaps = [b - a for (a, _), (b, _) in zip(roots, roots[1:])]
    if 0.0 in gaps:
        raise NoConvergence(
            f"roots within rounding of each other at {roots[gaps.index(0.0)][0]}{units}: "
            "the exact discriminant is nonzero on the square-free part, so they are distinct "
            "and the integral is finite, but double precision does not resolve it"
        )
    in_x = _moved([r for r, _ in roots], s, t)
    pairs = zip(in_x, in_x[1:])
    close = [b - a for a, b in pairs if b - a < _SINGULARITY_CLEARANCE * max(1.0, abs(a), abs(b))]
    if close:
        warnings.warn(
            f"two roots are within {min(close):.3e} of each other; "
            "quadrature error may exceed the requested tolerance",
            IllConditionedWarning,
            stacklevel=stacklevel,
        )
    # Arcs between the roots, u = 0 when deg g < n (a root of multiplicity
    # n - deg g), and y = 2 (-2) unless a root in [1, 4] ([-4, -1]) stands in
    # its place: each has |y| >= 1 on it (in u = 1/y) or lies in [-4, 4] (in y).
    origin = n - (len(g) - 1)
    cuts = [(y, 0) for y in (-2.0, 2.0) if not any(0.5 <= r / y <= 2.0 for r, _ in roots)]
    marks = sorted(roots + cuts + [(math.inf, origin)] * (origin > 0))
    in_y = [r for r, _ in roots]
    in_u = [1.0 / r for r in in_y if r] + [0.0] * (origin > 0)
    reach = _complex_reach(g, roots)
    panels = []
    for (lo, m_lo), (hi, m_hi) in zip(marks, marks[1:] + marks[:1]):
        if lo >= hi or lo >= 1.0 or hi <= -1.0:  # through infinity, or beyond y = +-1
            panels += _graded(Panel(1.0 / hi, 1.0 / lo, m_hi, m_lo, reciprocal=True), in_u, reach)
        else:
            panels += _graded(Panel(lo, hi, m_lo, m_hi), in_y, 0.0)
    return g, s, e, units, PanelDecomposition(tuple(in_y), tuple(panels))


@functools.cache
def _node_table(h: float, only_odd: bool) -> tuple:
    """Unit-panel tanh-sinh nodes t = k*h, k = 1, 2, ... (odd k only when
    ``only_odd``): (1 - tanh z, 1 + tanh z, pi/2 * cosh t * (1 - tanh z) *
    (1 + tanh z), index of the first node with t > 3), z = pi/2 * sinh t.

    A panel of half-width hs places its nodes hs * (1 - tanh z) from an
    end, bit-identical to evaluating the node formulas per panel, and
    scales its sums by hs once (see ``_endpoint_column``).  The table ends
    before the first node whose 1 - tanh z underflows to zero (t ~ 6.16),
    since that node is zero on every panel; the weight is at least
    1 - tanh z, so it is not zero first.  Built on first use; about 25k
    nodes for levels 0-12 and 0.4M for 0-16, held as ``array('d')`` columns.
    """
    one_minus, one_plus, weights = array("d"), array("d"), array("d")
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
        k += 2 if only_odd else 1
    return one_minus, one_plus, weights, tail_start


@functools.lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _endpoint_column(h: float, only_odd: bool, p_near: float, p_far: float) -> array:
    """The weights of ``_node_table(h, only_odd)`` times the endpoint factors
    of a unit panel, w * (1 - tanh z)**p_near * (1 + tanh z)**p_far, for the
    nodes of the side whose own endpoint carries the power p_near; the
    weight column itself when both powers are zero.

    A panel of half-width hs multiplies every term by hs * hs**(p_near +
    p_far), once, so each node costs one multiply by this column.  The
    column ends early at a subnormal 1 - tanh z whose power overflows (an
    endpoint power near -1, degree 23 and above); those nodes are
    negligible.
    """
    one_minus, one_plus, weights, _ = _node_table(h, only_odd)
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
    Each side of a level walks the level's node table outwards until a
    distance underflows, or past t = 3 once two terms in a row are
    negligible.
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

    x = 0.5 * (lo + hi)
    v = lead
    for c in rest:
        v = v * x + c
    if v == 0.0:
        raise SingularPoint(f"unexpected interior zero at {x}")
    # the midpoint, where 1 -+ tanh z = 1 and the weight is pi/2
    node_sum = _HALF_PI * abs(v) ** p
    nodes = 1
    h, only_odd = 1.0, False
    for level in range(cfg.max_levels + 1):
        one_minus, _, _, tail_start = _node_table(h, only_odd)
        total = 0.0
        # A node lies hs * (1 - tanh z) from its own side's endpoint: x =
        # hi - hs * (1 - tanh z) on the upper side, x = lo - (-hs) * (1 -
        # tanh z) on the lower.  The table's weight w is at least 1 - tanh z,
        # so hs * w cannot underflow before that distance does.
        for anchor, toward, column in (
            (hi, hs, _endpoint_column(h, only_odd, p_hi, p_lo)),
            (lo, -hs, _endpoint_column(h, only_odd, p_lo, p_hi)),
        ):
            negligible = 0
            for i, (om, weight) in enumerate(zip(one_minus, column)):
                offset = toward * om
                if offset == 0.0:
                    break
                x = anchor - offset
                v = lead
                for c in rest:
                    v = v * x + c
                if v == 0.0:
                    raise SingularPoint(f"unexpected interior zero at {x}")
                term = abs(v) ** p * weight
                total += term
                # no term is negative, so total is its own absolute value
                if term <= total * 1e-17:
                    negligible += 1
                    if negligible >= 2 and i >= tail_start:
                        i += 1  # node i was evaluated
                        break
                else:
                    negligible = 0
            else:
                i = len(column)
            nodes += i
        node_sum += total
        value = h * node_sum
        if level:
            error = abs(value - previous)
            if error <= cfg.rel_tol * abs(value):
                return value * scale, error * scale, True, nodes
        previous = value
        h, only_odd = 0.5 * h, True
    return value * scale, error * scale, False, nodes


def _integrate_at_unit_scale(
    values: Sequence, family_degree: int, cfg: QuadratureConfig, factors: Optional[list] = None
) -> Tuple[float, float]:
    """(value, error estimate) of integral over R of |f|**(-2/n), f with the
    caller's exact coefficients ``values``, summed over the panels of
    ``_unit_scale_layout``: F(f) = 2^s * 2^(-2e/n) * F(g).  A panel in u =
    1/y is integrated on the degree-n reversal u^n g(1/u)."""
    # the frames up to the caller: layout, this function, the public integral
    g, s, e, units, layout = _unit_scale_layout(values, family_degree, factors, 4)
    exponent = 2.0 / family_degree
    reversal = g[::-1] + [0.0] * (family_degree + 1 - len(g))
    total = 0.0
    total_error = 0.0
    for lo, hi, m_lo, m_hi, reciprocal in layout.panels:
        coeffs = reversal if reciprocal else g
        value, error, converged, _ = _panel_value(coeffs, exponent, lo, hi, m_lo, m_hi, cfg)
        if not converged:
            raise NoConvergence(
                f"panel [{lo}, {hi}] of {'u = 1/y' if reciprocal else 'y'}{units} did not reach "
                f"rel_tol={cfg.rel_tol} within {cfg.max_levels} levels (last delta {error:.3e})"
            )
        total += value
        total_error += error
    # 2^(-2e/n) = 2^(r/n) * 2^q: only the fractional power rounds
    q, r = divmod(-2 * e, family_degree)
    rescale = 2.0 ** (r / family_degree)
    try:
        value = math.ldexp(total * rescale, q + s)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(
            f"the integral lies beyond the float range (2^{q + s} * {total * rescale!r})"
        )
    return value, math.ldexp(total_error * rescale, q + s)


def integral_numeric(
    coeffs: CubicCoeffs, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Tanh-sinh evaluation of the renormalized cubic integral.

    Independent of the closed form: the value comes entirely from panel
    quadrature.  D = 0 and a = b = 0 raise DivergentIntegral; |D| below
    1e-3 * scale**4, scale the largest |coefficient|, is computed but flagged
    IllConditioned, decided exactly on the coefficients as given.
    """
    cfg = config or QuadratureConfig()
    disc = _checked_discriminant(coeffs)
    # |D| < band * scale^4, each side an exact ratio of integers, cross-multiplied
    d_num, d_den = abs(disc.value).as_integer_ratio()
    band_num, band_den = _DISCRIMINANT_CONDITION_BAND.as_integer_ratio()
    s_num, s_den = max(map(abs, coeffs.as_tuple())).as_integer_ratio()
    if d_num * band_den * s_den**4 < band_num * s_num**4 * d_den:
        warnings.warn(
            f"|D| / scale^4 = {d_num * s_den**4 / (s_num**4 * d_den):.3e} is below "
            f"{_DISCRIMINANT_CONDITION_BAND}; singularities nearly coalesce",
            IllConditionedWarning,
            stacklevel=2,
        )
    value, error = _integrate_at_unit_scale(coeffs.as_polynomial().coeffs, 3, cfg)
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
    disc, gcd = _discriminant_and_gcd(f)
    factors = None if disc.value else _squarefree(f, gcd)
    value, error = _integrate_at_unit_scale(f.coeffs, f.degree, cfg, factors)
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
    value, error = _integrate_at_unit_scale((a, b, c), 2, cfg)
    disc = DiscriminantResult.from_value(Fraction(-n, den * den))
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)
