"""Direct numerical evaluation of integral over R of |f(x)|**(-2/n) dx.

|f|**(-2/n) dx is a density on the projective line (hence F's SL(2)
invariance): the panels are the arcs between consecutive real roots, the arc
through infinity included, each in a chart where it is bounded, y or u = 1/y
(on the reversal u^n f(1/u)), and graded toward its nearest other root.
Gauss-Jacobi quadrature puts the |x - r|**(-2k/n) endpoint singularities in
its weight, which integrates them exactly: their exponents are exact, since
the exact D fixes every multiplicity (Golub & Welsch 1969; Hale & Townsend
2013).  Endpoint roots are divided out, so the rules see only the smooth
rest, and no node loses accuracy to cancellation next to a root.

Root multiplicities are exact, never read from floats, and decided once, by
``_unit_scale_layout`` from the sign of the exact D it is passed: with D != 0
every root is simple; with D = 0, the roots of f_k from Yun's square-free
decomposition of f's integers are those of multiplicity k.  So a close
complex pair is never taken for a double real root; distinct roots on one
float raise NoConvergence, and a root with 2k >= n RepeatedRootDivergence
(at infinity, k = n - deg f), or NoConvergence if D < 0 rules it out (so
n = 2), as does a root at infinity that only the float form has.

Each public route clears its caller's coefficients once, at its entry, to
integers over one denominator, and every integral runs at unit root scale,
on the one float form g(y) = 2^-e f(2^s y + t) that ``polynomial._chart``
rounds from those integers.  A cubic with a != 0 and D != 0 is charted by
``polynomial._covariant_chart``: t + i 2^s is, to within a factor of 2 in
2^s, the complex root of its Hessian covariant for D > 0 and its own
complex root for D < 0, from which no two of its roots are close, and its
roots come in closed form, polished by Newton steps.
Every other form, and a cubic whose covariant centre is not a finite
float, keeps the chart where a root cluster far from the origin,
relative to its size, is centred on its centroid, rounded once, and the
smallest nonzero root and the largest coefficient come to unit size, and
its roots come from the locator.  F is translation invariant and changes
by an exact factor under the other two, so f(2^j x) costs what f costs,
warns where f warns, and its value and error estimate are those of f times
2^-j, to the last bit.  g is rounded once, stripped once of leading
coefficients that underflow (a root at infinity), and read as it is by
the root location, the panels and the one IllConditionedWarning: rounding
g may move a root by more than rel_tol of its distance to the nearest
other root or critical point.

A panel of half-width hs about mid, x = mid + hs t, with endpoint root
multiplicities m_lo and m_hi and p = 2/n, runs the m-point Gauss-Jacobi
rules of the weight (1 - t)**(-p m_hi) (1 + t)**(-p m_lo) for m = 8, 16,
32, 64, 128 in turn.  With G_m a rule's value, it stops at the first m where
|G_m - G_(m/2)| <= rel_tol |G_m|, and reports that difference: the error of
the coarser rule, which geometric convergence makes much larger than the
finer one's.  The rules are built on first use, 14 ms per ladder of five
on a 2-vCPU Xeon under Python 3.11, and kept per (m, alpha, beta), at most
256 of them.  The error estimate of an integral is the sum of the panels':
a model of the error, not a bound.  Panels are independent and pure, so
callers may evaluate them concurrently and sum.

A panel that no rule resolves, or where |q|**-p fails at a node (a zero or
an overflow), is cut at its midpoint, and each half runs the ladder with its
outer end's multiplicity and none at the cut; its value, estimate and nodes
are the halves' sums, the failed ladder's nodes included.  A half is cut in
turn, down to _BISECTIONS = 8 cuts, so a panel runs at most 2^9 - 1 ladders
of 248 nodes.  The first half that fails at that depth ends the panel
unconverged, or raises SingularPoint naming the node where the power failed,
and no more work is done; a q that is 0.0 at a cut raises SingularPoint too.

The ladder runs in one function per length of q, generated by
``polynomial._compiled`` in this module's globals from its source template
and compiled on first use, with Horner's rule written out on local
coefficients: a loop over q cost about as much per node as the rest of the
node.  The source depends on nothing but that length, the coefficients are
arguments, and the operations are a loop's in its order, so values, error
estimates and node counts are the loop's bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .discriminant import DiscriminantResult
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
    _compiled,
    _covariant_chart,
    _exact,
    _real_roots,
    _synthetic_quotient,
    derivative_coeffs,
    horner,
    squarefree_factors,
)
from .renorm import _NORMAL_MIN, IntegralMethod, IntegralResult, _checked_gaussian, _exact_cubic

# Gauss-Jacobi rules tried per panel, in turn, before it is bisected
_GAUSS_LADDER = (8, 16, 32, 64, 128)
_BISECTIONS = 8  # midpoint cuts at most between a panel and its smallest half
_RULE_CACHE_SIZE = 256  # rules kept by _jacobi_rule, per (m, alpha, beta)
_NEWTON_STEPS = 16  # Newton steps at most per node of _jacobi_rule
_GRADE_RATIO = 16.0  # ratio of consecutive cut distances in _graded
_GRADE_REACH = 4.0  # _graded cuts while a panel reaches this far beyond the cut
_CUT_CLEARANCE = 2.0**-40  # least cut distance, relative to the point cut toward


class _QuadratureConfig(NamedTuple):
    rel_tol: float = 1e-10


class QuadratureConfig(_QuadratureConfig):
    """The quadrature's one setting; every record built, by ``_make`` and
    ``_replace`` too, has 0 < rel_tol < inf."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Panel(NamedTuple):
    """An integration interval, in u = 1/y if ``reciprocal``, and its ends' root multiplicities."""

    lo: float
    hi: float
    lo_multiplicity: int = 0
    hi_multiplicity: int = 0
    reciprocal: bool = False


class PanelDecomposition(NamedTuple):
    breakpoints: tuple
    panels: tuple


def _complex_reach(g: list, roots: list) -> float:
    """1/rho, rho the largest modulus of a non-real root of g (0.0 if none): in
    u = 1/y all of them lie within 1/rho of 0.  Moduli are Newton-polygon
    estimates (Bini 1996): an edge of the upper hull of the points (k,
    log2|c_k|) from power k1 to k2 stands for k2 - k1 roots of modulus
    (|c_k1|/|c_k2|)^(1/(k2 - k1)); each nonzero real root takes out the nearest.
    The edges span g's lowest to highest nonzero power: as many nonzero real
    roots take out every modulus, so the polygon is not built."""
    low = next(k for k, c in enumerate(reversed(g)) if c)  # g's lowest nonzero power
    if sum([k for r, k in roots if r]) >= len(g) - 1 - low:  # its highest, g[0] != 0
        return 0.0
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
    ints, den, d = _exact(f.coeffs)
    n = family_degree if family_degree is not None else max(3, f.degree)
    if not (type(n) is int and n >= f.degree):  # not a bool either
        raise DomainError(f"family_degree must be an int >= deg f = {f.degree}, got {n!r}")
    return _unit_scale_layout(ints, den, n, d, QuadratureConfig().rel_tol, 3)[1]


def _unit_scale_layout(
    ints: list, den: int, n: int, disc: int, rel_tol: float, stacklevel: int
) -> Tuple[Chart, PanelDecomposition]:
    """(chart, panels) of the integral of |f|**(-2/n), f = ints / den as the
    entry cleared it, at unit root scale on chart = ``_covariant_chart(ints,
    den, disc)`` for a cubic with a != 0 and D != 0 where it has one, else
    ``_chart(ints, den)``.  Where ``disc``, an int of D's sign, is not 0,
    every root is simple and located on chart.g, in closed form on the
    covariant chart and by the locator on the other; with D = 0 the roots of
    each f_k of ``squarefree_factors(f)``, moved as g is, are its roots of
    multiplicity k.  The errors are the module docstring's; the rounding
    warning goes to the frame ``stacklevel`` up, the public function's
    caller."""
    degree = len(ints) - 1
    if 2 * (n - degree) >= n:
        raise RepeatedRootDivergence(
            f"the root at infinity has multiplicity {n - degree}; "
            f"|x|**(-{2 * degree}/{n}) is not integrable there"
        )
    covariant = _covariant_chart(ints, den, disc) if degree == 3 and disc else None
    if covariant:
        chart, closed = covariant
        found = [(closed, 1)]
    else:
        chart = _chart(ints, den)
        located = [(chart.g, 1)] if disc else [
            (_chart(p.coeffs, 1, chart.t, chart.s).g, k)
            for p, k in squarefree_factors(Polynomial(ints))
        ]
        found = [(_real_roots(coeffs), k) for coeffs, k in located]
    g = chart.g
    roots = sorted((r + 0.0, k) for (rs, _, _), k in found for r in rs)  # 0.0, never -0.0
    critical = [c for (_, cs, _), _ in found for c in cs]
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


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _jacobi_rule(m: int, alpha: float, beta: float) -> Tuple[tuple, tuple]:
    """The m-point Gauss-Jacobi rule of the weight (1 - t)**alpha (1 +
    t)**beta on [-1, 1], alpha, beta > -1: (nodes, weights), the nodes
    falling from near 1.  Built on first use, kept per (m, alpha, beta).

    Each node is a root of P_m = P_m^(alpha, beta), found by Newton's method
    in theta = arccos t on P_m(cos theta) and its derivative, both by the
    three-term recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013):
    the first two from the interior asymptotic (k + alpha/2 - 1/4) pi / rho,
    rho = m + (alpha + beta + 1)/2, each later one from a straight line
    through the previous two roots, since the roots are nearly evenly spaced
    in theta.  Newton in theta keeps the roots near t = +-1 apart, where
    they crowd in t.  The weights are Christoffel's, proportional to 1 /
    ((1 - t^2) P_m'(t)^2) with 1 - t^2 = sin(theta)^2, and scaled to sum to
    the weight's integral 2^(alpha + beta + 1) B(alpha + 1, beta + 1), as
    every Gauss rule integrates a constant exactly.  The derivative, not
    P_(m-1), gives them: P_(m-1) is small at the outer roots, and at the
    outermost of 128 its value at the rounded node was 2e-11 off.
    """
    ab = alpha + beta
    steps = []  # P_n = (b + a t) P_(n-1) - g P_(n-2), n = 2 ... m
    for n in range(2, m + 1):
        c = 2 * n + ab
        scale = 2 * n * (n + ab) * (c - 2)
        steps.append((
            (c - 1) * (alpha * alpha - beta * beta) / scale,
            (c - 2) * (c - 1) * c / scale,
            2 * (n + alpha - 1) * (n + beta - 1) * c / scale,
        ))
    b1, a1 = 0.5 * (alpha - beta), 0.5 * (ab + 2.0)  # P_1 = b1 + a1 t

    def value_and_slope(t):
        p0, p1, d0, d1 = 1.0, b1 + a1 * t, 0.0, a1
        for b, a, g in steps:
            u = b + a * t
            p0, p1, d0, d1 = p1, u * p1 - g * p0, d1, u * d1 + a * p1 - g * d0
        return p1, d1

    rho = m + 0.5 * (ab + 1.0)
    thetas, nodes, weights = [], [], []
    for k in range(1, m + 1):
        if k <= 2:
            theta = (k + 0.5 * alpha - 0.25) * math.pi / rho
        else:
            theta = 2.0 * thetas[-1] - thetas[-2]
        close = False
        for _ in range(_NEWTON_STEPS):
            p, d = value_and_slope(math.cos(theta))
            step = p / (math.sin(theta) * d)  # -P_m / (dP_m / dtheta)
            theta += step
            if close:
                break
            # Newton converges quadratically: one more step from within 1e-8
            # reaches the rounding of cos theta, below which steps are noise
            close = abs(step) <= 1e-8 * theta
        t = math.cos(theta)
        _, d = value_and_slope(t)
        thetas.append(theta)
        nodes.append(t)
        weights.append(1.0 / (math.sin(theta) * d) ** 2)
    mass = 2.0 ** (ab + 1.0) * math.exp(
        math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0)
    )
    total = math.fsum(weights)
    return tuple(nodes), tuple(mass * w / total for w in weights)


# The Gauss-Jacobi ladder of a panel whose quotient q has k coefficients,
# formatted by ``polynomial._compiled``
# from k alone: ``{names}`` unpacks q into the locals lead, c0, c1, ... and
# ``{horner}`` is Horner's rule on them written out, ((lead * x + c0) * x +
# c1) ..., the operations of a loop over q in its order.
_GAUSS_SOURCE = """\
def kernel(q, p, mid, hs, p_lo, p_hi, scale, rel_tol):
    {names} = q
    nodes = 0
    previous = None
    try:
        for m in _GAUSS_LADDER:
            ts, ws = _jacobi_rule(m, p_hi, p_lo)
            total = 0.0
            for t, w in zip(ts, ws):
                x = mid + hs * t
                total += abs({horner}) ** p * w
            if total == math.inf:  # the sum overflowed, as a power at one of its nodes may
                raise OverflowError
            nodes += m
            if previous is not None:
                error = abs(total - previous)
                if error <= rel_tol * total:  # no term is negative
                    return total * scale, error * scale, True, nodes
            previous = total
    except (ZeroDivisionError, OverflowError):  # abs(q(x)) ** p, p < 0, q(x) 0.0 or subnormal
        # no value, and the node in place of the error; the rule cut short counts in full
        return None, x, False, nodes + m
    return total * scale, error * scale, False, nodes
"""


@functools.cache
def _gauss_kernel(k: int):
    """The Gauss-Jacobi ladder of ``_panel_value`` for quotients of k
    coefficients, compiled from ``_GAUSS_SOURCE`` on first use."""
    return _compiled(_GAUSS_SOURCE, k, "gauss kernel", globals())


def _panel_value(
    coeffs: Sequence[float],
    exponent: float,
    lo: float,
    hi: float,
    m_lo: int,
    m_hi: int,
    cfg: QuadratureConfig,
    depth: int = 0,
) -> Tuple[float, float, bool, int]:
    """Value of |p|**(-exponent) on [lo, hi], p the polynomial with
    ``coeffs`` and roots of multiplicity m_lo at lo and m_hi at hi:
    (value, error estimate, converged, integrand evaluations).

    With x = mid + hs t, the integrand is hs**p_lo (1 + t)**p_lo hs**p_hi
    (1 - t)**p_hi |q(x)|**-exponent, q with the endpoint roots divided out:
    the hs powers scale the panel once, and the Gauss-Jacobi rules of the
    weight (1 - t)**p_hi (1 + t)**p_lo integrate the rest from |q|, which is
    smooth on the panel, at their nodes alone.  The rules of
    ``_GAUSS_LADDER`` run in turn, in the kernel ``_gauss_kernel(len(q))``,
    and the panel stops at the first whose value differs from the last rule's
    by at most rel_tol of it, and reports that difference.  A panel that
    does not, or meets a zero or an overflow of |q|**-exponent at a node, is
    cut at its midpoint into halves that run the same way, as the module
    docstring has it; ``depth`` counts the cuts above this panel.  Once
    ``_BISECTIONS`` cuts are made, a panel that no rule resolves returns
    unconverged, with its last rule's value and difference, and one whose
    power failed raises SingularPoint.
    """
    hs = 0.5 * (hi - lo)
    if hs == 0.0:
        return 0.0, 0.0, True, 0
    mid = 0.5 * (lo + hi)
    q = coeffs
    for _ in range(m_lo):
        q = _synthetic_quotient(q, lo)
    for _ in range(m_hi):
        q = _synthetic_quotient(q, hi)
    p_lo, p_hi = -exponent * m_lo, -exponent * m_hi
    try:
        scale = hs * hs**p_lo * hs**p_hi  # hs**0.0 is 1.0
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise DomainError(f"panel [{lo}, {hi}] is too narrow for its endpoint powers")
    value, error, converged, nodes = _gauss_kernel(len(q))(
        q, -exponent, mid, hs, p_lo, p_hi, scale, cfg.rel_tol
    )
    if converged:
        return value, error, True, nodes
    if depth >= _BISECTIONS:
        if value is None:  # the power failed at the node ``error``
            raise SingularPoint(f"unexpected interior zero at {error}")
        return value, error, False, nodes
    if horner(q, mid) == 0.0:
        raise SingularPoint(f"unexpected interior zero at {mid}")
    value = error = 0.0
    for half in ((lo, mid, m_lo, 0), (mid, hi, 0, m_hi)):
        v, e, converged, more = _panel_value(coeffs, exponent, *half, cfg, depth + 1)
        value, error, nodes = value + v, error + e, nodes + more
        if not converged:
            break
    return value, error, converged, nodes


def _integrate_at_unit_scale(
    ints: list, den: int, d: int, n: int, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """The ``IntegralResult`` of integral over R of |f|**(-2/n), f = ints / den
    with d = den^(2 deg - 2) D as ``polynomial._exact`` gives them, summed
    over the panels of ``_unit_scale_layout``: F(f) = 2^s * 2^(-2e/n) * F(g).
    A leading zero (the a = 0 cubic) leaves the lower degree, with the root
    at infinity.  A panel in u = 1/y is integrated on the degree-n reversal
    u^n g(1/u)."""
    cfg = config or QuadratureConfig()
    disc = DiscriminantResult.from_value(Fraction(d, den ** (2 * len(ints) - 4)))
    form = ints[1:] if ints[0] == 0 else ints
    # the frames up to the caller: layout, this function, the public integral
    chart, layout = _unit_scale_layout(form, den, n, d, cfg.rel_tol, 4)
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
                f"reach rel_tol={cfg.rel_tol} within {_BISECTIONS} bisections "
                f"(last delta {error:.3e})"
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
    error = math.ldexp(total_error * rescale, q + chart.s)
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)


def integral_numeric(
    coeffs: CubicCoeffs, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Quadrature evaluation of the renormalized cubic integral.

    Independent of the closed form: the value comes entirely from panel
    quadrature.  D = 0 and a = b = 0 raise DivergentIntegral.  The layout
    warns IllConditioned on this route as on every other.
    """
    ints, den, d, _ = _exact_cubic(coeffs)
    return _integrate_at_unit_scale(ints, den, d, 3, config)


def integral_numeric_general(
    f: Polynomial, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Numeric value of integral over R of (f(x)**2)**(-1/n) for deg f = n >= 3.

    No closed form is asserted for n >= 4; this returns numbers only.
    """
    if f.degree < 3:
        raise DegreeTooLow(f"general route needs degree >= 3, got {f.degree}")
    return _integrate_at_unit_scale(*_exact(f.coeffs), f.degree, config)


def gaussian_integral_numeric(
    a: float, b: float, c: float, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Quadrature cross-check for the Gaussian analogue 1/(a*x^2 + b*x + c).

    This is the n = 2 member of the same family (exponent -2/n = -1), so the
    panel machinery applies unchanged; requires a > 0 and b^2 - 4ac < 0.  The
    discriminant is the exact b^2 - 4ac of the coefficients given, and the
    quadrature integrates those same coefficients.
    """
    return _integrate_at_unit_scale(*_checked_gaussian(a, b, c), 2, config)
