"""Direct numerical evaluation of integral over R of |f(x)|**(-2/n) dx.

Strategy: split the line at the real roots of f, then integrate each panel
with tanh-sinh (double-exponential) quadrature.  The double-exponential map
absorbs the algebraic |x - r|**(-2m/n) endpoint singularities, and the two
unbounded tails are folded onto finite intervals with the reciprocal
substitution u = 1/x.  A tail is then one more panel, of the degree-n
reversal G(u) = u^n f(1/u) on (0, 1/cut] or [-1/cut, 0): G has a root of
multiplicity n - deg f at u = 0 (none when deg f = n), and that endpoint
root is divided out like any other.  One panel builder serves every panel.

Every integral runs at unit root scale, centred first.  A cluster of roots far
from the origin, relative to its own size, is first moved onto the origin:
when the shift shrinks Fujiwara's root bound at least 4x, the panels
integrate f(x + t), t the root centroid -a1 / (n a0) rounded to a 24-bit
dyadic.  F is translation invariant, so the value needs no correction; the
shift runs in exact integers and each coefficient is rounded to float once.
Then, with 2^s a binary lower bound on the smallest modulus of the nonzero
roots (read from the exponents of the coefficients alone) and 2^e the power
of two just below the largest coefficient of f(2^s y + t), the panels
integrate g(y) = 2^-e f(2^s y + t) and F(f) = 2^s * 2^(-2e/n) * F(g).  All
of this commutes with dilations: f(2^j x) normalizes to the very same g for
every j, so a dilated form costs what the form itself costs, and its value
and error estimate are those of f times 2^-j, to the last bit.

The degree >= 4 route passes on what its exact discriminant proves: with
D != 0 every root is simple, so only an exact zero of the float form at a
critical point is taken for a root, and a close complex pair is never
mistaken for a double real root.

Three implementation points matter for full double precision and speed:

* Endpoint roots are divided out of f (synthetic division), and the root
  factors are rebuilt from the exact endpoint distances that the tanh-sinh
  transform provides.  Evaluating f directly next to a root would lose all
  relative accuracy to cancellation.
* One node kernel evaluates |q(x)|**-p * d_lo**(-p m_lo) * d_hi**(-p m_hi),
  q the quotient, with one inline Horner evaluation and one power per
  nonzero factor, the exponents fixed per panel: no Python call per node,
  no logarithm, and no exponential whose argument carries the rounding of
  a sum of logarithms.
* Panels much wider than the distance of their nearest endpoint from the
  origin are subdivided dyadically.  A polynomial changes character on
  scales proportional to |x|, so this keeps every sub-panel resolvable by a
  single affine map; without it, coefficient sets with widely separated
  roots stall below the requested tolerance.

The tanh-sinh abscissae and weights depend only on the level, not on the
panel: each level's node table is built once, on first use, and every panel
of every call scales it by its half-width (Takahasi & Mori 1974; Bailey,
Jeyabalan & Li 2005).  ``QuadratureConfig.max_levels`` is limited to 4..16,
which bounds the cached tables at about 0.4M nodes.

Panels are independent and each panel evaluation is pure, so callers may
evaluate them concurrently and sum; this module does so sequentially.
"""

from __future__ import annotations

import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

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
    CubicCoeffs,
    Polynomial,
    cubic_roots,
    derivative_coeffs,
    float_coefficients,
    fujiwara_exponent,
    horner,
    integer_coefficients,
    magnitude_at,
)
from .renorm import IntegralMethod, IntegralResult, _checked_discriminant, _checked_gaussian

_HALF_PI = math.pi / 2.0
# |D| below this multiple of scale**4 still computes but is flagged.
_DISCRIMINANT_CONDITION_BAND = 1e-3
# relative |f'(root)| threshold treating a located root as repeated
_MULTIPLICITY_RTOL = 1e-8
# roots closer than this, relative to max(1, |largest root|), are flagged
_SINGULARITY_CLEARANCE = 1e-6
# Levels 0..16 of cached node tables hold about 0.4M nodes (10 MB); each
# further level would double that.
_MAX_LEVELS = 16
# significant bits of the rounded root centroid that _centred shifts by
_CENTRE_BITS = 24


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    max_levels: int = 12

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if not 4 <= self.max_levels <= _MAX_LEVELS:
            raise DomainError(
                f"max_levels must be in 4..{_MAX_LEVELS}, got {self.max_levels}"
            )


@dataclass(frozen=True)
class Panel:
    """One integration interval; tails are integrated in the u = 1/x variable."""

    lo: float
    hi: float
    lo_multiplicity: int = 0
    hi_multiplicity: int = 0
    kind: str = "finite"  # "finite" | "lower-tail" | "upper-tail"


@dataclass(frozen=True)
class PanelDecomposition:
    breakpoints: tuple
    panels: tuple


def _synthetic_quotient(coeffs: Sequence[float], root: float) -> list:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    return out


def _bisect_root(coeffs: Sequence[float], lo: float, hi: float) -> float:
    flo = horner(coeffs, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = horner(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    deriv = derivative_coeffs(coeffs)
    for _ in range(3):
        fp = horner(deriv, x)
        if fp == 0.0:
            break
        x -= horner(coeffs, x) / fp
    return x


def _real_roots_with_multiplicity(
    coeffs: Sequence[float], tangency_rtol: float = _MULTIPLICITY_RTOL
) -> list:
    """Sorted (root, multiplicity) pairs of a float-coefficient polynomial.

    Degree <= 3 uses closed forms; above that the real line is split at the
    recursively computed critical points, giving one monotone bracket per
    sign change plus tangency detection at the critical points themselves:
    a critical point where |f| is at most ``tangency_rtol`` times the
    magnitude of its terms counts as a root.
    """
    cs = [float(c) for c in coeffs]
    while len(cs) > 1 and cs[0] == 0.0:
        cs.pop(0)
    deg = len(cs) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-cs[1] / cs[0], 1)]
    if deg == 2:
        a, b, c = cs
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return []
        if disc == 0.0:
            return [(-b / (2.0 * a), 2)]
        s = math.sqrt(disc)
        q = -(b + math.copysign(s, b)) / 2.0 if b != 0.0 else math.copysign(s, 1.0) / 2.0
        r1, r2 = q / a, c / q
        return [(min(r1, r2), 1), (max(r1, r2), 1)]
    if deg == 3:
        rs = cubic_roots(CubicCoeffs(*cs))
        return [(float(r), int(m)) for r, m in rs.roots]

    deriv = derivative_coeffs(cs)
    crits = [r for r, _ in _real_roots_with_multiplicity(deriv)]
    bound = 1.0 + max(abs(c / cs[0]) for c in cs[1:])
    points = [-bound] + sorted(c for c in crits if -bound < c < bound) + [bound]

    found: list = []
    for crit in points[1:-1]:
        if abs(horner(cs, crit)) <= tangency_rtol * magnitude_at(cs, crit):
            found.append(crit)
    for lo, hi in zip(points[:-1], points[1:]):
        flo, fhi = horner(cs, lo), horner(cs, hi)
        if flo == 0.0 or fhi == 0.0:
            continue  # endpoint roots were caught by the tangency test
        if (flo < 0) != (fhi < 0):
            found.append(_bisect_root(cs, lo, hi))

    out = []
    for root in sorted(found):
        if out and abs(root - out[-1][0]) <= 1e-12 * max(1.0, abs(root)):
            continue
        mult = 1
        d = derivative_coeffs(cs)
        while mult < deg:
            if abs(horner(d, root)) > _MULTIPLICITY_RTOL * magnitude_at(d, root):
                break
            mult += 1
            d = derivative_coeffs(d)
        out.append((root, mult))
    return out


def _refined_spans(lo: float, hi: float) -> list:
    """Dyadic subdivision: each sub-span's width stays within twice
    (1 + distance of its nearer endpoint from the origin).

    A finite span meets that rule within about log2(hi - lo) halvings, so
    there is no depth limit: a span cut off early stays wider than the rule
    and can hide the integrand's features near the origin from every node.
    """
    out = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        if (b - a) <= 2.0 * (1.0 + min(abs(a), abs(b))):
            out.append((a, b))
        else:
            mid = 0.5 * (a + b)
            stack.append((mid, b))
            stack.append((a, mid))
    out.sort()
    return out


def decompose(
    f: Polynomial, family_degree: Optional[int] = None, simple_roots: bool = False
) -> PanelDecomposition:
    """Panel decomposition of the real line for integral over R of |f|**(-2/n).

    Real roots become panel endpoints (never interior points), the tails are
    marked for the reciprocal transform, and a root of multiplicity m with
    2m/n >= 1 raises RepeatedRootDivergence.

    ``simple_roots`` states that every root of f is simple, as a nonzero
    exact discriminant proves.  A critical point is then a root only where f
    vanishes exactly, so a close complex pair is never taken for a double
    root, and a root that still comes out multiple (simple roots closer than
    the float spacing) raises NoConvergence: the integral is finite, but the
    float form cannot resolve it.
    """
    deg = f.degree
    if deg < 2:
        raise DegreeTooLow(f"need degree >= 2, got {deg}")
    n = family_degree if family_degree is not None else max(3, deg)

    tangency_rtol = 0.0 if simple_roots else _MULTIPLICITY_RTOL
    roots = _real_roots_with_multiplicity([float(c) for c in f.coeffs], tangency_rtol)
    # roots that collapse to the same float are one numerical root; merging
    # lets the integrability rule treat them honestly
    merged: List[tuple] = []
    for root, mult in roots:
        if merged and merged[-1][0] == root:
            merged[-1] = (root, merged[-1][1] + mult)
        else:
            merged.append((root, mult))
    roots = merged
    for root, mult in roots:
        if simple_roots and mult > 1:
            raise NoConvergence(
                f"roots within rounding of each other at {root}; the exact discriminant "
                "is nonzero, so the integral is finite, but double precision does not resolve it"
            )
        if 2 * mult >= n:
            raise RepeatedRootDivergence(
                f"root {root} has multiplicity {mult}; |x - r|**(-{2 * mult}/{n}) "
                "is not integrable"
            )
    if len(roots) >= 2:
        norm = max(1.0, max(abs(r) for r, _ in roots))
        gaps = [b[0] - a[0] for a, b in zip(roots[:-1], roots[1:])]
        if min(gaps) < _SINGULARITY_CLEARANCE * norm:
            warnings.warn(
                f"two roots are within {min(gaps):.3e} of each other; "
                "quadrature error may exceed the requested tolerance",
                IllConditionedWarning,
                stacklevel=2,
            )

    # Cut the tails at twice the root radius so the reciprocal images of the
    # roots stay well away from the transformed tail panels.
    cut = 2.0 * max(1.0, max((abs(r) for r, _ in roots), default=0.0))
    if cut == math.inf:
        raise DomainError("a real root beyond half the float range leaves no room for the tails")
    marks = [(-cut, 0)] + [(r, m) for r, m in roots] + [(cut, 0)]

    panels: List[Panel] = [Panel(-math.inf, -cut, kind="lower-tail")]
    for (lo, m_lo), (hi, m_hi) in zip(marks[:-1], marks[1:]):
        spans = _refined_spans(lo, hi)
        for s_lo, s_hi in spans:
            panels.append(
                Panel(
                    s_lo,
                    s_hi,
                    lo_multiplicity=m_lo if s_lo == lo else 0,
                    hi_multiplicity=m_hi if s_hi == hi else 0,
                )
            )
    panels.append(Panel(cut, math.inf, kind="upper-tail"))
    return PanelDecomposition(breakpoints=tuple(r for r, _ in roots), panels=tuple(panels))


@functools.cache
def _node_table(h: float, only_odd: bool) -> tuple:
    """Unit-panel tanh-sinh nodes t = k*h, k = 1, 2, ... (odd k only when
    ``only_odd``): (1 - tanh z, 1 + tanh z, pi/2 * cosh t * (1 - tanh z) *
    (1 + tanh z), index of the first node with t > 3), z = pi/2 * sinh t.

    A panel of half-width hs scales the three columns by hs, which is
    bit-identical to evaluating the node formulas per panel.  The table ends
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

    The endpoint roots are divided out into q, and a node at distances d_lo
    and d_hi from the endpoints, both exact from the transform, is worth
    |q(x)|**-exponent * d_lo**(-exponent m_lo) * d_hi**(-exponent m_hi): one
    inline Horner evaluation and one power per factor, none for an endpoint
    that is not a root.  Each side of a level walks the level's node table
    outwards until a distance or a weight underflows, or past t = 3 once two
    terms in a row are negligible.
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

    x = 0.5 * (lo + hi)
    v = lead
    for c in rest:
        v = v * x + c
    if v == 0.0:
        raise SingularPoint(f"unexpected interior zero at {x}")
    # the midpoint, at distance hs from both ends; hs**0.0 is 1.0
    node_sum = _HALF_PI * hs * (abs(v) ** p * hs**p_lo * hs**p_hi)
    nodes = 1
    h, only_odd = 1.0, False
    for level in range(cfg.max_levels + 1):
        one_minus, one_plus, weights, tail_start = _node_table(h, only_odd)
        total = 0.0
        # A node lies hs * (1 - tanh z) from its own side's endpoint and
        # hs * (1 + tanh z) from the other: x = hi - hs * (1 - tanh z) on the
        # upper side, x = lo - (-hs) * (1 - tanh z) = lo + d_lo on the lower.
        for anchor, toward, lo_col, hi_col in (
            (hi, hs, one_plus, one_minus),
            (lo, -hs, one_minus, one_plus),
        ):
            negligible = 0
            for i, (om, a, b, w) in enumerate(zip(one_minus, lo_col, hi_col, weights)):
                offset = toward * om
                weight = w * hs
                if offset == 0.0 or weight == 0.0:
                    break
                x = anchor - offset
                v = lead
                for c in rest:
                    v = v * x + c
                if v == 0.0:
                    raise SingularPoint(f"unexpected interior zero at {x}")
                term = abs(v) ** p
                if m_lo:
                    term *= (hs * a) ** p_lo
                if m_hi:
                    term *= (hs * b) ** p_hi
                term = weight * term
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
                i = len(weights)
            nodes += i
        node_sum += total
        value = h * node_sum
        if level:
            error = abs(value - previous)
            if error <= cfg.rel_tol * abs(value):
                return value, error, True, nodes
        previous = value
        h, only_odd = 0.5 * h, True
    return value, error, False, nodes


def _unit_root_scale(values: Sequence[float]) -> Tuple[int, int]:
    """(s, e) such that g(y) = 2^-e f(2^s y) has its smallest nonzero root and
    its largest coefficient at unit size; ``values`` are f's float
    coefficients, leading first.

    s is minus ``fujiwara_exponent`` of the reversal, the coefficients from
    the lowest-power nonzero one c_L up to c_n: its roots are the reciprocals
    of f's nonzero roots, so every nonzero root of g has modulus above 1/4.
    e puts the largest coefficient of g in [1, 2).  Dilating f to f(2^j x)
    moves s to s - j and leaves e and g as they were.  When the dilation
    would make a coefficient of g subnormal, s = 0.
    """
    deg = len(values) - 1
    exponents = [(deg - i, math.frexp(v)[1]) for i, v in enumerate(values) if v]
    if not exponents:
        raise DomainError("every coefficient rounds to zero as a float")
    s = -fujiwara_exponent(values[::-1][exponents[-1][0]:])
    dilated = [ex + s * p for p, ex in exponents]
    # 2^-1022 is the smallest normal float; g's largest coefficient is in [1, 2)
    if min(dilated) - max(dilated) < -1022:
        s = 0
        dilated = [ex for _, ex in exponents]
    return s, max(dilated) - 1


def _centred(f: Polynomial) -> Tuple[float, list]:
    """(t, coefficients of f(x + t)), leading first, with t the root centroid
    -a1 / (n a0) rounded to a dyadic m * 2^k with a 24-bit m; (0.0, f's own
    float coefficients) when that does not lower ``fujiwara_exponent`` by 2
    or more, i.e. shrink the root bound at least 4x, or when a shifted
    coefficient leaves the float range.

    The shift runs on the exact integers of ``integer_coefficients`` and
    each coefficient is rounded to float once.  Rounding t to a fixed number
    of significant bits commutes with dilations f(2^j x) (t moves to 2^-j t)
    and with scalings 2^k f (t stays), so both stay exact.
    """
    values = float_coefficients(f.coeffs)
    ints, den = integer_coefficients(f.coeffs)
    a0, a1 = ints[0], ints[1]
    if a1 == 0:
        return 0.0, values
    num, d = -a1, (len(ints) - 1) * a0  # t = num / d
    if d < 0:
        num, d = -num, -d
    k = abs(num).bit_length() - d.bit_length() - _CENTRE_BITS
    big_k = max(0, -k)
    # m = t / 2^k = num 2^K / (d 2^(k+K)), rounded half up in integers
    m = ((num << (big_k + 1)) // (d << (k + big_k)) + 1) >> 1
    # f(y + m 2^k) = sum Q_i 2^(-K i) / den y^(n-i), Q the shift by the integer
    # m 2^(k+K) of the polynomial with coefficients ints[i] 2^(K i), K = max(0, -k)
    scaled = Polynomial([c << (big_k * i) for i, c in enumerate(ints)])
    shifted = scaled.taylor_shift(m << (k + big_k)).coeffs
    try:
        t = math.ldexp(m, k)
        centred = [c / (den << (big_k * i)) for i, c in enumerate(shifted)]
    except OverflowError:
        return 0.0, values
    if fujiwara_exponent(centred) <= fujiwara_exponent(values) - 2:
        return t, centred
    return 0.0, values


def _integrate_at_unit_scale(
    f: Polynomial, family_degree: int, cfg: QuadratureConfig, simple_roots: bool = False
) -> Tuple[float, float]:
    """(value, error estimate) of integral over R of |f|**(-2/n), computed on
    g(y) = 2^-e f(2^s y + t) with t from ``_centred`` and (s, e) from
    ``_unit_root_scale`` of the centred form.

    The panel rule resolves features of unit size near the origin, and no
    root of g is much smaller.  All three maps leave F unchanged up to the
    exact factor 2^s * 2^(-2e/n) = F(f) / F(g); as f(2^j x) has the same g as
    f, its value and error estimate are those of f times 2^-j, to the last
    bit, for the same work.
    """
    t, values = _centred(f)
    s, e = _unit_root_scale(values)
    deg = len(values) - 1
    g = [math.ldexp(v, s * (deg - i) - e) for i, v in enumerate(values)]
    shift = f"(x {'-' if t > 0 else '+'} {abs(t)!r})" if t else "x"
    units = f" (in y = {shift} / 2^{s})" if s else f" (in y = {shift})" if t else ""

    try:
        decomposition = decompose(Polynomial(g), family_degree, simple_roots)
    except (RepeatedRootDivergence, NoConvergence) as exc:
        raise type(exc)(f"{exc}{units}") from None
    exponent = 2.0 / family_degree
    # u = 1/x maps a tail onto a panel of the degree-n reversal, whose root at
    # u = 0 has multiplicity n - deg g
    origin = family_degree - deg
    reversal = g[::-1] + [0.0] * origin
    total = 0.0
    total_error = 0.0
    for panel in decomposition.panels:
        coeffs, lo, hi = g, panel.lo, panel.hi
        m_lo, m_hi = panel.lo_multiplicity, panel.hi_multiplicity
        if panel.kind == "upper-tail":
            coeffs, lo, hi, m_lo = reversal, 0.0, 1.0 / panel.lo, origin
        elif panel.kind == "lower-tail":
            coeffs, lo, hi, m_hi = reversal, 1.0 / panel.hi, 0.0, origin
        value, error, converged, _ = _panel_value(coeffs, exponent, lo, hi, m_lo, m_hi, cfg)
        if not converged:
            raise NoConvergence(
                f"panel [{panel.lo}, {panel.hi}]{units} did not reach rel_tol={cfg.rel_tol} "
                f"within {cfg.max_levels} levels (last delta {error:.3e})"
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
    1e-3 * scale**4 is computed but flagged IllConditioned.
    """
    cfg = config or QuadratureConfig()
    disc = _checked_discriminant(coeffs)
    # |D| < band * scale^4 in integers: band = band_int / den, scale = scale_int / den
    scale = max(map(abs, float_coefficients(coeffs.as_tuple())))
    (band_int, scale_int), den = integer_coefficients((_DISCRIMINANT_CONDITION_BAND, scale))
    d_num, d_den = abs(disc.value.numerator), disc.value.denominator
    if d_num * den**5 < band_int * scale_int**4 * d_den:
        warnings.warn(
            f"|D| / scale^4 = {d_num * den**4 / (scale_int**4 * d_den):.3e} is below "
            f"{_DISCRIMINANT_CONDITION_BAND}; singularities nearly coalesce",
            IllConditionedWarning,
            stacklevel=2,
        )
    value, error = _integrate_at_unit_scale(coeffs.as_polynomial(), 3, cfg)
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
    value, error = _integrate_at_unit_scale(f, f.degree, cfg, disc.value != 0)
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)


def gaussian_integral_numeric(
    a: float, b: float, c: float, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Quadrature cross-check for the Gaussian analogue 1/(a*x^2 + b*x + c).

    This is the n = 2 member of the same family (exponent -2/n = -1), so the
    panel machinery applies unchanged; requires a > 0 and b^2 - 4ac < 0.  The
    discriminant is the exact b^2 - 4ac of the coefficients given.
    """
    cfg = config or QuadratureConfig()
    den, n = _checked_gaussian(a, b, c)
    poly = Polynomial(float_coefficients((a, b, c)))
    value, error = _integrate_at_unit_scale(poly, 2, cfg)
    disc = DiscriminantResult.from_value(Fraction(-n, den * den))
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)
