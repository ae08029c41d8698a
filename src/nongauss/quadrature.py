"""Direct numerical evaluation of integral over R of |f(x)|**(-2/n) dx.

Strategy: split the line at the real roots of f, then integrate each panel
with tanh-sinh (double-exponential) quadrature.  The double-exponential map
absorbs the algebraic |x - r|**(-2m/n) endpoint singularities, and the two
unbounded tails are folded onto finite intervals with the reciprocal
substitution u = 1/x, under which the tail integrand becomes the reversed
coefficient polynomial (smooth at u = 0 whenever deg f = n).

Two implementation points matter for full double precision:

* Endpoint roots are divided out of f (synthetic division), and the root
  factors are rebuilt from the exact endpoint distances that the tanh-sinh
  transform provides.  Evaluating f directly next to a root would lose all
  relative accuracy to cancellation.
* Panels much wider than the distance of their nearest endpoint from the
  origin are subdivided dyadically.  A polynomial changes character on
  scales proportional to |x|, so this keeps every sub-panel resolvable by a
  single affine map; without it, coefficient sets with widely separated
  roots stall below the requested tolerance.

Panels are independent and each panel evaluation is pure, so callers may
evaluate them concurrently and sum; this module does so sequentially.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .discriminant import discriminant_general
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
    binary_exponent,
    cubic_roots,
    derivative_coeffs,
    horner,
    magnitude_at,
)
from .renorm import IntegralMethod, IntegralResult, _checked_discriminant

_HALF_PI = math.pi / 2.0
# |D| below this multiple of scale**4 still computes but is flagged.
_DISCRIMINANT_CONDITION_BAND = 1e-3
# relative |f'(root)| threshold treating a located root as repeated
_MULTIPLICITY_RTOL = 1e-8


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    max_levels: int = 12
    singularity_clearance: float = 1e-6

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_levels < 4:
            raise DomainError(f"max_levels must be >= 4, got {self.max_levels}")


@dataclass(frozen=True)
class Panel:
    """One integration interval; tails are integrated in the u = 1/x variable."""

    lo: float
    hi: float
    singular_lo: bool = False
    singular_hi: bool = False
    lo_multiplicity: int = 0
    hi_multiplicity: int = 0
    kind: str = "finite"  # "finite" | "lower-tail" | "upper-tail"


@dataclass(frozen=True)
class PanelDecomposition:
    polynomial: Polynomial
    family_degree: int
    breakpoints: tuple
    panels: tuple


def _synthetic_quotient(coeffs: Sequence[float], root: float) -> list:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    return out


def integrand(f: Polynomial, x: float, family_degree: Optional[int] = None) -> float:
    """(f(x)**2)**(-1/n), evaluated in log space so it never under/overflows.

    ``family_degree`` defaults to max(3, deg f): quadratics are always the
    degenerate a = 0 member of the cubic family.
    """
    n = family_degree if family_degree is not None else max(3, f.degree)
    value = float(f(float(x)))
    if value == 0.0:
        raise SingularPoint(f"f({x}) = 0")
    return math.exp(-(2.0 / n) * math.log(abs(value)))


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


def _real_roots_with_multiplicity(coeffs: Sequence[float]) -> list:
    """Sorted (root, multiplicity) pairs of a float-coefficient polynomial.

    Degree <= 3 uses closed forms; above that the real line is split at the
    recursively computed critical points, giving one monotone bracket per
    sign change plus tangency detection at the critical points themselves.
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
        if abs(horner(cs, crit)) <= _MULTIPLICITY_RTOL * magnitude_at(cs, crit):
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
    (1 + distance of its nearer endpoint from the origin)."""
    out = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth >= 64 or (b - a) <= 2.0 * (1.0 + min(abs(a), abs(b))):
            out.append((a, b))
        else:
            mid = 0.5 * (a + b)
            stack.append((mid, b, depth + 1))
            stack.append((a, mid, depth + 1))
    out.sort()
    return out


def decompose(
    f: Polynomial,
    family_degree: Optional[int] = None,
    config: Optional[QuadratureConfig] = None,
) -> PanelDecomposition:
    """Panel decomposition of the real line for integral over R of |f|**(-2/n).

    Real roots become panel endpoints (never interior points), the tails are
    marked for the reciprocal transform, and a root of multiplicity m with
    2m/n >= 1 raises RepeatedRootDivergence.
    """
    cfg = config or QuadratureConfig()
    deg = f.degree
    if deg < 2:
        raise DegreeTooLow(f"need degree >= 2, got {deg}")
    n = family_degree if family_degree is not None else max(3, deg)

    roots = _real_roots_with_multiplicity([float(c) for c in f.coeffs])
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
        if 2 * mult >= n:
            raise RepeatedRootDivergence(
                f"root {root} has multiplicity {mult}; |x - r|**(-{2 * mult}/{n}) "
                "is not integrable"
            )
    if len(roots) >= 2:
        norm = max(1.0, max(abs(r) for r, _ in roots))
        gaps = [b[0] - a[0] for a, b in zip(roots[:-1], roots[1:])]
        if min(gaps) < cfg.singularity_clearance * norm:
            warnings.warn(
                f"two roots are within {min(gaps):.3e} of each other; "
                "quadrature error may exceed the requested tolerance",
                IllConditionedWarning,
                stacklevel=2,
            )

    # Cut the tails at twice the root radius so the reciprocal images of the
    # roots stay well away from the transformed tail panels.
    cut = 2.0 * max(1.0, max((abs(r) for r, _ in roots), default=0.0))
    marks = [(-cut, 0)] + [(r, m) for r, m in roots] + [(cut, 0)]

    panels: List[Panel] = [Panel(-math.inf, -cut, kind="lower-tail")]
    for (lo, m_lo), (hi, m_hi) in zip(marks[:-1], marks[1:]):
        spans = _refined_spans(lo, hi)
        for s_lo, s_hi in spans:
            panels.append(
                Panel(
                    s_lo,
                    s_hi,
                    singular_lo=(s_lo == lo and m_lo > 0),
                    singular_hi=(s_hi == hi and m_hi > 0),
                    lo_multiplicity=m_lo if s_lo == lo else 0,
                    hi_multiplicity=m_hi if s_hi == hi else 0,
                )
            )
    panels.append(Panel(cut, math.inf, kind="upper-tail"))
    return PanelDecomposition(
        polynomial=f,
        family_degree=n,
        breakpoints=tuple(r for r, _ in roots),
        panels=tuple(panels),
    )


def _tanh_sinh_panel(
    fn: Callable[[float, float, float], float],
    lo: float,
    hi: float,
    cfg: QuadratureConfig,
) -> Tuple[float, float, bool]:
    """Level-doubling tanh-sinh rule on [lo, hi].

    ``fn(x, d_lo, d_hi)`` receives the node along with its exact distances to
    both endpoints, computed cancellation-free from the transform itself.
    Returns (value, error_estimate, converged).
    """
    hs = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    if hs == 0.0:
        return 0.0, 0.0, True

    def side_sum(h: float, only_odd: bool) -> float:
        total = 0.0
        for sign in (+1, -1):
            k = 1
            step = 2 if only_odd else 1
            negligible = 0
            while True:
                t = k * h
                z = _HALF_PI * math.sinh(t)
                e2 = math.exp(-2.0 * z)
                one_minus = 2.0 * e2 / (1.0 + e2)   # 1 - tanh(z), stable
                one_plus = 2.0 / (1.0 + e2)         # 1 + tanh(z)
                weight = _HALF_PI * math.cosh(t) * one_minus * one_plus * hs
                if sign > 0:
                    d_hi = hs * one_minus
                    d_lo = hs * one_plus
                    x = hi - d_hi
                else:
                    d_lo = hs * one_minus
                    d_hi = hs * one_plus
                    x = lo + d_lo
                if d_lo == 0.0 or d_hi == 0.0 or weight == 0.0:
                    break
                term = weight * fn(x, d_lo, d_hi)
                total += term
                if term <= abs(total) * 1e-17:
                    negligible += 1
                    if negligible >= 2 and t > 3.0:
                        break
                else:
                    negligible = 0
                k += step
                if t > 7.5:
                    break
        return total

    node_sum = _HALF_PI * hs * fn(mid, hs, hs) + side_sum(1.0, only_odd=False)
    previous = node_sum
    value = previous
    error = math.inf
    h = 1.0
    for _ in range(cfg.max_levels):
        h *= 0.5
        node_sum += side_sum(h, only_odd=True)
        value = h * node_sum
        error = abs(value - previous)
        if error <= cfg.rel_tol * abs(value):
            return value, error, True
        previous = value
    return value, error, False


def _finite_panel_value(
    coeffs: Sequence[float], exponent: float, panel: Panel, cfg: QuadratureConfig
) -> Tuple[float, float, bool]:
    q = list(coeffs)
    for _ in range(panel.lo_multiplicity if panel.singular_lo else 0):
        q = _synthetic_quotient(q, panel.lo)
    for _ in range(panel.hi_multiplicity if panel.singular_hi else 0):
        q = _synthetic_quotient(q, panel.hi)
    m_lo = panel.lo_multiplicity if panel.singular_lo else 0
    m_hi = panel.hi_multiplicity if panel.singular_hi else 0

    def fn(x: float, d_lo: float, d_hi: float) -> float:
        value = horner(q, x)
        if value == 0.0:
            raise SingularPoint(f"unexpected interior zero at x = {x}")
        s = math.log(abs(value))
        if m_lo:
            s += m_lo * math.log(d_lo)
        if m_hi:
            s += m_hi * math.log(d_hi)
        return math.exp(-exponent * s)

    return _tanh_sinh_panel(fn, panel.lo, panel.hi, cfg)


def _tail_panel_value(
    coeffs: Sequence[float], exponent: float, panel: Panel, cfg: QuadratureConfig
) -> Tuple[float, float, bool]:
    # u = 1/x maps the tail onto (0, 1/cut]; the integrand becomes
    # |reverse(f)(u)|**(-e) * |u|**(deg*e - 2), smooth at u = 0 for deg*e = 2.
    reversed_coeffs = list(reversed(coeffs))
    origin_power = 2.0 - (len(coeffs) - 1) * exponent
    if panel.kind == "upper-tail":
        u_lo, u_hi = 0.0, 1.0 / panel.lo
    else:
        u_lo, u_hi = 1.0 / panel.hi, 0.0

    def fn(u: float, d_lo: float, d_hi: float) -> float:
        value = horner(reversed_coeffs, u)
        if value == 0.0:
            raise SingularPoint(f"unexpected zero of reversed polynomial at u = {u}")
        s = -exponent * math.log(abs(value))
        if origin_power > 0.0:
            s -= origin_power * math.log(d_lo if panel.kind == "upper-tail" else d_hi)
        return math.exp(s)

    return _tanh_sinh_panel(fn, u_lo, u_hi, cfg)


def _integrate_decomposition(
    decomposition: PanelDecomposition, cfg: QuadratureConfig
) -> Tuple[float, float]:
    """Sum of the panel integrals, computed at unit coefficient scale.

    Dividing f by the power of two 2^e just below its largest coefficient
    keeps the integrand in float range without moving roots or panels; the
    sum is then multiplied by 2^(-2e/n), from |2^-e f|^(-2/n) = 2^(2e/n) |f|^(-2/n).
    """
    values = [float(c) for c in decomposition.polynomial.coeffs]
    e = binary_exponent(values)
    coeffs = [math.ldexp(c, -e) for c in values]
    exponent = 2.0 / decomposition.family_degree
    total = 0.0
    total_error = 0.0
    for panel in decomposition.panels:
        if panel.kind == "finite":
            value, error, converged = _finite_panel_value(coeffs, exponent, panel, cfg)
        else:
            value, error, converged = _tail_panel_value(coeffs, exponent, panel, cfg)
        if not converged:
            raise NoConvergence(
                f"panel [{panel.lo}, {panel.hi}] did not reach rel_tol={cfg.rel_tol} "
                f"within {cfg.max_levels} levels (last delta {error:.3e})"
            )
        total += value
        total_error += error
    rescale = 2.0 ** (-e * exponent)
    return total * rescale, total_error * rescale


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
    scale = coeffs.scale()
    if abs(disc.value) < Fraction(_DISCRIMINANT_CONDITION_BAND) * Fraction(scale) ** 4:
        warnings.warn(
            f"|D| / scale^4 = {float(abs(disc.value) / Fraction(scale) ** 4):.3e} is below "
            f"{_DISCRIMINANT_CONDITION_BAND}; singularities nearly coalesce",
            IllConditionedWarning,
            stacklevel=2,
        )
    decomposition = decompose(coeffs.as_polynomial(), family_degree=3, config=cfg)
    value, error = _integrate_decomposition(decomposition, cfg)
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
    decomposition = decompose(f, family_degree=f.degree, config=cfg)
    value, error = _integrate_decomposition(decomposition, cfg)
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)


def gaussian_integral_numeric(
    a: float, b: float, c: float, config: Optional[QuadratureConfig] = None
) -> IntegralResult:
    """Quadrature cross-check for the Gaussian analogue 1/(a*x^2 + b*x + c).

    This is the n = 2 member of the same family (exponent -2/n = -1), so the
    panel machinery applies unchanged; requires a > 0 and b^2 - 4ac < 0.
    """
    cfg = config or QuadratureConfig()
    af, bf, cf = float(a), float(b), float(c)
    finite = all(math.isfinite(v) for v in (af, bf, cf))
    if not (finite and af > 0.0 and bf * bf - 4.0 * af * cf < 0.0):
        raise DomainError("requires finite coefficients, a > 0 and b^2 - 4ac < 0")
    poly = Polynomial([af, bf, cf])
    decomposition = decompose(poly, family_degree=2, config=cfg)
    value, error = _integrate_decomposition(decomposition, cfg)
    disc = discriminant_general(poly)
    return IntegralResult(value, IntegralMethod.NUMERIC, disc, error)
