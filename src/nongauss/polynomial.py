"""Dense polynomials, cubic coefficient quadruples, and the one real-root locator.

Coefficients are stored leading-first: ``(a0, a1, ..., an)`` represents
``a0*x**n + a1*x**(n-1) + ... + an``.  Each coefficient is kept as given,
``int``, ``Fraction`` or float, next to any of the others: exact code reads
them through ``integer_coefficients`` without loss, and ``_rounded`` alone
rounds them, once, for ``_chart`` (the quadrature and ``cubic_roots``) and
the finite-difference stencil of ``renorm``.  All operations are pure
functions of immutable values and safe to call concurrently.

``_subresultant`` is the one exact remainder sequence: on the integers of
``integer_coefficients`` it gives R(f, f') for ``discriminant`` and every
gcd of Yun's ``squarefree_factors``.

``_real_roots`` is the only code that locates float roots: the sign-stable
quadratic formula at degree 2, formed on mantissas so that it neither
overflows nor underflows, and above that bracketed Newton steps between the
recursively located critical points, which it returns with the roots.
``_chart`` alone builds the float forms it reads, each a ``Chart`` whose
``in_x`` maps its roots back to x: the centre and each coefficient are
rounded once from the exact integers, at unit root scale.  The quadrature
and ``cubic_roots`` locate on such charts; ``cubic_roots`` takes the number
of real roots from the sign of the exact discriminant and relocates a close
pair on a chart centred on each critical point of its first location.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DegenerateLeadingCoefficient, DomainError, NotARoot

Number = Union[int, Fraction, float]

_ROOT_RESIDUAL_FACTOR = 1e-10


def is_exact_number(value: Number) -> bool:
    """True for values that participate in exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def integer_coefficients(values: Sequence[Number]) -> tuple:
    """Exact integers ``ints`` and one positive ``den`` with v == ints[i] / den.

    This is the only place denominators are cleared.  Floats convert
    losslessly through ``as_integer_ratio``, so all-float input gives a
    power-of-two ``den``; a NaN or infinity raises DomainError.
    """
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"coefficients must be finite: {exc}") from None
    # a list: star-unpacking a generator leaves cyclic garbage on CPython 3.11
    den = math.lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios], den


def float_coefficients(values: Sequence[Number]) -> list:
    """``values`` as floats; a value beyond the float range raises DomainError."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise DomainError("a coefficient lies beyond the float range") from None


def fujiwara_exponent(values: Sequence[Number]) -> int:
    """The least integer j >= (e_i - e_0) / i over the nonzero non-leading
    ``values[i]`` (leading first; e_i the bit length of an int, the
    ``math.frexp`` exponent of a float), 0 if none: 2^(j + 1) exceeds each
    |v_i / v_0|^(1/i), so by Fujiwara's bound every root of f(2^j y) has
    modulus below 4."""
    e = [v.bit_length() if isinstance(v, int) else math.frexp(v)[1] for v in values]
    return max([-((e[0] - e[i]) // i) for i in range(1, len(e)) if values[i]], default=0)


def horner(coeffs: Sequence[Number], x: Number) -> Number:
    """Nested evaluation at ``x``; exact when ``coeffs`` and ``x`` are exact."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def derivative_coeffs(coeffs: Sequence[Number]) -> list:
    """Power-rule derivative of leading-first ``coeffs``."""
    n = len(coeffs) - 1
    return [(n - i) * c for i, c in enumerate(coeffs[:-1])]


def _synthetic_quotient(coeffs: Sequence[Number], root: Number) -> list:
    """The quotient of leading-first ``coeffs`` by (x - root), the remainder
    dropped: synthetic division, each step c + root * q."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + root * out[-1])
    return out


def _primitive(cs: Sequence[int]) -> list:
    """Integer coefficients over their content, the leading one positive; [] for 0."""
    cs = list(itertools.dropwhile(lambda c: c == 0, cs))
    content = math.gcd(*cs) if cs and cs[0] > 0 else -math.gcd(*cs)
    return [c // content for c in cs]


def _subresultant(a: list, b: list) -> tuple:
    """(R(a, b), primitive gcd(a, b)) for integer polynomials, leading-first,
    deg a > deg b, b constant or zero ([]) allowed, by the subresultant PRS
    (Collins 1967; Brown & Traub 1971; Cohen, GTM 138, Algorithm 3.3.7): each
    pseudo-remainder lc(b)^(delta+1) a mod b, delta = deg a - deg b >= 1,
    is divided exactly by g h^delta, and each step from R(a, b) to R(b, r)
    takes the sign (-1)^(deg a deg b).  The last nonzero remainder is the
    gcd up to a constant, so R = 0 exactly when the gcd is not constant."""
    sign, g, h = 1, 1, 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db <= 0:  # b = 0: gcd a; b = c constant: R = sign c^da / h^(da - 1), gcd 1
            return (sign * (b[0] ** da // h ** (da - 1)), [1]) if b else (0, _primitive(a))
        delta = da - db
        if da & db & 1:
            sign = -sign
        lead, tail = b[0], b[1:] + [0] * delta
        r = a
        for _ in range(delta + 1):
            head = r[0]
            r = [lead * u - head * v for u, v in zip(r[1:], tail)]
        while r and r[0] == 0:
            del r[0]
        if not r:
            return 0, _primitive(b)
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        g = a[0]
        h = g**delta // h ** (delta - 1)


def _exact_quotient(a: list, b: list) -> list:
    """a / b, len(a) - len(b) + 1 coefficients, for a primitive b dividing a;
    each is an integer by Gauss's lemma."""
    q = []
    while len(a) >= len(b):
        q.append(a[0] // b[0])
        a = [u - q[-1] * v for u, v in zip(a[1:], b[1:] + [0] * len(a))]
    return q


def squarefree_factors(f: "Polynomial") -> list:
    """Yun's square-free decomposition of f's exact integers (Yun, SYMSAC 1976):
    pairs (f_k, k) by ascending k with f = c * prod f_k^k, c rational, each
    f_k a non-constant primitive integer Polynomial, square-free and coprime
    to the others, so its roots are exactly the roots of multiplicity k of f.
    """
    a = _primitive(integer_coefficients(f.coeffs)[0])
    da = derivative_coeffs(a)
    c = _subresultant(a, da)[1]
    if len(c) == 1:  # gcd(f, f') is constant: f is square-free
        return [(Polynomial(a), 1)] if len(a) > 1 else []
    w, y = _exact_quotient(a, c), _exact_quotient(da, c)
    out, k = [], 1
    while len(w) > 1:
        z = [u - v for u, v in zip(y, derivative_coeffs(w))]
        factor = _subresultant(w, _primitive(z))[1]
        if len(factor) > 1:
            out.append((Polynomial(factor), k))
        w, y, k = _exact_quotient(w, factor), _exact_quotient(z, factor), k + 1
    return out


class Polynomial:
    """Immutable dense polynomial with leading-first coefficients, each kept
    as given (int, Fraction or float), leading zeros dropped; ``exact`` when
    every one is an int or Fraction."""

    __slots__ = ("coeffs", "exact")

    coeffs: tuple
    exact: bool

    def __init__(self, coefficients: Iterable[Number]):
        cs = list(coefficients)
        if not cs:
            cs = [0]
        exact = all(is_exact_number(c) for c in cs)
        while len(cs) > 1 and cs[0] == 0:
            cs.pop(0)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Number) -> Number:
        """Evaluate at ``x`` by nested (Horner) multiplication."""
        return horner(self.coeffs, x)

    def derivative(self) -> "Polynomial":
        """Coefficient-wise power-rule derivative; a constant's is zero."""
        return Polynomial(derivative_coeffs(self.coeffs) or [0 if self.exact else 0.0])

    def taylor_shift(self, t: Number) -> "Polynomial":
        """Return q with q(y) = p(y + t), by repeated synthetic division.

        Exact when both the polynomial and ``t`` are exact.  Otherwise an
        exact operand is rounded where it meets a float: all-exact or
        all-float coefficients give the bits of rounding every value first.
        """
        cs = list(self.coeffs)
        n = len(cs) - 1
        for i in range(n):
            for j in range(1, n + 1 - i):
                cs[j] = cs[j] + t * cs[j - 1]
        return Polynomial(cs)

    def reverse(self) -> "Polynomial":
        """Reciprocal polynomial x**n * p(1/x): the coefficient list reversed."""
        return Polynomial(tuple(reversed(self.coeffs)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs and self.exact == other.exact

    def __hash__(self) -> int:
        return hash((self.coeffs, self.exact))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def parse_number(text: str) -> Number:
    """Parse a coefficient string: 'p/q' or integer literals stay exact,
    decimal/scientific literals become floats."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    try:
        return int(s)
    except ValueError:
        return float(s)


@dataclass(frozen=True)
class CubicCoeffs:
    """The quadruple (a, b, c, d) of a*x**3 + b*x**2 + c*x + d."""

    a: Number
    b: Number
    c: Number
    d: Number

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_exact(self) -> bool:
        return all(is_exact_number(v) for v in self.as_tuple())

    def as_polynomial(self) -> Polynomial:
        """The coefficients as given, leading zeros dropped, so a = 0 inputs
        come out as true quadratics."""
        return Polynomial(self.as_tuple())


@dataclass(frozen=True)
class CubicFactorization:
    """Data of the split f = (x - alpha) * (a*x**2 + k*x + l)."""

    alpha: Number
    k: Number
    l: Number


class RootClassification(Enum):
    THREE_DISTINCT_REAL = "ThreeDistinctReal"
    ONE_REAL_ONE_COMPLEX_PAIR = "OneRealOneComplexPair"
    REPEATED_ROOT = "RepeatedRoot"


@dataclass(frozen=True)
class RootSet:
    """Real roots with multiplicities, plus the discriminant-sign class."""

    roots: tuple
    classification: RootClassification


def cubic_discriminant_int(a: int, b: int, c: int, d: int) -> int:
    """Five-term expansion b^2c^2 + 18abcd - 4ac^3 - 4b^3d - 27a^2d^2 on the
    integers of ``integer_coefficients``; homogeneous of degree 4."""
    return (
        b * b * c * c
        + 18 * a * b * c * d
        - 4 * a * c**3
        - 4 * b**3 * d
        - 27 * a * a * d * d
    )


def cubic_discriminant_exact(a: Number, b: Number, c: Number, d: Number) -> Fraction:
    """Five-term cubic discriminant, exactly: D_int / den^4 in integers.

    Floats convert exactly (they are dyadic rationals), so the sign is always
    decided without rounding.
    """
    ints, den = integer_coefficients((a, b, c, d))
    return Fraction(cubic_discriminant_int(*ints), den**4)


def _bracketed_root(coeffs: list, deriv: list, lo: float, hi: float, flo: float, fhi: float):
    """The root in (lo, hi), where f changes sign once (f(lo) = flo and f(hi) =
    fhi, both nonzero), by Newton steps kept inside the shrinking bracket: a
    step that leaves it or fails to halve the step before becomes a bisection.
    Once a step is within an ulp, Newton has converged on one end while the
    other may still be far, so the next points probe toward the other end at
    1, 2, 4, ... ulps until the sign changes.  Returns an exact zero of the
    float form, or the end of smaller |f| once the bracket is two adjacent
    floats: within one ulp of a sign change."""
    x, last, reach = 0.5 * lo + 0.5 * hi, hi - lo, 0.0
    while True:
        fx = horner(coeffs, x)
        if fx == 0.0:
            return x
        if (fx < 0) == (flo < 0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        mid = 0.5 * lo + 0.5 * hi  # no overflow next to the float range
        if mid == lo or mid == hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fp = horner(deriv, x)
        new = x - fx / fp if fp else mid
        if abs(new - x) <= math.ulp(x):
            reach = max(2.0 * reach, math.ulp(x))
            new = x + reach if x == lo else x - reach
        else:
            reach = 0.0
            if abs(new - x) > 0.5 * last:
                new = mid
        if not lo < new < hi:
            new = mid
        x, last = new, abs(new - x)


def _quadratic_roots(a: float, b: float, c: float) -> list:
    """Sorted real roots of a*x**2 + b*x + c (a != 0) by the sign-stable
    formula q = -(b + sgn(b) sqrt(b*b - 4*a*c)) / 2, roots q/a and c/q, at any
    float scale: every step runs on the ``math.frexp`` mantissas, b*b - 4*a*c
    over one power of two 2^e, and ``math.ldexp`` puts each root back.
    Powers of two scale exactly, so unless a step is subnormal the roots are
    bit for bit those of the formula on a, b and c.  A root beyond the float
    range is dropped; a double root comes out twice."""
    (ma, ea), (mb, eb), (mc, ec) = math.frexp(a), math.frexp(b), math.frexp(c)
    e = max(2 * eb if b else ea + ec, ea + ec if c else 2 * eb)
    disc = math.ldexp(mb * mb, 2 * eb - e) - math.ldexp(4.0 * ma * mc, ea + ec - e)
    if disc < 0.0:
        return []
    if disc == 0.0:
        scaled = [(-mb / (2.0 * ma), eb - ea)] * 2
    else:
        h = e >> 1  # q is scaled by 2^-h
        root = math.sqrt(math.ldexp(disc, e - 2 * h))
        q = -0.5 * (math.ldexp(mb, eb - h) + math.copysign(root, mb))
        scaled = [(q / ma, h - ea), (mc / q, ec - h)]
    roots = []
    for m, k in scaled:
        try:
            roots.append(math.ldexp(m, k))
        except OverflowError:
            pass  # beyond the float range
    return sorted(roots)


def _stripped(cs: Sequence[float]) -> list:
    """A chart's float form without its leading zeros, each one a coefficient
    that underflowed (a root beyond the float range): the form ``_real_roots``
    reads.  Only ``_chart`` strips."""
    return list(itertools.dropwhile(lambda c: c == 0.0, cs))


def _real_roots(cs: Sequence[float]) -> tuple:
    """(roots, critical points), sorted, of a float-coefficient polynomial,
    leading coefficient nonzero (see ``_stripped``), whose exact roots are
    simple: closed forms up to degree 2; above, inside the Fujiwara bound
    2^(j + 2), one root per sign change between the recursively located
    critical points, and an exact zero at one.  A root the float form makes
    multiple (a zero at a critical point, a double quadratic root) comes out
    repeated: double precision did not resolve it."""
    deg = len(cs) - 1
    if deg <= 0:
        return [], []
    if deg == 1:
        return [-cs[1] / cs[0]], []
    if deg == 2:
        return _quadratic_roots(*cs), [-cs[1] / (2 * cs[0])]

    deriv = derivative_coeffs(cs)
    critical = _real_roots(deriv)[0]
    j = fujiwara_exponent(cs)
    bound = math.ldexp(4.0, j) if j < 1022 else math.nextafter(math.inf, 0.0)  # the largest float
    points = [-bound] + sorted({c for c in critical if -bound < c < bound}) + [bound]
    values = [horner(cs, x) for x in points]
    found = [x for x, v in zip(points, values) if v == 0.0] * 2
    for lo, hi, flo, fhi in zip(points, points[1:], values, values[1:]):
        if flo and fhi and (flo < 0) != (fhi < 0):
            found.append(_bracketed_root(cs, deriv, lo, hi, flo, fhi))
    return sorted(found), critical


class Chart(NamedTuple):
    """The float form g(y) = 2^-e f(2^s y + t) that ``_chart`` builds, and its map to x."""

    t: float
    s: int
    e: int
    g: list

    @property
    def units(self) -> str:
        """What y is in x, for messages: " (in y = (x - t) / 2^s)", or "" for y = x."""
        shift = f"(x {'-' if self.t > 0 else '+'} {abs(self.t)!r})" if self.t else "x"
        scale = f" / 2^{self.s}" if self.s else ""
        return f" (in y = {shift}{scale})" if self.s or self.t else ""

    def in_x(self, ys: Iterable[float]) -> list:
        """x = 2^s y + t for each y of the chart, those beyond the float range dropped."""
        xs = []
        for y in ys:
            try:
                x = math.ldexp(y, self.s) + self.t
            except OverflowError:
                continue
            if math.isfinite(x):
                xs.append(x)
        return xs


def _rounded(ints: Sequence[int], den: int, powers: Sequence[int], e=None) -> tuple:
    """(e, g), each g[i] = ints[i] 2^(powers[i] - e) / den rounded once by int
    / int true division: the one rounding of a caller's coefficients.  Unless
    given, e = floor(log2(m / den)), m the largest |ints[i]| 2^powers[i],
    read from bit lengths and one comparison: the largest exact |g[i]| is in
    [1, 2).  A g[i] beyond the float range raises DomainError."""
    if e is None:
        low = min(powers)
        top = max(abs(c) << (p - low) for c, p in zip(ints, powers))  # m / 2^low
        k = top.bit_length() - den.bit_length()  # top / den is in (2^(k-1), 2^(k+1))
        e = low + k - (top < den << k if k >= 0 else top << -k < den)
    try:
        g = [(c << (p - e)) / den if p >= e else c / (den << (e - p)) for c, p in zip(ints, powers)]
    except OverflowError:
        raise DomainError("a coefficient lies beyond the float range") from None
    return e, g


def _chart(values: Sequence[Number], t=None, s=None, e=None) -> Chart:
    """The ``Chart`` (t, s, e, g), g(y) = 2^-e f(2^s y + t), of the polynomial
    f with coefficients ``values`` (leading first and nonzero; exact or
    float): ``_rounded`` rounds each coefficient of g once from f's exact
    integers, and g is ``_stripped`` of a leading one that underflows.  Unless
    given, the float t is the root centroid -a1 / (n a0), rounded once from
    f's exact integers, if that lowers ``fujiwara_exponent`` by 2 or more (a
    4x smaller root bound), else 0.0: the constant term f(t), one Horner
    step in integers, settles most rejections before the rest of the exact
    shift is made, since its own Fujiwara term is a lower bound on the
    exponent; the int s is minus ``fujiwara_exponent`` of the reversal of
    f(y + t) from its lowest nonzero power on, so every nonzero root of g
    has modulus above 1/4, or 0 where that leaves a coefficient of g
    subnormal; the int e is
    ``_rounded``'s, the largest coefficient of g in [1, 2).  All three read
    exact bit lengths, so f(2^j x) moves t to 2^-j t and s to s - j, 2^k f
    moves e to e + k, and g stays the same, bit for bit.  A given e that
    leaves a coefficient beyond the float range raises DomainError."""
    ints, den = integer_coefficients(values)
    deg = len(ints) - 1
    centre = t
    if t is None and deg >= 1:
        try:
            centre = -ints[1] / (deg * ints[0])  # int / int: rounded once
        except OverflowError:  # a centre beyond the float range
            centre = None
    if centre:
        num, q = centre.as_integer_ratio()  # q = 2^j
        j = q.bit_length() - 1
        # q^deg f(y + t) = P(q y + num) for P(X) = sum ints[i] q^i X^(deg - i), so
        # coefficient i of den q^deg f(y + t) is that of P(X + num) times q^(deg - i):
        # the Taylor shift by num is repeated synthetic division, in place, and its
        # first pass is Horner's rule, which leaves the constant term P(num) final
        moved = [c << (j * i) for i, c in enumerate(ints)]
        for k in range(1, deg + 1):
            moved[k] += num * moved[k - 1]
        trial = t is None
        bound = fujiwara_exponent(ints) - 2 if trial else 0
        # the Fujiwara term of the constant term alone, over the leading term
        # ints[0] q^deg, above the bound: the trial fails without the shift
        last, top = moved[deg], ints[0].bit_length() + j * deg
        if not (trial and last and -((top - last.bit_length()) // deg) > bound):
            for i in range(1, deg):
                for k in range(1, deg + 1 - i):
                    moved[k] += num * moved[k - 1]
            moved = [c << (j * (deg - i)) for i, c in enumerate(moved)]
            if not trial or fujiwara_exponent(moved) <= bound:
                t, ints, den = centre, moved, den << (j * deg)
    if s is None:
        exponents = [(deg - i, c.bit_length()) for i, c in enumerate(ints) if c]
        # minus fujiwara_exponent of the reversal from its lead, the lowest power
        low, e_low = exponents[-1]
        s = min([(e_low - ex) // (p - low) for p, ex in exponents[:-1]], default=0)
        dilated = [ex + s * p for p, ex in exponents]
        # 2^-1022 is the smallest normal float; g's largest coefficient is in [1, 2)
        s = 0 if min(dilated) - max(dilated) < -1022 else s
    e, g = _rounded(ints, den, [s * (deg - i) for i in range(deg + 1)], e)
    return Chart(t or 0.0, s, e, _stripped(g))


def _sign_at(ints: Sequence[int], x: float) -> int:
    """The sign of the polynomial with integer coefficients ``ints`` at the
    float x = p/q, exactly: the sign of q^n f(p/q), q > 0, by Horner in
    integers."""
    p, q = x.as_integer_ratio()
    acc, power = 0, 1
    for c in ints:
        acc, power = acc * p + c * power, power * q
    return (acc > 0) - (acc < 0)


def _certified(ints: Sequence[int], x: float) -> bool:
    """True if the exact polynomial with integer coefficients ``ints`` changes
    sign, or vanishes, within one ulp of x."""
    near = (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
    signs = [_sign_at(ints, v) for v in near if math.isfinite(v)]
    return 0 in signs or len(set(signs)) > 1


def cubic_roots(coeffs: CubicCoeffs) -> RootSet:
    """All real roots of a true cubic (a != 0), sorted, with multiplicities.

    The sign of the exact discriminant D classifies the roots.  For D = 0 the
    roots of Yun's factor f_k (``squarefree_factors``; linear for a cubic)
    have multiplicity k, each rounded once from exact integers.  For D != 0
    there are 3 real roots (D > 0) or 1 (D < 0).  The locator runs on f's
    chart at unit root scale, and a root is certified when the exact f changes
    sign or vanishes within one ulp of it; a float form with more roots than D
    allows keeps its certified ones.  While a root is not certified, f is
    located again on one chart centred on each critical point of the first (a
    close pair beside a far root), then at the caller's scale unless a
    coefficient is beyond the float range there: a certified root of a
    relocation takes the place of an uncertified one, the same by order if
    the count is right, else the nearest (a real pair the float form made
    complex).  No location with the right count: a root lies beyond the
    float range, and DomainError.
    """
    if coeffs.a == 0:
        raise DegenerateLeadingCoefficient(
            "cubic_roots requires a != 0; use the quadratic path for a = 0"
        )
    ints = integer_coefficients(coeffs.as_tuple())[0]
    disc = cubic_discriminant_int(*ints)
    if disc == 0:
        factors = squarefree_factors(Polynomial(ints))
        try:
            roots = sorted((-p.coeffs[1] / p.coeffs[0], k) for p, k in factors)
        except OverflowError:
            raise DomainError("a real root lies beyond the float range") from None
        return RootSet(tuple(roots), RootClassification.REPEATED_ROOT)

    want = 3 if disc > 0 else 1
    roots, certified, lone = [], [], []
    places = [()]  # _chart's arguments after the coefficients: each chart is built on reaching it
    for place in places:
        try:
            chart = _chart(coeffs.as_tuple(), *place)
        except DomainError:  # the caller's scale, where a coefficient is beyond the float range
            continue
        located, critical = _real_roots(chart.g)
        located = chart.in_x(located)
        flags = [_certified(ints, x) for x in located]
        if len(located) > want:  # the float form made a complex pair real
            located = [x for x, ok in zip(located, flags) if ok]
            flags = [True] * len(located)
        if len(located) == want:
            if not roots:
                roots, certified = located, flags
            for i, (x, ok) in enumerate(zip(located, flags)):
                if ok and not certified[i]:
                    roots[i], certified[i] = x, True
        else:  # or a real pair complex
            lone += [x for x, ok in zip(located, flags) if ok]
        for x in lone if roots else ():  # each in the place of the nearest root
            i = min(range(want), key=lambda i: abs(roots[i] - x))
            if not certified[i]:
                roots[i], certified[i] = x, True
        if roots and all(certified):
            break
        if not place:  # the first chart: then one on each critical point, then the caller's scale
            places += [(x,) for x in chart.in_x(critical)] + [(0.0, 0, 0)]
    if not roots:
        raise DomainError(f"fewer than {want} real roots located: one is beyond the float range")
    if disc < 0:
        return RootSet(((roots[0], 1),), RootClassification.ONE_REAL_ONE_COMPLEX_PAIR)
    return RootSet(tuple((x, 1) for x in sorted(roots)), RootClassification.THREE_DISTINCT_REAL)


def factor_out_root(coeffs: CubicCoeffs, alpha: Number) -> CubicFactorization:
    """Split off a known root: f = (x - alpha) * (a*x**2 + k*x + l).

    Synthetic division gives k = b + a*alpha and l = c + k*alpha.  In exact
    mode the residual f(alpha) must vanish identically; in floating mode it
    must be within 1e-10 of the sum of the magnitudes of the terms Horner's
    rule adds up, sum |c_i| |alpha|^(3 - i).  A term beyond the float range,
    or a non-finite alpha, raises DomainError.
    """
    a, b, c, d = coeffs.as_tuple()
    exact = coeffs.is_exact() and is_exact_number(alpha)
    if exact:
        residual = horner((a, b, c, d), alpha)
        if residual != 0:
            raise NotARoot(f"f({alpha}) = {residual} != 0 in exact mode")
        return CubicFactorization(alpha, *_synthetic_quotient((a, b, c, d), alpha)[1:])

    af, bf, cf, df, alpha_f = float_coefficients((a, b, c, d, alpha))
    residual = horner((af, bf, cf, df), alpha_f)
    size = horner((abs(af), abs(bf), abs(cf), abs(df)), abs(alpha_f))
    if not math.isfinite(size):
        raise DomainError(f"the terms of f({alpha_f}) are not finite floats")
    tol = _ROOT_RESIDUAL_FACTOR * size
    if abs(residual) > tol:
        raise NotARoot(f"|f({alpha_f})| = {abs(residual):.3e} exceeds tolerance {tol:.3e}")
    return CubicFactorization(alpha_f, *_synthetic_quotient((af, bf, cf, df), alpha_f)[1:])
