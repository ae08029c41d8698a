"""Dense polynomials, cubic coefficient quadruples, and the one real-root locator.

Coefficients are stored leading-first: ``(a0, a1, ..., an)`` represents
``a0*x**n + a1*x**(n-1) + ... + an``.  Each coefficient is kept as given,
``int``, ``Fraction`` or float, next to any of the others.  A public call
clears them once, at its entry, by ``integer_coefficients``, and passes the
integers ``ints`` over ``den`` down; ``_rounded`` alone rounds those, once,
for ``_chart`` and the finite-difference stencil of ``renorm``, on the
exponent of ``_split``, the one split of a ratio into m 2^e, which ``renorm``
takes of |D|.  All operations are pure functions of immutable values, safe
to call concurrently.

``_exact`` is the one exact entry of every route that reports D: it clears
a form's coefficients and returns (ints, den, d), d = den^(2n-2) D on the
integers, from ``cubic_discriminant_int`` at n = 3 and from
``_subresultant`` above it.  ``_subresultant`` is the one exact remainder
sequence: on such integers it gives R(f, f') for ``_exact`` and every gcd
of ``squarefree_factors``.

``_real_roots`` locates the float roots of every form but a cubic on its
covariant chart: the sign-stable quadratic formula at degree 2, formed on
mantissas so that it neither overflows nor underflows, and above that
bracketed Newton steps between the recursively located critical points,
which it returns with the roots and its count of evaluations.  It runs for
``cubic_roots``, for the quadrature's forms of degree 2 and 4 and above and
Yun's factors at D = 0, and where ``_covariant_chart`` has no chart or does
not certify its closed form.  Above degree 2 it runs in one kernel per degree,
compiled on first use, that calls the kernel one degree lower for the
critical points and writes out the derivative, the Fujiwara bound and
Horner's rule on f and f', with no Python call per evaluation: a loop over
``horner`` calls took about 23 us per bench cubic and 57 us per bench
general form, the kernels 16 and 34 (2-vCPU Xeon, Python 3.11).
``_compiled`` generates them, and the quadrature's panel kernels, from
source templates; each runs in its own module's globals and does the
operations of the loop it replaces in their order, so its results are that
loop's bit for bit.

``_chart`` alone builds the float forms it reads, each a ``Chart`` of
``(ints, den)`` at unit root scale whose ``in_x`` maps its roots back to x.
The quadrature and ``cubic_roots`` locate on such charts; ``cubic_roots``
takes the number of real roots from the sign of the exact discriminant and
relocates a close pair on a chart centred on each critical point of its
first location.  ``_covariant_chart`` centres a cubic's chart on the root of
its Hessian covariant (``_hessian``, the A, B, C of the resolvent quadratic)
and gives its roots in closed form, each polished by at most _POLISH_STEPS
Newton steps and certified by a sign change of the float form.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DegenerateLeadingCoefficient, DegreeTooLow, DomainError, NotARoot

Number = Union[int, Fraction, float]

_ROOT_RESIDUAL_FACTOR = 1e-10
_ROOT_BITS = 64  # bits of the fixed-point sqrt(-3D) of _covariant_chart
_POLISH_STEPS = 3  # Newton steps at most per closed-form root of _covariant_chart


def is_exact_number(value: Number) -> bool:
    """True for values that participate in exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def integer_coefficients(values: Sequence[Number]) -> tuple:
    """Exact integers ``ints`` and one positive ``den`` with v == ints[i] / den.

    This is the only place denominators are cleared, but for the
    finite-difference grid of floats, which shifts to the same integers.
    Floats convert losslessly through ``as_integer_ratio``, so all-float input
    gives a power-of-two ``den``; a NaN or infinity raises DomainError.
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


def _local_names(k: int) -> list:
    """The locals of k coefficients, leading first, in a generated kernel:
    lead, c0, c1, ..., c(k - 2)."""
    return ["lead", *[f"c{i}" for i in range(int(k) - 1)]]


def _horner_source(names: Sequence[str]) -> str:
    """Horner's rule at the local x on the locals ``names``, leading first,
    written out: ((n0 * x + n1) * x + n2) ..., the operations of ``horner``
    in its order (its first step, 0 * x + n0, is n0 at a finite x)."""
    source = names[0]
    for name in names[1:]:
        source = f"({source} * x + {name})"
    return source


def _compiled(template: str, k: int, name: str, namespace: dict, **fields):
    """The function ``kernel`` of ``template`` for k coefficients, compiled:
    ``{names}`` formats as the ``_local_names(k)``, comma-separated, and
    ``{horner}`` as ``_horner_source`` on them, each other field as given.
    The source depends on nothing but k and ``fields``: the coefficients are
    arguments.  It runs in ``namespace``, the globals of the module whose
    template it is and not a copy, so it reads that module's constants and
    tables, monkeypatched or not, when called."""
    names = _local_names(k)
    source = template.format(names=", ".join(names) + ",", horner=_horner_source(names), **fields)
    local = {}
    exec(compile(source, f"<{namespace['__name__']} {name} {k}>", "exec"), namespace, local)
    return local["kernel"]


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

    def __setattr__(self, name, value):  # the immutability guard
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


class CubicCoeffs(NamedTuple):
    """The quadruple (a, b, c, d) of a*x**3 + b*x**2 + c*x + d."""

    a: Number
    b: Number
    c: Number
    d: Number

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_exact(self) -> bool:
        return all(is_exact_number(v) for v in self)

    def as_polynomial(self) -> Polynomial:
        """The coefficients as given, leading zeros dropped, so a = 0 inputs
        come out as true quadratics."""
        return Polynomial(self)


class CubicFactorization(NamedTuple):
    """Data of the split f = (x - alpha) * (a*x**2 + k*x + l)."""

    alpha: Number
    k: Number
    l: Number


class RootClassification(Enum):
    THREE_DISTINCT_REAL = "ThreeDistinctReal"
    ONE_REAL_ONE_COMPLEX_PAIR = "OneRealOneComplexPair"
    REPEATED_ROOT = "RepeatedRoot"


class RootSet(NamedTuple):
    """Real roots with multiplicities, plus the discriminant-sign class."""

    roots: tuple
    classification: RootClassification


def cubic_discriminant_int(a: int, b: int, c: int, d: int) -> int:
    """Five-term expansion b^2c^2 + 18abcd - 4ac^3 - 4b^3d - 27a^2d^2 on the
    integers of ``integer_coefficients``; homogeneous of degree 4.  Factored
    on the shared products bc and ad, it is the same integer in fewer
    multiplications."""
    bc, ad = b * c, a * d
    return bc * (bc + 18 * ad) - 4 * (a * c * c * c + b * b * b * d) - 27 * ad * ad


def _hessian(a: int, b: int, c: int, d: int) -> tuple:
    """(A, B, C) of the Hessian covariant A x^2 + B x + C of the cubic (a, b,
    c, d): A = b^2 - 3ac, B = bc - 9ad, C = c^2 - 3bd, and 4AC - B^2 = 3D."""
    return b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d


def _exact(values: Sequence[Number]) -> tuple:
    """(ints, den, d): the one exact entry.  The coefficients of a form of
    declared degree n = len(values) - 1 >= 2 (else DegreeTooLow) are cleared
    once, by ``integer_coefficients``, and d = den^(2n - 2) D is the
    discriminant of the integers ``ints``: b^2 - 4ac at n = 2, the five terms
    of ``cubic_discriminant_int`` at n = 3, and above that (-1)^(n(n-1)/2)
    R(f, f') / a0 from ``_subresultant``, an exact quotient.  A leading zero
    keeps the declared degree through D_n(0, a1, ..., an) = a1^2 D_(n-1)(a1,
    ..., an), the rule both expansions follow at a0 = 0."""
    n = len(values) - 1
    if n < 2:
        raise DegreeTooLow(f"need degree >= 2, got {n}")
    ints, den = integer_coefficients(values)
    lead, rest = 1, ints
    while len(rest) > 4 and rest[0] == 0:
        lead, rest = lead * rest[1] ** 2, rest[1:]
    if len(rest) == 4:
        d = cubic_discriminant_int(*rest)
    elif len(rest) == 3:
        a, b, c = rest
        d = b * b - 4 * a * c
    else:
        m = len(rest) - 1
        r = _subresultant(rest, derivative_coeffs(rest))[0]
        d = (-r if m * (m - 1) // 2 % 2 else r) // rest[0]
    return ints, den, lead * d


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


# The root locator of a float form of degree n >= 3, formatted by ``_compiled``
# from its n + 1 coefficients: ``{names}`` are the parameters lead, c0, c1, ...,
# ``{derivative}`` sets their power-rule derivative on the locals ``{slopes}``,
# dlead, dc0, ..., which the locator of degree ``{lower}`` = n - 1 reads,
# ``{fujiwara}`` takes ``fujiwara_exponent`` term by term, and ``{horner}``
# and ``{slope}`` are Horner's rule on f and on f' at x: the operations of
# the loop over ``horner`` calls they replace, in its order.  Inside each
# bracket, Newton steps are kept inside the shrinking bracket: a step that
# leaves it or fails to halve the step before becomes a bisection.  Once a
# step is within an ulp, Newton has converged on one end while the other
# may still be far, so the next points probe toward the other end at 1, 2,
# 4, ... ulps until the sign changes.  The root is an exact zero of the
# float form, or the end of smaller |f| once the bracket is two adjacent
# floats: within one ulp of a sign change.
_LOCATOR_SOURCE = """\
def kernel({names}):
    {derivative}
    critical, _, evaluations = _locator({lower})({slopes})
    e0 = math.frexp(lead)[1]
    j = None
{fujiwara}    if j is None:
        j = 0
    bound = math.ldexp(4.0, j) if j < 1022 else math.nextafter(math.inf, 0.0)  # the largest float
    points = [-bound] + sorted({{c for c in critical if -bound < c < bound}}) + [bound]
    values = []
    for x in points:
        values.append({horner})
    evaluations += len(points)
    found = [x for x, v in zip(points, values) if v == 0.0] * 2
    for lo, hi, flo, fhi in zip(points, points[1:], values, values[1:]):
        if not (flo and fhi and (flo < 0) != (fhi < 0)):
            continue
        x, last, reach = 0.5 * lo + 0.5 * hi, hi - lo, 0.0
        while True:
            fx = {horner}
            evaluations += 1
            if fx == 0.0:
                break
            if (fx < 0) == (flo < 0):
                lo, flo = x, fx
            else:
                hi, fhi = x, fx
            mid = 0.5 * lo + 0.5 * hi  # no overflow next to the float range
            if mid == lo or mid == hi:
                x = lo if abs(flo) <= abs(fhi) else hi
                break
            fp = {slope}
            evaluations += 1
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
        found.append(x)
    found.sort()
    return found, critical, evaluations
"""


@functools.cache
def _locator(degree: int):
    """``_real_roots`` of float forms of ``degree`` >= 1, called on their
    coefficients: the closed forms up to degree 2, above them the kernel
    compiled from ``_LOCATOR_SOURCE`` on first use."""
    if degree == 1:
        return lambda a, b: ([-b / a], [], 0)
    if degree == 2:
        return lambda a, b, c: (_quadratic_roots(a, b, c), [-b / (2 * a)], 0)
    names = _local_names(degree + 1)
    slopes = ["d" + c for c in names[:-1]]
    derivative = [f"{d} = {degree - i} * {c}" for i, (d, c) in enumerate(zip(slopes, names))]
    fujiwara = [
        f"    if {c}:\n"
        f"        t = -((e0 - math.frexp({c})[1]) // {i})\n"
        "        if j is None or t > j:\n"
        "            j = t\n"
        for i, c in enumerate(names[1:], 1)
    ]
    return _compiled(
        _LOCATOR_SOURCE,
        degree + 1,
        "locator",
        globals(),
        derivative="\n    ".join(derivative),
        slopes=", ".join(slopes),
        lower=degree - 1,
        fujiwara="".join(fujiwara),
        slope=_horner_source(slopes),
    )


def _real_roots(cs: Sequence[float]) -> tuple:
    """(roots, critical points, evaluations) of a float-coefficient
    polynomial, the first two sorted, leading coefficient nonzero (``_chart``
    strips the leading coefficients that underflowed, each a root beyond the
    float range), whose exact roots are simple: closed forms up to degree
    2; above, inside the Fujiwara bound 2^(j + 2), one root per sign change
    between the recursively located critical points, by bracketed Newton
    steps, and an exact zero at one, in the kernel ``_locator(deg)``.  A root
    the float form makes multiple (a zero at a critical point, a double
    quadratic root) comes out repeated: double precision did not resolve it.
    The evaluations of f, f' and the derivatives below, each Horner's rule
    at one point, are counted the way ``_panel_value`` counts its nodes."""
    if len(cs) <= 1:
        return [], [], 0
    return _locator(len(cs) - 1)(*cs)


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


def _quotient(num: int, den: int, shift: int) -> float:
    """num 2^shift / den, rounded once by int / int true division;
    OverflowError beyond the float range."""
    return (num << shift) / den if shift >= 0 else num / (den << -shift)


def _split(num: int, den: int) -> tuple:
    """(m, e), |num| / den = m 2^e: e from bit lengths and one exact comparison,
    m in [1, 2] rounded once, ``_quotient(num, den, -e)`` written out.  Both
    depend on the value alone, so the value times 2^j splits to m and e + j."""
    num = abs(num)
    k = num.bit_length() - den.bit_length()  # num / den is in (2^(k-1), 2^(k+1))
    e = k - (num < den << k if k >= 0 else num << -k < den)
    return (num / (den << e) if e >= 0 else (num << -e) / den), e


def _rounded(ints: Sequence[int], den: int, powers: Sequence[int], e=None) -> tuple:
    """(e, g), each g[i] = ints[i] 2^(powers[i] - e) / den rounded once by int
    / int true division: the one rounding of a caller's coefficients.  Unless
    given, e = floor(log2(m / den)), m the largest |ints[i]| 2^powers[i],
    the exponent of ``_split``: the largest exact |g[i]| is in [1, 2).  A
    g[i] beyond the float range raises DomainError."""
    if e is None:
        low = min(powers)
        top = max(abs(c) << (p - low) for c, p in zip(ints, powers))  # m / 2^low
        e = low + _split(top, den)[1]
    try:
        g = [_quotient(c, den, p - e) for c, p in zip(ints, powers)]
    except OverflowError:
        raise DomainError("a coefficient lies beyond the float range") from None
    return e, g


def _chart(ints: Sequence[int], den: int, t=None, s=None, e=None) -> Chart:
    """The ``Chart`` (t, s, e, g), g(y) = 2^-e f(2^s y + t), of f = ints /
    den as an entry cleared it (leading first and nonzero), each coefficient
    of g rounded once by ``_rounded``, and the leading coefficients of g that
    underflow to 0.0 stripped, each a root beyond the float range, so g's
    lead is nonzero as ``_real_roots`` reads it.  Unless given, the float t
    is the root centroid -a1 / (n a0), rounded once, if that lowers
    ``fujiwara_exponent`` by 2 or more (a 4x smaller root bound), else 0.0:
    the constant term f(t), one Horner step in integers, settles most
    rejections before the rest of the exact shift is made; the int s is
    minus ``fujiwara_exponent`` of the reversal of f(y + t) from its lowest
    nonzero power on, so every nonzero root of g has modulus above 1/4, or 0
    where that leaves the lead of g below the normal floats; the int e is
    ``_rounded``'s, the largest coefficient of g in [1, 2).  All three read
    exact bit lengths, so f(2^j x) moves t to 2^-j t and s to s - j, 2^k f
    moves e to e + k, and g stays the same, bit for bit.  A given e that
    leaves a coefficient beyond the float range raises DomainError."""
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
        # g's lead below 2^-1022, the smallest normal float; its largest is in [1, 2)
        s = 0 if dilated[0] - max(dilated) < -1022 else s
    e, g = _rounded(ints, den, [s * (deg - i) for i in range(deg + 1)], e)
    # a leading zero of g underflowed: its root lies beyond the float range
    return Chart(t or 0.0, s, e, list(itertools.dropwhile(lambda c: c == 0.0, g)))


def _cube_root(num: int, den: int, shift: int) -> float:
    """The real cube root of num 2^shift / den: the quotient is moved by 8^k,
    read from bit lengths, into (1/16, 2) before it is rounded, and its root
    back by 2^-k."""
    k = (den.bit_length() - num.bit_length() - shift) // 3
    x = _quotient(num, den, shift + 3 * k)
    return math.ldexp(math.copysign(abs(x) ** (1.0 / 3.0), x), -k)


def _polished(g0: float, g1: float, g2: float, g3: float, x: float) -> tuple:
    """(root, evaluations): x after at most _POLISH_STEPS Newton steps on g =
    g0 y^3 + g1 y^2 + g2 y + g3, stopped once g, by Horner's rule, vanishes at
    x or changes sign between x and the next float toward the Newton step;
    the root is the one of the two where |g| is smaller, as the locator picks.
    None if no step gets there.  g and g' at x and g at the neighbour count
    an evaluation each, as the locator counts them."""
    d0, d1 = 3.0 * g0, 2.0 * g1
    evaluations = 0
    for step in range(_POLISH_STEPS + 1):
        if not math.isfinite(x):
            break
        fx = ((g0 * x + g1) * x + g2) * x + g3
        evaluations += 1
        if fx == 0.0:
            return x, evaluations
        fp = (d0 * x + d1) * x + g2
        near = math.nextafter(x, -math.inf if (fx > 0.0) == (fp > 0.0) else math.inf)
        fn = ((g0 * near + g1) * near + g2) * near + g3
        evaluations += 2
        if fx > 0.0 and fn <= 0.0 or fx < 0.0 and fn >= 0.0:
            return (near if abs(fn) < abs(fx) else x), evaluations
        if not fp or step == _POLISH_STEPS:
            break
        new = x - fx / fp
        x = near if new == x else new  # a step below half an ulp moves to the neighbour
    return None, evaluations


def _covariant_chart(ints: Sequence[int], den: int, d: int):
    """(chart, (roots, critical points, evaluations)) of the cubic f = ints /
    den, a != 0, with d = den^4 D != 0, on the chart centred on the root of
    its Hessian covariant H = A x^2 + B x + C of ``_hessian`` (the reduction
    theory of binary cubics: Julia 1917; Cremona, LMS J. Comput. Math. 2,
    1999), so that no two roots of f are close in it; None, and the caller
    charts f by ``_chart``, where t is no finite float (a pair narrower than
    2^-1024 of its centre or beyond the float range) or D < 0 and im is 0.0.

    D > 0: H's root is p + iq, p = -B/2A, q^2 = 3D/4A^2 (A > 0); t is p,
    rounded once, and s from the bit lengths of 3D and 4A^2 puts c = q/2^s in
    (0.7, 2).  Seen from p + iq the roots are 120 degrees apart: in z = y/c, g
    is alpha (z^3 - 3z) + beta (3z^2 - 1), alpha = g0 c^3 and beta = g1 c^2/3
    read off g, whose roots are cot(theta + k pi/3), theta = (atan2(beta,
    alpha) + pi/2)/3.  The far root, whose tan is nearest 0, comes from the
    sum -g1/g0 of the roots instead.

    D < 0: H's roots h1, h2 are real, and f(h1)/f(h2) = rho^3 with |rho| <= 1
    names h1.  On M(y) = (h1 + h2 y)/(1 + y), f is f(h1) + f(h2) y^3 over
    (1 + y)^3, so the complex root M(rho e^(i pi/3)) has real part h1 +
    kappa (1/2 + rho)/(1 + rho + rho^2) and imaginary part kappa (sqrt(3)/2)
    / (1 + rho + rho^2), kappa = (h2 - h1) rho; at A = 0, h2 is infinite,
    rho = 0 and kappa = (f(h1)/a)^(1/3).  t is that real part, and 2^s the
    imaginary part to within [1, 2), so the pair lies near +-i, and the real
    root is near -g1/g0, the sum of the roots.  With r = sqrt(-3D) and f
    reduced mod H, 2A^3 f(h+-) = u +- v r on exact integers; the larger of
    the two takes no cancellation, and f(h+) f(h-) = D^2/A^3 makes kappa^3 a
    quotient of integers, so kappa stays normal where rho is not, and rho is
    kappa / (h2 - h1).  r is a _ROOT_BITS fixed point by ``math.isqrt`` at a
    scale read from the bit length of -3D.

    Every float is a quotient of exact integers rounded once, or a function
    of such floats that are dimensionless, and t = 2^s0 tau with tau
    dimensionless, so 2^k f and f(2^j x) move t, s and e exactly.  Each root
    is polished by ``_polished``; where one is not, or two meet, or g lost
    its lead, ``_real_roots`` locates g.  The critical points are the
    locator's, by ``_quadratic_roots``."""
    # 2^k f has f's t and s: the centre is read off f over its common power
    # of two, the lowest bit set in any coefficient
    a, b, c, last = ints
    zeros = ((a | b | c | last) & -(a | b | c | last)).bit_length() - 1
    if zeros:
        a, b, c, last, d = a >> zeros, b >> zeros, c >> zeros, last >> zeros, d >> 4 * zeros
    big_a, big_b, big_c = _hessian(a, b, c, last)
    try:
        if d > 0:
            s0 = s = ((3 * d).bit_length() - (4 * big_a * big_a).bit_length()) // 2
            tau = _quotient(-big_b, 2 * big_a, -s)
            scale = math.sqrt(_quotient(3 * d, 4 * big_a * big_a, -2 * s))
        else:
            delta = -3 * d  # B^2 - 4AC: h = (-B +- r) / 2A
            sigma = _ROOT_BITS - (delta.bit_length() + 1) // 2
            root = math.isqrt(delta << 2 * sigma if sigma >= 0 else delta >> -2 * sigma)
            lam, mu = max(sigma, 0), max(-sigma, 0)  # r 2^lam is about root 2^mu
            if big_a:
                k = big_a * b - a * big_b  # A^2 f = v x + w mod H
                v = big_a * (big_a * c - a * big_c) - big_b * k
                p, q = -big_b, 2 * big_a
                u = v * p + (big_a * big_a * last - big_c * k) * q
                sign = 1 if (u >= 0) == (v >= 0) else -1  # h1 is h-, else h+
                larger = (u << lam) + sign * v * (root << mu)  # 2A^3 f(h2) 2^lam
                # u^2 - v^2 r^2 = 4 A^3 D^2, and h2 - h1 = sign r / A, so
                # kappa^3 = sign 4 r^3 D^2 / (2A^3 f(h2))^2 and rho = kappa sign A / r
                num, square = sign * 4 * delta * d * d * root, larger * larger
                s0 = (num.bit_length() + lam + mu - square.bit_length()) // 3
                kappa = _cube_root(num, square, lam + mu - 3 * s0)
                rho = kappa * _quotient(sign * big_a, root, s0 + lam - mu)
                y = (p << lam) + (root << mu if p >= 0 else -(root << mu))  # (-B -+ r) 2^lam
                if (sign < 0) == (p >= 0):  # h1 = y / 2A 2^lam
                    h1 = _quotient(y, q, -lam - s0)
                else:  # h1 = 2C 2^lam / y
                    h1 = _quotient(2 * big_c, y, lam - s0)
            else:  # f = a (x - h1)^3 + f(h1), h1 = -C/B, and num = B^3 f(h1)
                num = ((b * big_b - a * big_c) * big_c - c * big_b * big_b) * big_c
                num += last * big_b**3
                s0 = (num.bit_length() - (a * big_b**3).bit_length()) // 3
                rho, kappa = 0.0, _cube_root(num, a * big_b**3, -3 * s0)
                h1 = _quotient(-big_c, big_b, -s0)
            spread = 1.0 + rho + rho * rho
            tau = h1 + kappa * (0.5 + rho) / spread
            im = abs(kappa) * (0.5 * math.sqrt(3.0)) / spread
            s = s0 + math.frexp(im)[1] - 1
        t = math.ldexp(tau, s0)
    except OverflowError:
        return None
    if not math.isfinite(t) or d < 0 and not im:
        return None
    chart = _chart(ints, den, t, s)
    g = chart.g
    if abs(g[0]) < 2.0**-1022:
        # a lead below the normal floats stands for a root beyond 2^1022,
        # whose image in u = 1/y the float form cannot resolve: stripped, as
        # one that underflows, it puts the root at infinity, which moves F by
        # about |u|^(1/3), 1e-103 of it
        g = list(itertools.dropwhile(lambda c: abs(c) < 2.0**-1022, g))
        chart = chart._replace(g=g)
    if len(g) < 4:  # a root beyond the float range
        return chart, _real_roots(g)
    g0, g1, g2, g3 = g
    total = -g1 / g0  # the sum of the roots
    guesses = [total]
    if d > 0:
        alpha, beta = g0 * scale**3, g1 * scale * scale / 3.0
        theta = (math.atan2(beta, alpha) + 0.5 * math.pi) / 3.0
        _, *tans = sorted([math.tan(theta + k * math.pi / 3.0) for k in range(3)], key=abs)
        guesses = [scale / tan for tan in tans]
        guesses.append(total - guesses[0] - guesses[1])
    roots, evaluations = [], 0
    for x in guesses:
        x, count = _polished(g0, g1, g2, g3, x)
        roots.append(x)
        evaluations += count
    if None in roots or len(set(roots)) < len(roots):
        located, critical, count = _real_roots(g)
        return chart, (located, critical, evaluations + count)
    return chart, (sorted(roots), _quadratic_roots(3 * g0, 2 * g1, g2), evaluations)


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
    ints, den, disc = _exact(coeffs)
    if disc == 0:
        factors = squarefree_factors(Polynomial(ints))
        try:
            roots = sorted((-p.coeffs[1] / p.coeffs[0], k) for p, k in factors)
        except OverflowError:
            raise DomainError("a real root lies beyond the float range") from None
        return RootSet(tuple(roots), RootClassification.REPEATED_ROOT)

    want = 3 if disc > 0 else 1
    roots, certified, lone = [], [], []
    places = [()]  # _chart's arguments after (ints, den): each chart is built on reaching it
    for place in places:
        try:
            chart = _chart(ints, den, *place)
        except DomainError:  # the caller's scale, where a coefficient is beyond the float range
            continue
        located, critical, _ = _real_roots(chart.g)
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
    a, b, c, d = coeffs
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
