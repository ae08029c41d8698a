"""Exact root multiplicities and the simple-root locator.

A root's multiplicity is decided once, on exact integers: D != 0 makes every
root simple, and for D = 0 Yun's square-free decomposition gives each root
its k.  The float forms only locate simple roots.
"""

import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest

from polynomials import from_roots

from nongauss import (
    CubicCoeffs,
    IllConditionedWarning,
    NoConvergence,
    Polynomial,
    RepeatedRootDivergence,
    closed_form_integral,
    decompose,
    discriminant_general,
    gaussian_integral_numeric,
    integral_numeric,
    integral_numeric_general,
)
from nongauss import polynomial, quadrature
from nongauss.polynomial import squarefree_factors


def _product(*factors):
    out = [Fraction(1)]
    for p in factors:
        nxt = [Fraction(0)] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                nxt[i + j] += a * b
        out = nxt
    return out


def _reference(n, reals, pairs):
    """mpmath value of the integral of |prod (x - r)^k prod ((x - u)^2 + w)|^(-2/n)
    for ``reals`` = [(r, k)] and ``pairs`` = [(u, w)], all Fractions.

    mpmath's quad, tanh-sinh, is alone good to about 1e-6 at an |x -
    r|^(-4/5) endpoint, so each half-panel next to a root of multiplicity k
    is integrated in t with x = r +- t^p, p = n / (n - 2k), where the
    integrand is smooth; the root factor is then t^(p k), never the
    difference of two close numbers.
    """
    with mpmath.workdps(30):
        return float(_mp_reference(n, reals, pairs))


def _mp_reference(n, reals, pairs):
    def mpf(q):
        return mpmath.mpf(q.numerator) / q.denominator

    roots = [(mpf(r), k) for r, k in reals]
    centres = [(mpf(u), mpf(w)) for u, w in pairs]
    power = mpmath.mpf(-2) / n

    def integrand(x, skip=None, distance=None):
        value = mpmath.mpf(1)
        for r, k in roots:
            value *= distance**k if r == skip else abs(x - r) ** k
        for u, w in centres:
            value *= (x - u) ** 2 + w
        return value**power

    def half(a, k, b):
        """Integral from the root a (multiplicity k, 0 for none) to b."""
        if not k:
            return mpmath.quad(integrand, [a, b] if a < b else [b, a])
        p = mpmath.mpf(n) / (n - 2 * k)
        side = 1 if b > a else -1

        def smooth(t):
            d = t**p
            return integrand(a + side * d, a, d) * p * t ** (p - 1)

        return mpmath.quad(smooth, [0, abs(b - a) ** (1 / p)])

    marks = sorted(roots + [(u, 0) for u, _ in centres])
    total = mpmath.quad(integrand, [-mpmath.inf, marks[0][0] - 1])
    total += mpmath.quad(integrand, [marks[-1][0] + 1, mpmath.inf])
    total += half(marks[0][0], marks[0][1], marks[0][0] - 1)
    total += half(marks[-1][0], marks[-1][1], marks[-1][0] + 1)
    for (a, ka), (b, kb) in zip(marks[:-1], marks[1:]):
        mid = (a + b) / 2
        total += half(a, ka, mid) + half(b, kb, mid)
    return total


_E12, _E10 = Fraction(1, 10**12), Fraction(1, 10**10)
with mpmath.workdps(40):
    _SQRT2 = Fraction(int(mpmath.sqrt(2) * 10**35), 10**35)

# D = 0 forms on which the float tangency test returned status-ok values 10^5
# times too large: (coefficients, n, real roots (r, k), complex pairs (u, w))
_DOUBLE_ROOT_FORMS = [
    # (x^2 - 2)^2 (x + 1): a 35-digit stand-in for sqrt(2) in the reference
    ([1, 1, -4, -4, 4, 4], 5, [(_SQRT2, 2), (-_SQRT2, 2), (Fraction(-1), 1)], []),
    # (x - 1)^2 (x + 3) ((x - 5)^2 + 10^-12)
    (
        _product([1, -1], [1, -1], [1, 3], [1, -10, 25 + _E12]),
        5,
        [(Fraction(1), 2), (Fraction(-3), 1)],
        [(Fraction(5), _E12)],
    ),
    # its n = 6 sibling (x - 1)^2 (x + 3) (x - 2) ((x - 5)^2 + 10^-10)
    (
        _product([1, -1], [1, -1], [1, 3], [1, -2], [1, -10, 25 + _E10]),
        6,
        [(Fraction(1), 2), (Fraction(-3), 1), (Fraction(2), 1)],
        [(Fraction(5), _E10)],
    ),
]


def test_the_motivating_forms_are_written_out_right():
    assert _DOUBLE_ROOT_FORMS[1][0] == [
        1, -9, Fraction(10000000000001, 10**12), Fraction(78000000000001, 10**12),
        Fraction(-31000000000001, 2 * 10**11), Fraction(75000000000003, 10**12),
    ]
    for coeffs, n, _, _ in _DOUBLE_ROOT_FORMS:
        assert len(coeffs) == n + 1
        assert discriminant_general(Polynomial(coeffs)).value == 0


@pytest.mark.parametrize("coeffs, n, reals, pairs", _DOUBLE_ROOT_FORMS)
def test_double_root_forms_are_right_or_unresolved(coeffs, n, reals, pairs):
    # the tangency test gave 1197614.33, 583354.2 and 3.92274 (against 3.90946)
    try:
        value = integral_numeric_general(Polynomial(coeffs)).value
    except NoConvergence:
        return
    expected = _reference(n, reals, pairs)
    assert abs(value - expected) <= 1e-5 * expected


def test_the_sqrt2_form_is_resolved():
    # (x^2 - 2)^2 (x + 1) ~ 11.3854: its double roots are exact panel ends
    expected = _reference(5, *_DOUBLE_ROOT_FORMS[0][2:])
    assert abs(expected - 11.3854) < 1e-4
    value = integral_numeric_general(Polynomial([1, 1, -4, -4, 4, 4])).value
    assert abs(value - expected) <= 1e-9 * expected


def test_squarefree_factors_of_seeded_products():
    # prod (x - r_i)^k_i with small rational r_i and k_i <= 3: f_k is exactly
    # the product of the (x - r_i) with k_i = k, up to a constant
    rng = random.Random(83)
    for _ in range(200):
        roots = list({Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(5)})
        ks = [rng.randint(1, 3) for _ in roots][: rng.randint(1, len(roots))]
        roots = roots[: len(ks)]
        lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        f = from_roots([r for r, k in zip(roots, ks) for _ in range(k)], lead)
        factors = squarefree_factors(f)
        assert [k for _, k in factors] == sorted(set(ks))
        for p, k in factors:
            assert all(isinstance(c, int) for c in p.coeffs) and p.coeffs[0] > 0
            assert math.gcd(*p.coeffs) == 1
            expected = from_roots(sorted(r for r, kr in zip(roots, ks) if kr == k))
            assert [Fraction(c, p.coeffs[0]) for c in p.coeffs] == list(expected.coeffs)


def test_squarefree_factors_of_float_and_square_free_input():
    assert squarefree_factors(Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])) == [
        (Polynomial([1, 0, -1]), 2)
    ]
    assert squarefree_factors(Polynomial([1, 0, 0, 0])) == [(Polynomial([1, 0]), 3)]
    assert squarefree_factors(Polynomial([2.5, 0, 0, 1])) == [(Polynomial([5, 0, 0, 2]), 1)]


def test_double_root_runs_the_remainder_sequence_of_f_and_f_prime_twice(monkeypatch):
    # the sequence of f and f' runs once for D and, as D = 0, once more as
    # Yun's first gcd, then Yun's own steps: (6, 5), (6, 5), (5, 4), (2, 0)
    # in (len a, len b)
    f = Polynomial([1, -2, 2, -2, 1, 0])  # (x - 1)^2 x (x^2 + 1)
    factors = squarefree_factors(f)
    calls, used, kernel = [], [], polynomial._subresultant

    def counted(a, b):
        calls.append((len(a), len(b)))
        return kernel(a, b)

    monkeypatch.setattr(polynomial, "_subresultant", counted)
    monkeypatch.setattr(
        quadrature, "squarefree_factors", lambda f: used.append(squarefree_factors(f)) or used[-1]
    )
    result = integral_numeric_general(f)
    assert calls == [(6, 5), (6, 5), (5, 4), (2, 0)]
    assert result.discriminant.value == 0 and used == [factors]
    assert factors == [(Polynomial([1, 0, 1, 0]), 1), (Polynomial([1, -1]), 2)]


def test_decompose_takes_its_verdict_from_the_sign_of_d():
    # (x - 10^25)^2 + 1 at n = 2: D = -4 allows no real root, but the float
    # form has one, so the integral (pi) is unresolved, as the Gaussian route
    # says; once decompose called it a divergent simple root
    f = Polynomial([1, -2 * 10**25, 10**50 + 1])
    with pytest.raises(NoConvergence) as caught:
        gaussian_integral_numeric(*f.coeffs)
    with pytest.raises(NoConvergence) as decomposed:
        decompose(f, 2)
    assert str(decomposed.value) == str(caught.value)
    # x^2 - 1 at n = 2: D = 4, two real roots, each |x - r|^-1
    with pytest.raises(RepeatedRootDivergence, match="multiplicity 1"):
        decompose(Polynomial([1, 0, -1]), 2)


@pytest.mark.parametrize(
    "coeffs, calls",
    [([1, 2, 3, 5], 0), ([1, 0, 0, 0, -1], 0), ([1, -2, 2, -2, 1, 0], 1), ([1, 0, 2, 0, 1], 1)],
)
def test_decompose_splits_square_free_factors_only_where_d_is_zero(coeffs, calls, monkeypatch):
    # D != 0 makes every root simple; (x - 1)^2 x (x^2 + 1) and (x^2 + 1)^2 have D = 0
    used = []
    monkeypatch.setattr(
        quadrature, "squarefree_factors", lambda f: used.append(f) or squarefree_factors(f)
    )
    layout = decompose(Polynomial(coeffs), len(coeffs) - 1)
    assert len(used) == calls
    assert layout.panels


def test_a_root_at_the_origin_is_reported_as_zero_not_minus_zero():
    # x^4: Yun's linear factor x charts to [1.0, 0.0], whose root is -0.0
    with pytest.raises(RepeatedRootDivergence, match=r"root 0\.0 has multiplicity 4"):
        decompose(Polynomial([1, 0, 0, 0, 0]), 4)
    # x^2 + x: the quadratic formula's c/q gives -0.0 for the root at 0
    breakpoints = decompose(Polynomial([1, 1, 0]), 3).breakpoints
    assert breakpoints == (-1.0, 0.0) and math.copysign(1.0, breakpoints[1]) == 1.0


def _invariants(f, n):
    """(value, error estimate, decompose(f, n), warning count) of f at degree n."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = integral_numeric_general(f)
        layout = decompose(f, n)
    return result.value, result.error_estimate, layout, len(caught)


def test_double_root_forms_are_invariant_under_exact_scaling_and_dilation():
    # 2^(n m) f(2^j x) has F(f) * 2^(-j - 2m): the Yun factors' charts move
    # with the main chart, so value, estimate, layout and warnings follow to
    # the last bit on forms (x - r)^2 h(x) with D = 0
    rng = random.Random(7)
    for _ in range(20):
        r = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        h = [rng.randint(-5, 5) or 1 for _ in range(rng.randint(4, 5))]
        coeffs = _product([1, -r], [1, -r], h)
        n = len(coeffs) - 1
        assert discriminant_general(Polynomial(coeffs)).value == 0
        value, error, layout, count = _invariants(Polynomial(coeffs), n)
        for _ in range(2):
            j, m = rng.randint(-60, 60), rng.randint(-30, 30)
            image = [c * Fraction(2) ** (n * m + j * (n - i)) for i, c in enumerate(coeffs)]
            shift = -j - 2 * m
            expected = (math.ldexp(value, shift), math.ldexp(error, shift), layout, count)
            assert _invariants(Polynomial(image), n) == expected


def test_dilated_path_has_no_false_double_root():
    # D != 0, so no root is multiple: the locator separates all three roots,
    # -1e-4, 1e-4 and the one near -1e308 at the top of the float range
    cubic = CubicCoeffs(1e-300, 1e8, 0, -1)
    assert len(polynomial._real_roots([1e-300, 1e8, 0.0, -1.0])[0]) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        numeric = integral_numeric(cubic).value
    closed = closed_form_integral(cubic).value
    assert abs(numeric - closed) <= 1e-12 * closed


# --- the locator --------------------------------------------------------------


def _spread_products(count):
    """Degree 4-8 products prod (x - r_i) of distinct real roots with
    log-uniform moduli in [0.1, 10^12] and random signs."""
    rng = random.Random(89)
    for _ in range(count):
        n = rng.randint(4, 8)
        roots = set()
        while len(roots) < n:
            roots.add(rng.choice((-1, 1)) * 10 ** rng.uniform(-1, 12))
        yield sorted(roots)


@pytest.mark.parametrize("roots", list(_spread_products(60)))
def test_locator_matches_mpmath_on_spread_real_roots(roots):
    coeffs = [float(c) for c in from_roots(roots, 1.0).coeffs]
    with mpmath.workdps(50):
        exact = [mpmath.mpf(c) for c in coeffs]
        zs = mpmath.polyroots(exact, maxsteps=200, extraprec=200)
    expected = sorted(float(z.real) for z in zs)
    located = polynomial._real_roots(coeffs)[0]
    assert len(located) == len(expected)
    for x, r in zip(located, expected):
        assert abs(x - r) <= 1e-8 * abs(r)


def _sturm_count(coeffs):
    """Number of distinct real roots by an exact Sturm sequence."""
    seq = [[Fraction(c) for c in coeffs]]
    n = len(coeffs) - 1
    seq.append([(n - i) * c for i, c in enumerate(seq[0][:-1])])
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        while len(a) >= len(b):  # a mod b
            q = a[0] / b[0]
            a = [u - q * v for u, v in zip(a[1:], b[1:] + [0] * len(a))]
        while a and a[0] == 0:
            a = a[1:]
        if not a:
            break
        seq.append([-c for c in a])

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    at_minus = [(1 if p[0] > 0 else -1) * (-1) ** (len(p) - 1) for p in seq]
    at_plus = [1 if p[0] > 0 else -1 for p in seq]
    return changes(at_minus) - changes(at_plus)


def test_located_roots_match_an_exact_sturm_count():
    rng = random.Random(97)
    checked = 0
    while checked < 80:
        n = rng.randint(4, 8)
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n)]
        if discriminant_general(Polynomial(coeffs)).value == 0:
            continue  # not square-free
        located = polynomial._real_roots([float(c) for c in coeffs])[0]
        assert len(located) == _sturm_count(coeffs), coeffs
        assert len(set(located)) == len(located)
        checked += 1
