"""Centring before integration: the quadrature integrates f(x + t), t the
root centroid rounded once to a float, whenever that shrinks the root bound 4x.

F is translation invariant, so the shift needs no correction.  Its use is
numerical: a root cluster far from the origin, relative to its own size,
comes to unit scale, where the panels resolve it.
"""

import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from polynomials import beta_value, from_roots, sl2_image

from nongauss import (
    IllConditionedWarning,
    NoConvergence,
    NonGaussError,
    Polynomial,
    QuadratureConfig,
    RepeatedRootDivergence,
    integral_numeric_general,
)
from nongauss import polynomial, quadrature
from nongauss.polynomial import fujiwara_exponent, integer_coefficients


def _chart(values, *place):
    """``polynomial._chart`` of f with coefficients ``values``, cleared to
    integers once, as a public route clears its caller's."""
    return polynomial._chart(*integer_coefficients(values), *place)

# SL(2, Z) matrices (alpha, beta, gamma, delta) whose images
# (alpha x + beta)^n +- (gamma x + delta)^n of x^n +- 1 have a close complex
# root pair in a cluster far from the origin.  Integrated where they lie, the
# tangency test took that pair for a double real root and the value came out
# wrong with a tiny error estimate.
_CLUSTERED = {
    (7, True): "1,-1,-2,3 1,1,-3,-2 1,2,-2,-3 2,-3,-1,2 2,-1,-3,2 2,3,-1,-1 3,-2,-1,1 "
    "3,2,-2,-1",
    (8, True): "1,-3,1,-2 1,-2,-1,3 1,-2,2,-3 1,-1,-2,3 1,-1,3,-2 1,1,-3,-2 1,1,2,3 "
    "1,2,-2,-3 1,2,1,3 1,3,-1,-2 2,-3,-1,2 2,-3,1,-1 2,-1,-3,2 2,-1,3,-1 2,1,-3,-1 "
    "2,1,3,2 2,3,-1,-1 2,3,1,2 3,-2,-1,1 3,-2,2,-1 3,-1,-2,1 3,1,2,1 3,2,-2,-1 3,2,1,1",
    (8, False): "1,-2,2,-3 1,-1,-2,3 1,-1,3,-2 1,1,-3,-2 1,1,2,3 1,2,-2,-3 2,-3,-1,2 "
    "2,-3,1,-1 2,-1,-3,2 2,1,3,2 2,3,-1,-1 2,3,1,2 3,-2,-1,1 3,-2,2,-1 3,2,-2,-1 3,2,1,1",
}
_CLUSTERED_FORMS = [
    (n, plus, tuple(int(x) for x in m.split(",")))
    for (n, plus), text in _CLUSTERED.items()
    for m in text.split()
]


def _base(n, plus):
    return [1] + [0] * (n - 1) + [1 if plus else -1]


def _outcome(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            return integral_numeric_general(Polynomial(coeffs)).value
        except NonGaussError as exc:
            return type(exc)


def test_there_are_48_clustered_forms():
    assert len(_CLUSTERED_FORMS) == len(set(_CLUSTERED_FORMS)) == 48
    for n, plus, m in _CLUSTERED_FORMS:
        assert m[0] * m[3] - m[1] * m[2] == 1


@pytest.mark.parametrize("n, plus, m", _CLUSTERED_FORMS)
def test_clustered_images_match_beta(n, plus, m):
    coeffs = sl2_image(n, plus, m)
    assert _chart(coeffs)[0] != 0.0
    value = integral_numeric_general(Polynomial(coeffs)).value
    expected = beta_value(n, plus)
    assert abs(value - expected) <= 1e-8 * expected


def _evaluations(count_evaluations, coeffs):
    return count_evaluations(integral_numeric_general, Polynomial(coeffs))


def test_named_forms_keep_their_evaluation_counts(count_evaluations):
    # root-locator evaluations plus quadrature nodes, pinned: a change here
    # means other nodes, another order or other stops
    assert _evaluations(count_evaluations, _base(8, False)) == 164
    assert _evaluations(count_evaluations, _base(8, True)) == 290
    assert _evaluations(count_evaluations, sl2_image(8, False, (3, -2, 2, -1))) == 408


def test_clustered_images_cost_about_what_their_base_costs(count_evaluations):
    # Counted are all polynomial evaluations: integrand nodes and root
    # location.  Centred, the 48 forms cost 1.67x their bases in total and at
    # most 2.09x each: the panels are the arcs between the real roots, graded
    # toward the nearest other root, and the real roots are found by
    # bracketed Newton steps.  Integrated where they lie, with the tangency
    # test off, they cost about 11x.
    base_cost, total, total_base = {}, 0, 0
    for n, plus, m in _CLUSTERED_FORMS:
        if (n, plus) not in base_cost:
            base_cost[n, plus] = _evaluations(count_evaluations, _base(n, plus))
        cost = _evaluations(count_evaluations, sl2_image(n, plus, m))
        assert cost <= 3.5 * base_cost[n, plus], (n, plus, m)
        total += cost
        total_base += base_cost[n, plus]
    assert total <= 1.8 * total_base


def test_clustered_images_without_the_shift_are_right_or_unresolved(monkeypatch):
    # The nonzero exact D, not the shift, keeps the close pair from being
    # taken for a double root: integrated where they lie, the forms come out
    # right (28 of 48) or as NoConvergence, never as the old wrong values.
    monkeypatch.setattr(
        quadrature, "_chart", lambda ints, den, t=0.0, s=None: polynomial._chart(ints, den, t, s)
    )
    right = 0
    for n, plus, m in _CLUSTERED_FORMS:
        value = _outcome(sl2_image(n, plus, m))
        if value is not NoConvergence:
            expected = beta_value(n, plus)
            assert abs(value - expected) <= 1e-8 * expected, (n, plus, m)
            right += 1
    assert right >= 24


def _exact_image(coeffs, t, s, e):
    """2^-e f(2^s y + t) in exact rationals, each coefficient rounded to float once."""
    shifted = Polynomial([Fraction(c) for c in coeffs]).taylor_shift(Fraction(t)).coeffs
    n = len(shifted) - 1
    return [float(c * Fraction(2) ** (s * (n - i) - e)) for i, c in enumerate(shifted)]


def _rescaled(coeffs, s, e):
    """2^-e f(2^s y) on the float coefficients of f: exact powers of two."""
    n = len(coeffs) - 1
    return [math.ldexp(c, s * (n - i) - e) for i, c in enumerate(coeffs)]


def test_shifted_coefficients_are_rounded_once():
    rng = random.Random(61)
    clustered = []
    for n, plus, m in _CLUSTERED_FORMS:
        k = rng.randint(-40, 40)
        clustered.append([math.ldexp(c, k) for c in sl2_image(n, plus, m)])
    # clusters of a float form, a Fraction form, and dyadic roots 2^-20 apart
    # around 3 * 2^30
    others = [
        [float(c) for c in from_roots([3 * 2**30 + i for i in range(-2, 3)]).coeffs],
        from_roots([Fraction(1000, 7) + Fraction(i, 3) for i in range(4)]).coeffs,
        from_roots([Fraction(3 * 2**50 + i, 2**20) for i in range(5)]).coeffs,
    ]
    for coeffs in clustered + others:
        t, s, e, g = _chart(coeffs)
        assert t != 0.0
        assert g == _exact_image(coeffs, t, s, e)
        assert 1.0 <= max(map(abs, g)) <= 2.0
        # the exact centroid -a1 / (n a0), rounded once
        n = len(coeffs) - 1
        assert t == float(-Fraction(coeffs[1]) / (n * Fraction(coeffs[0])))


def test_centre_is_the_rounded_centroid():
    # unit-width root clusters 2^4..2^60 from the origin: t is the centroid
    # -a1 / (n a0) of the float coefficients, rounded once, moves to 2^-j t (and
    # s to s - j) under f(2^j x) and stays under 2^k f (e moves to e + k),
    # and the float form is the same, bit for bit
    rng = random.Random(67)
    fired = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        centre = rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(4.0, 60.0)
        roots = [centre + rng.uniform(-1.0, 1.0) for _ in range(n)]
        leading = rng.uniform(0.5, 2.0)
        coeffs = [float(c) for c in from_roots(roots, leading=leading).coeffs]
        t, s, e, g = _chart(coeffs)
        if not t:
            continue
        fired += 1
        centroid = -Fraction(coeffs[1]) / (n * Fraction(coeffs[0]))
        assert t == float(centroid)
        j, k = rng.randint(-30, 30), rng.randint(-300, 300)
        dilated = [math.ldexp(c, j * (n - i)) for i, c in enumerate(coeffs)]
        assert _chart(dilated) == (math.ldexp(t, -j), s - j, e, g)
        assert _chart([math.ldexp(c, k) for c in coeffs]) == (t, s, e + k, g)
    assert fired >= 150


@pytest.mark.parametrize("k", range(1, 16))
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_shift_stays_off_for_spread_roots(k, signs):
    # (10^-k, +-1, 0, -+1): roots near +-1 and one near -+10^k, so the
    # centroid sits far from every root and the root bound does not shrink
    b, d = signs
    coeffs = [10.0**-k, float(b), 0.0, float(-d)]
    t, s, e, g = _chart(coeffs)
    assert t == 0.0 and g == _rescaled(coeffs, s, e)


def test_shift_stays_off_without_a_linear_term_or_on_overflow():
    coeffs = [1.0, 0.0, -1.0, 5.0]
    t, s, e, g = _chart(coeffs)
    assert t == 0.0 and g == _rescaled(coeffs, s, e)
    # f(y + t) has coefficients near 2^1400 and its root bound is not 4x
    # smaller, so f is charted as it is
    coeffs = [2.0**-600, 2.0**400, 1.0]
    t, s, e, g = _chart(coeffs)
    assert t == 0.0 and g == _rescaled(coeffs, s, e)
    # the centroid -10^400 / 2 lies beyond the float range
    assert _chart([Fraction(1, 10**400), 1, 1])[0] == 0.0


def _centroid_trial(values):
    """(t, f's integers, those of den q^n f(y + t)) for the centroid t = num/q
    of ``_chart``, the shift made in full by ``Polynomial.taylor_shift``;
    t = 0.0 and no shift where the centroid is 0.0 or beyond the float range."""
    ints, den = integer_coefficients(values)
    n = len(ints) - 1
    try:
        t = -ints[1] / (n * ints[0])
    except OverflowError:
        t = 0.0
    if not t:
        return 0.0, ints, None
    q = t.as_integer_ratio()[1]
    shifted = Polynomial([Fraction(c) for c in ints]).taylor_shift(Fraction(t)).coeffs
    moved = [c * q**n for c in shifted]
    assert all(c.denominator == 1 for c in moved)
    return t, ints, [int(c) for c in moved]


def _full_trial_chart(values):
    """``_chart(values)`` with its centroid trial made in full: the shift is
    kept when it lowers ``fujiwara_exponent`` of f's integers by 2 or more."""
    t, ints, moved = _centroid_trial(values)
    if t and fujiwara_exponent(moved) > fujiwara_exponent(ints) - 2:
        t = 0.0
    return _chart(values, t)


def _trial_forms(count):
    """(kind, exact coefficients) of degree 2-8: a cluster far from the origin,
    roots spread about it, or a cluster whose centroid is one of its roots."""
    rng = random.Random(79)
    for i in range(count):
        kind = ("clustered", "spread", "centroid root")[i % 3]
        n = rng.randint(2, 8)
        centre = _dyadic(rng.choice((-1, 1)) * 2 ** rng.uniform(-2, 24), 8)
        if kind == "clustered":
            roots = [centre + _dyadic(rng.uniform(-1, 1)) for _ in range(n)]
        elif kind == "spread":
            roots = [_dyadic(rng.uniform(-1, 1) * 2 ** rng.uniform(0, 20)) for _ in range(n)]
        else:  # deviations from the centre that sum to 0, the centre a root
            radius = 2 ** rng.uniform(-4, 30)
            moves = [_dyadic(rng.uniform(-radius, radius)) for _ in range(n - 2)]
            roots = [centre, centre - sum(moves)] + [centre + d for d in moves]
        leading = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        yield kind, from_roots(roots, leading=leading).coeffs


def test_chart_matches_the_full_centroid_trial():
    # the constant term f(t) settles a rejection before the shift is made; the
    # chart is the one the full trial gives, on exact and float input, and on
    # their 2^k and dilation images
    rng = random.Random(97)
    outcomes = Counter()
    for kind, coeffs in _trial_forms(240):
        n = len(coeffs) - 1
        k, j = rng.randint(-200, 200), rng.randint(-20, 20)
        floats = [float(c) for c in coeffs]
        for values in (
            coeffs,
            floats,
            [c * Fraction(2) ** k for c in coeffs],
            [math.ldexp(c, k) for c in floats],
            [c * Fraction(2) ** (j * (n - i)) for i, c in enumerate(coeffs)],
            [math.ldexp(c, j * (n - i)) for i, c in enumerate(floats)],
        ):
            assert _chart(values) == _full_trial_chart(values), (kind, values)
        t, ints, moved = _centroid_trial(coeffs)
        if not moved:
            outcome = "no centroid"
        elif _chart(coeffs).t:
            outcome = "centred, f(t) = 0" if moved[-1] == 0 else "centred"
        elif moved[-1] == 0:
            outcome = "rejected, f(t) = 0"
        else:  # the Fujiwara term of the constant term alone
            alone = fujiwara_exponent([moved[0]] + [0] * (n - 1) + [moved[-1]])
            bound = fujiwara_exponent(ints) - 2
            outcome = "rejected by f(t)" if alone > bound else "rejected after the shift"
        outcomes[kind, outcome] += 1
    assert outcomes["clustered", "centred"] >= 60
    assert outcomes["spread", "rejected by f(t)"] >= 30
    assert outcomes["centroid root", "centred, f(t) = 0"] >= 30
    assert outcomes["centroid root", "rejected, f(t) = 0"] >= 30
    assert sum(v for (_, o), v in outcomes.items() if o == "rejected after the shift") >= 20


def test_centring_keeps_dilations_exact():
    for n, plus, m in _CLUSTERED_FORMS[::6]:
        coeffs = [float(c) for c in sl2_image(n, plus, m)]
        base = integral_numeric_general(Polynomial(coeffs))
        for j in (-37, 5, 90):
            dilated = [math.ldexp(c, j * (n - i)) for i, c in enumerate(coeffs)]
            result = integral_numeric_general(Polynomial(dilated))
            assert result.value == math.ldexp(base.value, -j)
            assert result.error_estimate == math.ldexp(base.error_estimate, -j)


def test_errors_name_the_centre(monkeypatch):
    # (x - 1000)^2 (x - 999)(x - 1001): a double root at 1000, with n = 4
    f = from_roots([1000, 1000, 999, 1001])
    with pytest.raises(RepeatedRootDivergence, match=r"\(in y = \(x - 1000\.0\)\)"):
        integral_numeric_general(f)
    # (x + 1000)^4 + 2^-40: the roots sit 2^-10 from -1000
    g = Polynomial([*from_roots([-1000] * 4).coeffs[:4], 10**12 + Fraction(1, 2**40)])
    # (four cuts down, two rules of each half agree to the last bit, even at
    # rel_tol = 1e-30; two leave the panel unresolved)
    monkeypatch.setattr(quadrature, "_BISECTIONS", 2)
    with pytest.raises(NoConvergence, match=r"\(in y = \(x \+ 1000\.0\) / 2\^-\d+\)"):
        integral_numeric_general(g, QuadratureConfig(rel_tol=1e-30))
    # without a shift the coordinates stay x / 2^s
    with pytest.raises(NoConvergence, match=r"\(in y = x / 2\^-\d+\)"):
        integral_numeric_general(Polynomial([1, 0, 0, 0, 2**-40]), QuadratureConfig(rel_tol=1e-30))


# --- seeded root sets that are not SL(2, Z) images --------------------------

def _dyadic(x, bits=20):
    return Fraction(round(x * 2**bits), 2**bits)


def _product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _from_roots(centre, reals, pairs):
    """Exact coefficients of prod (x - c - r) * prod ((x - c - u)^2 + v^2)."""
    out = [Fraction(1)]
    for r in reals:
        out = _product(out, [1, -(centre + r)])
    for u, v in pairs:
        out = _product(out, [1, -2 * (centre + u), (centre + u) ** 2 + v * v])
    return out


def _reference(reals, pairs):
    """mpmath at 40 digits on the product form about the cluster's centre:
    F is translation invariant, and no cancellation enters."""
    mpmath.mp.dps = 40
    n = len(reals) + 2 * len(pairs)
    def mpf(q):
        return mpmath.mpf(q.numerator) / q.denominator

    rs = [mpf(r) for r in reals]
    cs = [(mpf(u), mpf(v)) for u, v in pairs]
    power = mpmath.mpf(-2) / n

    def integrand(x):
        p = mpmath.mpf(1)
        for r in rs:
            p *= abs(x - r)
        for u, v in cs:
            p *= (x - u) ** 2 + v * v
        return p**power

    points = sorted(set(rs + [u for u, _ in cs]))
    return mpmath.quad(integrand, [-mpmath.inf] + points + [mpmath.inf])


def _far_clusters(count):
    """Degree 4-8 clusters centred at 10^1..10^4 with radius 0.1..3: real
    roots mixed with close conjugate pairs, at least one pair each."""
    rng = random.Random(71)
    for _ in range(count):
        centre = _dyadic(10 ** rng.uniform(1, 4), 8) * rng.choice((-1, 1))
        n = rng.randint(4, 8)
        radius = 10 ** rng.uniform(-1, math.log10(3))
        npairs = rng.randint(1, n // 2)
        reals = [_dyadic(rng.uniform(-radius, radius)) for _ in range(n - 2 * npairs)]
        pairs = [
            (_dyadic(rng.uniform(-radius, radius)), _dyadic(radius * 10 ** rng.uniform(-2, -0.5)))
            for _ in range(npairs)
        ]
        yield centre, reals, pairs


@pytest.mark.parametrize("centre, reals, pairs", list(_far_clusters(12)))
def test_far_clusters_match_mpmath(centre, reals, pairs):
    coeffs = _from_roots(centre, reals, pairs)
    assert _chart(coeffs)[0] != 0.0
    value = _outcome(coeffs)
    expected = _reference(reals, pairs)
    assert abs(value - expected) <= 1e-10 * expected


def _near_pairs(count):
    """A conjugate pair u +- iv with v = 10^-8..10^-2 among unit-size roots,
    all about the origin: no translation separates the pair."""
    rng = random.Random(73)
    for _ in range(count):
        n = rng.randint(4, 8)
        pairs = [(_dyadic(rng.uniform(-1, 1)), _dyadic(10 ** rng.uniform(-8, -2), 40))]
        reals = []
        while len(reals) + 2 * len(pairs) < n:
            if n - len(reals) - 2 * len(pairs) >= 2 and rng.random() < 0.5:
                pairs.append((_dyadic(rng.uniform(-2, 2)), _dyadic(10 ** rng.uniform(-2, 0.3))))
            else:
                reals.append(_dyadic(rng.uniform(-2, 2)))
        yield reals, pairs


@pytest.mark.parametrize("reals, pairs", list(_near_pairs(8)))
def test_close_pairs_near_the_origin_are_right_or_unresolved(reals, pairs):
    # the exact D is nonzero, so the pair is never taken for a double root
    value = _outcome(_from_roots(Fraction(0), reals, pairs))
    if value is not NoConvergence:
        expected = _reference(reals, pairs)
        assert abs(value - expected) <= 1e-8 * expected
