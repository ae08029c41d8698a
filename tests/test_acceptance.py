"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion N ... PASS` line (run pytest with -s to see
them); a failed assertion makes the corresponding criterion FAIL.  Stated
runtimes are printed for information and not asserted, since wall-clock
limits depend on the host.
"""

import math
import random
import time
from fractions import Fraction

from term_tables import discriminant_quartic_explicit, discriminant_quintic_explicit

from nongauss import (
    CubicCoeffs,
    Polynomial,
    QuadratureConfig,
    beta,
    closed_form_integral,
    constants,
    discriminant_cubic_explicit,
    discriminant_general,
    expectations,
    expectations_fd_check,
    gaussian_analogue,
    gaussian_integral_numeric,
    integral_numeric,
    integral_numeric_general,
    key_lemma_check,
    pde_identity_residuals,
    resolvent_data,
    resultant,
    vandermonde_delta_sq,
)

SEED = 20260810
REL_FORMULA = 1e-8
# sampling band for the finite-difference criteria: |D| >= 20 * scale^4
FD_BAND = 20


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def sample_cubics(rng, count, sign):
    """Random cubics with the requested discriminant sign, outside the
    ill-conditioned |D| < 1e-3 * scale^4 band; includes a = 0 and d = 0 cases."""
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if attempts % 9 == 0:
            coeffs[0] = 0.0
        elif attempts % 7 == 0:
            coeffs[3] = 0.0
        scale = max(abs(v) for v in coeffs)
        if scale == 0.0 or (coeffs[0] == 0.0 and coeffs[1] == 0.0):
            continue
        disc = discriminant_cubic_explicit(CubicCoeffs(*coeffs))
        if disc.value == 0 or abs(disc.value) < Fraction(1, 1000) * Fraction(scale) ** 4:
            continue
        if (disc.value > 0) != (sign > 0):
            continue
        out.append(CubicCoeffs(*coeffs))
    return out


def worst_formula_agreement(cases):
    worst = 0.0
    for cubic in cases:
        closed = closed_form_integral(cubic).value
        numeric = integral_numeric(cubic).value
        worst = max(worst, abs(numeric - closed) / abs(closed))
    return worst


def test_criterion_1_fundamental_formula_negative_discriminant():
    rng = random.Random(SEED)
    start = time.perf_counter()
    cases = [CubicCoeffs(1.0, 0.0, 0.0, 1.0)] + sample_cubics(rng, 100, sign=-1)
    worst = worst_formula_agreement(cases)
    elapsed = time.perf_counter() - start
    report(
        1,
        "D<0 closed form vs quadrature",
        worst <= REL_FORMULA,
        f"{len(cases)} cubics, worst rel diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_fundamental_formula_positive_discriminant():
    rng = random.Random(SEED + 1)
    start = time.perf_counter()
    cases = [
        CubicCoeffs(0.0, 1.0, 0.0, -1.0),   # a = 0 branch, D = b^2(c^2-4bd) = 4
        CubicCoeffs(1.0, 0.3, -1.2, 0.0),   # root at zero (d = 0)
    ] + sample_cubics(rng, 100, sign=+1)
    worst = worst_formula_agreement(cases)
    elapsed = time.perf_counter() - start
    report(
        2,
        "D>0 closed form vs quadrature",
        worst <= REL_FORMULA,
        f"{len(cases)} cubics, worst rel diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_constant_identity():
    k = constants()
    residual = abs(math.sqrt(3.0) * beta(1.0 / 3.0, 1.0 / 3.0) - 2.0 ** (1.0 / 3.0) * beta(0.5, 1.0 / 6.0)) / k.c_minus
    # 30-digit references computed offline with an arbitrary-precision library
    ref_minus = 9.17972422234315724947916503385
    ref_plus = 15.8997487525690496158232054968
    err_minus = abs(k.c_minus - ref_minus) / ref_minus
    err_plus = abs(k.c_plus - ref_plus) / ref_plus
    ok = residual <= 1e-12 and err_minus <= 1e-12 and err_plus <= 1e-12
    report(
        3,
        "sqrt(3)B(1/3,1/3) = 2^(1/3)B(1/2,1/6)",
        ok,
        f"identity residual {residual:.2e}, C- err {err_minus:.2e}, C+ err {err_plus:.2e}",
    )


def test_criterion_4_gaussian_analogue():
    closed = gaussian_analogue(1, 0, 1)
    closed_err = abs(closed - math.pi) / math.pi
    numeric = gaussian_integral_numeric(1.0, 0.0, 1.0, QuadratureConfig(rel_tol=1e-11))
    numeric_err = abs(numeric.value - math.pi) / math.pi
    ok = closed_err <= 1e-12 and numeric_err <= 1e-10
    report(
        4,
        "gauss 1 0 1 = pi",
        ok,
        f"closed err {closed_err:.2e}, quadrature err {numeric_err:.2e}",
    )


def test_criterion_5_discriminant_exactness():
    rng = random.Random(SEED + 2)
    start = time.perf_counter()

    checked = 0
    while checked < 10_000:
        coeffs = [rng.randint(-50, 50) for _ in range(4)]
        if coeffs[0] == 0:
            continue
        cubic = CubicCoeffs(*coeffs)
        p = Polynomial(coeffs)
        explicit = discriminant_cubic_explicit(cubic).value
        assert discriminant_general(p).value == explicit
        assert -resultant(p) / coeffs[0] == explicit
        r = resolvent_data(cubic)
        assert -(r.B * r.B - 4 * r.A * r.C) / 3 == explicit
        checked += 1

    for _ in range(1000):
        roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3)]
        coeffs = [Fraction(1)]
        for root in roots:
            nxt = [coeffs[0]]
            for i in range(1, len(coeffs)):
                nxt.append(coeffs[i] - root * coeffs[i - 1])
            nxt.append(-root * coeffs[-1])
            coeffs = nxt
        assert discriminant_cubic_explicit(CubicCoeffs(*coeffs)).value == vandermonde_delta_sq(
            roots, Fraction(1)
        )

    for degree, explicit_fn in ((4, discriminant_quartic_explicit), (5, discriminant_quintic_explicit)):
        checked = 0
        while checked < 1000:
            coeffs = [rng.randint(-10, 10) for _ in range(degree + 1)]
            if coeffs[0] == 0:
                continue
            assert discriminant_general(Polynomial(coeffs)).value == explicit_fn(coeffs)
            checked += 1

    elapsed = time.perf_counter() - start
    report(5, "exact discriminant route agreement", True, f"{elapsed:.1f}s")


def test_criterion_6_key_lemma():
    rng = random.Random(SEED + 3)
    worst = Fraction(0)
    for _ in range(1000):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        worst = max(worst, key_lemma_check(*values))
    report(6, "factorization identity residual", worst == 0, f"max residual {worst}")


def _fd_sample_points(count):
    # a = 0 cannot reach the band (|D| = b^2(c^2-4bd) <= 5*scale^4), so the
    # sampled points all have a != 0; the a = 0 identity cases are covered by
    # the module tests at unit coefficient scale.
    rng = random.Random(SEED + 4)
    points = []
    while len(points) < count:
        coeffs = [rng.randint(-5, 5) for _ in range(4)]
        scale = max(abs(v) for v in coeffs)
        if scale == 0 or coeffs[0] == 0:
            continue
        disc = discriminant_cubic_explicit(CubicCoeffs(*coeffs)).value
        if abs(disc) < FD_BAND * Fraction(scale) ** 4:
            continue
        points.append(CubicCoeffs(*(float(v) for v in coeffs)))
    return points


def test_criterion_7_differential_identities():
    points = _fd_sample_points(50)
    worst = 0.0
    for point in points:
        worst = max(worst, max(pde_identity_residuals(point)))
    report(
        7,
        "coefficient-identity residuals at 50 points",
        worst <= 1e-5,
        f"|D| >= {FD_BAND}*scale^4 band, worst residual {worst:.2e}",
    )


def test_criterion_8_expectation_values():
    points = _fd_sample_points(50)
    worst = 0.0
    for point in points:
        worst = max(worst, max(expectations_fd_check(point)))
    exact = expectations(CubicCoeffs(1, 0, -1, 0)).x3 == Fraction(1, 6)
    report(
        8,
        "moments vs finite differences at the same 50 points",
        worst <= 1e-5 and exact,
        f"worst residual {worst:.2e}, <x^3>(1,0,-1,0) exact: {exact}",
    )


def test_criterion_9_general_degree_exploration():
    quartic = integral_numeric_general(Polynomial([1.0, 0.0, 0.0, 0.0, 1.0]))
    oracle = 0.5 * beta(0.25, 0.25)
    quartic_err = abs(quartic.value - oracle) / oracle

    quintic = Polynomial([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    v1 = integral_numeric_general(quintic, QuadratureConfig(rel_tol=1e-8)).value
    v2 = integral_numeric_general(quintic, QuadratureConfig(rel_tol=1e-10)).value
    quintic_drift = abs(v1 - v2) / abs(v2)

    ok = quartic_err <= 1e-8 and quintic_drift <= 1e-8
    report(
        9,
        "degree 4/5 numeric exploration",
        ok,
        f"x^4+1 vs B(1/4,1/4)/2 err {quartic_err:.2e}, x^5+1 drift {quintic_drift:.2e}",
    )
