"""The four seeded workloads: inputs, the timed operation, its check, and the
traced layer calls.

A workload hands out *rounds*.  Every round of a workload has the same make-up
(the same number of cases of each kind, and the same fixed known-fault
inputs), so the share of failed operations is the same in every run whatever
the seed.  Only the seeded draws change from seed to seed; the program sees
nothing but the generated coefficients.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from nongauss import (
    CubicCoeffs,
    Polynomial,
    closed_form_integral,
    cubic_roots,
    decompose,
    discriminant_cubic_explicit,
    discriminant_general,
    expectations,
    expectations_fd_check,
    integral_numeric,
    integral_numeric_general,
    pde_identity_residuals,
)

import reference as ref


@dataclass(frozen=True)
class Case:
    """One operation's input and what its output is checked against.

    ``fault`` names the known fault an input is kept for ("" for none): a
    failure there is counted, anywhere else it makes the run incorrect.
    """

    kind: str
    coeffs: tuple
    expected: object
    fault: str = ""


# --- seeded cubic draws ---------------------------------------------------

# |D| >= band * scale^4: 1e-3 keeps quadrature clear of the ill-conditioned
# band, 20 is the finite-difference band of the acceptance suite.
_QUADRATURE_BAND = 1e-3
_FD_BAND = 20


def _valid_cubic(coeffs, band: float = 0.0) -> Optional[Fraction]:
    """The exact D when the integral converges and |D| >= band * scale^4."""
    if coeffs[0] == 0 and coeffs[1] == 0:
        return None
    disc = ref.cubic_discriminant(coeffs)
    scale = max(abs(Fraction(v)) for v in coeffs)
    if disc == 0 or abs(disc) < Fraction(band) * scale**4:
        return None
    return disc


def _pinned(coeffs: list, slot: int) -> list:
    """Pin a = 0 or d = 0 at fixed positions of a round, so every round has
    the same number of each degenerate case."""
    if slot % 8 == 3:
        coeffs[0] = type(coeffs[0])(0)
    elif slot % 8 == 6:
        coeffs[3] = type(coeffs[3])(0)
    return coeffs


def _draw(rng: random.Random, sample: Callable, slot: int, band: float = 0.0):
    """A seeded cubic for position ``slot`` of a round: D > 0 at even slots,
    D < 0 at odd ones, so every round has the same mix of root counts."""
    while True:
        coeffs = _pinned(sample(rng), slot)
        disc = _valid_cubic(coeffs, band)
        if disc is not None and (disc > 0) == (slot % 2 == 0):
            return coeffs


def _spread(rng: random.Random, lo: int, hi: int, slot: int, slots: int) -> int:
    """A seeded integer from the ``slot``-th of ``slots`` equal parts of
    [lo, hi], so every round covers the whole range evenly."""
    span = hi - lo + 1
    first = lo + slot * span // slots
    return rng.randint(first, max(first, lo + (slot + 1) * span // slots - 1))


def _small_ints(rng):
    return [rng.randint(-9, 9) for _ in range(4)]


def _dyadic(rng):
    return [rng.randint(-(2**20), 2**20) / 2.0**16 for _ in range(4)]


def _unit_floats(rng):
    return [rng.uniform(-2.0, 2.0) for _ in range(4)]


def _scaled(coeffs, k: int) -> tuple:
    return tuple(math.ldexp(float(v), k) for v in coeffs)


def _dilated(coeffs, j: int) -> tuple:
    """f(2^j x): (a, b, c, d) -> (8^j a, 4^j b, 2^j c, d), exact in binary."""
    a, b, c, d = (float(v) for v in coeffs)
    return (math.ldexp(a, 3 * j), math.ldexp(b, 2 * j), math.ldexp(c, j), d)


def _cubic_case(kind: str, coeffs, fault: str = "") -> Case:
    return Case(kind, tuple(coeffs), ref.cubic_discriminant(coeffs), fault)


# --- closed-form ------------------------------------------------------------


class ClosedForm:
    """closed_form_integral plus expectations on one cubic."""

    name = "closed-form"
    per_round = 200

    def round(self, rng: random.Random) -> list:
        cases = []
        half = self.per_round // 2
        for slot in range(half):
            cases.append(_cubic_case("int", _draw(rng, _small_ints, slot)))
            k = _spread(rng, -300, 300, slot, half)
            cases.append(_cubic_case("dyadic", _scaled(_draw(rng, _dyadic, slot), k)))
        return cases

    def call(self, case: Case):
        cubic = CubicCoeffs(*case.coeffs)
        return closed_form_integral(cubic), expectations(cubic)

    def check(self, case: Case, output) -> bool:
        result, moments = output
        exact = case.kind == "int"
        return (
            result.discriminant.value == case.expected
            and ref.close(result.value, ref.cubic_value(case.expected))
            and all(isinstance(m, Fraction) == exact for m in moments.as_tuple())
            and ref.moments_hold(case.coeffs, moments.as_tuple())
        )

    def traced(self, case: Case, tracer, parent: int):
        cubic = CubicCoeffs(*case.coeffs)
        result = tracer.call("renorm.closed_form", parent, closed_form_integral, cubic)
        moments = tracer.call("renorm.expectations", parent, expectations, cubic)
        tracer.probe("discriminant.cubic", parent, discriminant_cubic_explicit, cubic)
        return result, moments


# --- verify -----------------------------------------------------------------


_NONZERO = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def _fd_base(rng):
    # the acceptance suite's finite-difference sample: integers in [-5, 5], a != 0
    return [rng.choice(_NONZERO)] + [rng.randint(-5, 5) for _ in range(3)]


class Verify:
    """expectations_fd_check plus pde_identity_residuals on one cubic."""

    name = "verify"
    per_round = 10

    def round(self, rng: random.Random) -> list:
        cases = []
        for slot in range(self.per_round):
            # every cubic of this band has D < 0
            base = _fd_base(rng)
            while _valid_cubic(base, _FD_BAND) is None:
                base = _fd_base(rng)
            k = _spread(rng, -300, 300, slot, self.per_round)
            cases.append(Case("band", _scaled(base, k), None))
        return cases

    def call(self, case: Case):
        cubic = CubicCoeffs(*case.coeffs)
        return expectations_fd_check(cubic), pde_identity_residuals(cubic)

    def check(self, case: Case, output) -> bool:
        moments, identities = output
        residuals = tuple(moments) + tuple(identities)
        return (
            len(moments) == 4
            and len(identities) == 3
            and all(r <= ref.FD_RESIDUAL_TOL for r in residuals)
        )

    def traced(self, case: Case, tracer, parent: int):
        cubic = CubicCoeffs(*case.coeffs)
        moments = tracer.call("renorm.fd_check", parent, expectations_fd_check, cubic)
        identities = tracer.call("renorm.pde", parent, pde_identity_residuals, cubic)
        tracer.probe("discriminant.cubic", parent, discriminant_cubic_explicit, cubic)
        return moments, identities


# --- quadrature-cubic -----------------------------------------------------

# (a) The trigonometric branch of cubic_roots loses the roots near +-1 of
# (10^-k, 1, 0, -1): a false RepeatedRootDivergence for k = 9, 10, 12, 14, 15
# and values 70% / 94% off for k = 11 / 13.
_FAULT_A = tuple((10.0**-k, 1.0, 0.0, -1.0) for k in range(9, 16))

# (b) Compressing dilations f(2^j x), j > 0, of unit-band cubics: the panel
# next to the origin is never subdivided and quadrature stops with
# NoConvergence after ~50 ms.  The value should be 2^-j F(f).
_FAULT_B = (
    _dilated((-0.11530035241317593, 1.32831720317207, 0.7025450712263854, 0.09780398909811794), 6),
    _dilated((-0.8923246105829215, -0.7847540700206932, 1.8862607160440947, -0.659847654260663), 23),
)


class QuadratureCubic:
    """integral_numeric on one cubic, in equal thirds: unit band, exact
    rescalings 2^k f, and expanding dilations f(2^j x)."""

    name = "quadrature-cubic"
    per_third = 30

    def round(self, rng: random.Random) -> list:
        cases = []
        for slot in range(self.per_third):
            unit = _draw(rng, _unit_floats, slot, _QUADRATURE_BAND)
            cases.append(_cubic_case("unit", unit))
            rescaled = _draw(rng, _unit_floats, slot, _QUADRATURE_BAND)
            k = _spread(rng, -300, 300, slot, self.per_third)
            cases.append(_cubic_case("rescaled", _scaled(rescaled, k)))
            base = _draw(rng, _unit_floats, slot, _QUADRATURE_BAND)
            j = _spread(rng, -30, 0, slot, self.per_third)
            cases.append(_cubic_case("dilated", _dilated(base, j)))
        cases.extend(_cubic_case("fault-a", c, "a") for c in _FAULT_A)
        cases.extend(_cubic_case("fault-b", c, "b") for c in _FAULT_B)
        return cases

    def call(self, case: Case):
        return integral_numeric(CubicCoeffs(*case.coeffs))

    def check(self, case: Case, output) -> bool:
        return output.discriminant.value == case.expected and ref.close(
            output.value, ref.cubic_value(case.expected)
        )

    def traced(self, case: Case, tracer, parent: int):
        cubic = CubicCoeffs(*case.coeffs)
        result = tracer.call("quadrature.integral_numeric", parent, integral_numeric, cubic)
        tracer.probe("discriminant.cubic", parent, discriminant_cubic_explicit, cubic)
        if cubic.a != 0:
            tracer.probe("polynomial.cubic_roots", parent, cubic_roots, cubic)
        panels = tracer.probe("quadrature.decompose", parent, decompose, cubic.as_polynomial(), 3)
        tracer.count("quadrature.panels", parent, len(panels.panels))
        return result


# --- quadrature-general ---------------------------------------------------

# SL(2, Z) matrices with entries in [-3, 3], one of each pair +-M (both give
# the same |f|).
_SL2 = tuple(
    m
    for m in itertools.product(range(-3, 4), repeat=4)
    if m[0] * m[3] - m[1] * m[2] == 1 and next(x for x in m if x) > 0
)

# (n, sign of the base form x^n +- 1)
_FAMILIES = tuple((n, True) for n in range(4, 9)) + tuple((n, False) for n in (4, 6, 8))

# (c) Images whose close complex root pair the degree >= 4 tangency test
# mistakes for a double real root: the value is wrong (e.g. 4.6412 for the
# image [2, 40, 364, ..., 6817] of x^8 + 1, where B gives 3.91384) with a
# tiny error estimate.  Every scaling 2^k, |k| <= 20, of these forms fails the
# same way, and every scaling of the other forms passes.
_FAULT_C_TEXT = {
    (7, True): "1,-1,-2,3 1,1,-3,-2 1,2,-2,-3 2,-3,-1,2 2,-1,-3,2 2,3,-1,-1 3,-2,-1,1 "
    "3,2,-2,-1",
    (8, True): "1,-3,1,-2 1,-2,-1,3 1,-2,2,-3 1,-1,-2,3 1,-1,3,-2 1,1,-3,-2 1,1,2,3 "
    "1,2,-2,-3 1,2,1,3 1,3,-1,-2 2,-3,-1,2 2,-3,1,-1 2,-1,-3,2 2,-1,3,-1 2,1,-3,-1 "
    "2,1,3,2 2,3,-1,-1 2,3,1,2 3,-2,-1,1 3,-2,2,-1 3,-1,-2,1 3,1,2,1 3,2,-2,-1 3,2,1,1",
    (8, False): "1,-2,2,-3 1,-1,-2,3 1,-1,3,-2 1,1,-3,-2 1,1,2,3 1,2,-2,-3 2,-3,-1,2 "
    "2,-3,1,-1 2,-1,-3,2 2,1,3,2 2,3,-1,-1 2,3,1,2 3,-2,-1,1 3,-2,2,-1 3,2,-2,-1 3,2,1,1",
}
_FAULT_C = frozenset(
    (n, plus, tuple(int(x) for x in m.split(",")))
    for (n, plus), text in _FAULT_C_TEXT.items()
    for m in text.split()
)


def _sl2_image(n: int, plus: bool, m: tuple) -> list:
    """Coefficients of (alpha x + beta)^n +- (gamma x + delta)^n, leading first."""
    alpha, beta, gamma, delta = m
    sign = 1 if plus else -1
    return [
        math.comb(n, i) * (alpha ** (n - i) * beta**i + sign * gamma ** (n - i) * delta**i)
        for i in range(n + 1)
    ]


def _general_forms() -> tuple:
    forms = []
    for n, plus in _FAMILIES:
        for m in _SL2:
            coeffs = _sl2_image(n, plus, m)
            if coeffs[0] != 0:  # x^n - 1 drops degree when |alpha| = |gamma|
                forms.append((n, plus, m, coeffs))
    return tuple(forms)


class QuadratureGeneral:
    """integral_numeric_general on every SL(2, Z) image of x^n + 1 (n = 4..8)
    and x^n - 1 (n = 4, 6, 8) once per round, each scaled by a seeded 2^k."""

    name = "quadrature-general"

    def __init__(self):
        self.forms = _general_forms()

    def round(self, rng: random.Random) -> list:
        cases = []
        for n, plus, m, coeffs in self.forms:
            k = rng.randint(-20, 20)  # the cost does not depend on k
            value = ref.general_value(n, plus) * 2.0 ** (-2.0 * k / n)
            fault = "c" if (n, plus, m) in _FAULT_C else ""
            cases.append(Case(f"degree-{n}", _scaled(coeffs, k), value, fault))
        rng.shuffle(cases)
        return cases

    def call(self, case: Case):
        return integral_numeric_general(Polynomial(case.coeffs))

    def check(self, case: Case, output) -> bool:
        return ref.close(output.value, case.expected)

    def traced(self, case: Case, tracer, parent: int):
        poly = Polynomial(case.coeffs)
        result = tracer.call(
            "quadrature.integral_numeric_general", parent, integral_numeric_general, poly
        )
        tracer.probe("discriminant.general", parent, discriminant_general, poly)
        panels = tracer.probe("quadrature.decompose", parent, decompose, poly, poly.degree)
        tracer.count("quadrature.panels", parent, len(panels.panels))
        return result


WORKLOADS = {w.name: w for w in (ClosedForm, Verify, QuadratureCubic, QuadratureGeneral)}
