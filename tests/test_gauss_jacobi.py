"""Gauss-Jacobi panels: the rules, the ladder's kernel, the bisection of a
panel that no rule resolves, and agreement with the tests' tanh-sinh rule
panel by panel."""

import math
import random
import warnings
from pathlib import Path

import mpmath
import pytest

import tanh_sinh
from polynomials import from_roots, sl2_image

from nongauss import (
    CubicCoeffs,
    IllConditionedWarning,
    Polynomial,
    QuadratureConfig,
    integral_numeric,
    integral_numeric_general,
)
from nongauss import quadrature

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _smooth(t):
    return math.exp(t) / (2.0 + t)


@pytest.mark.parametrize(
    "m, alpha, beta",
    [
        (m, alpha, beta)
        for alpha, beta in [(0.0, 0.0), (-2 / 3, 0.0), (-0.5, -0.5), (-0.75, -0.25)]
        for m in (8, 32, 64)
    ]
    + [(128, -2 / 3, 0.0)],
)
def test_jacobi_rule_matches_mpmath(m, alpha, beta):
    # mpmath's rule at 30 digits: every node to about an ulp, every weight
    # within 1e-11 relative, and the sum of a smooth f within 1e-12
    nodes, weights = quadrature._jacobi_rule(m, alpha, beta)
    with mpmath.workdps(30):
        reference = sorted(zip(*mpmath.mp.gauss_quadrature(m, "jacobi", alpha, beta)))
        expected = mpmath.fsum(w * mpmath.exp(t) / (2 + t) for t, w in reference)
    rule = sorted(zip(nodes, weights))
    assert len(rule) == len(reference) == m
    for (t, w), (t_ref, w_ref) in zip(rule, reference):
        assert abs(t - t_ref) <= 1e-15
        assert abs(w - w_ref) <= 1e-11 * w_ref
    total = math.fsum(w * _smooth(t) for t, w in rule)
    assert abs(total - expected) <= 1e-12 * expected


@pytest.mark.parametrize("n", range(2, 9))
def test_every_ladder_rule_up_to_degree_8_is_a_gauss_rule(n):
    # the endpoint powers -2k/n of a root of multiplicity k, 2k < n: nodes
    # falling strictly inside (-1, 1), positive weights summing to the
    # weight's integral, and the first moment exact
    powers = [-2.0 * k / n for k in range(n) if 2 * k < n]
    for alpha in powers:
        for beta in powers:
            mass = 2.0 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1)
            mass /= math.gamma(alpha + beta + 2)
            first = mass * (beta - alpha) / (alpha + beta + 2)
            for m in quadrature._GAUSS_LADDER:
                nodes, weights = quadrature._jacobi_rule(m, alpha, beta)
                assert len(nodes) == m and 1.0 > nodes[0] and nodes[-1] > -1.0
                assert all(a > b for a, b in zip(nodes, nodes[1:]))
                assert min(weights) > 0.0
                assert math.fsum(weights) == pytest.approx(mass, rel=1e-14)
                moment = math.fsum(w * t for t, w in zip(nodes, weights))
                assert abs(moment - first) <= 1e-12 * mass


def test_jacobi_rules_are_built_once_and_stay_bounded():
    rule = quadrature._jacobi_rule
    assert rule(16, -2 / 3, 0.0) is rule(16, -2 / 3, 0.0)
    assert rule.cache_info().maxsize == quadrature._RULE_CACHE_SIZE


def _direct_gauss_panel(coeffs, exponent, lo, hi, m_lo, m_hi, cfg):
    """Reference for the ladder of ``quadrature._panel_value``: the endpoint
    roots divided out into q, then each rule's sum of the weights times
    |q|**(-exponent) at x = mid + hs t; where no rule converges, the last
    rule's value and difference, unconverged."""
    q = list(coeffs)
    for _ in range(m_lo):
        q = quadrature._synthetic_quotient(q, lo)
    for _ in range(m_hi):
        q = quadrature._synthetic_quotient(q, hi)
    quotient = Polynomial(q)
    hs, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    p_lo, p_hi = -exponent * m_lo, -exponent * m_hi
    scale = hs * hs**p_lo * hs**p_hi
    previous, nodes = None, 0
    for m in quadrature._GAUSS_LADDER:
        ts, ws = quadrature._jacobi_rule(m, p_hi, p_lo)
        total = 0.0
        for t, w in zip(ts, ws):
            total += abs(float(quotient(mid + hs * t))) ** -exponent * w
        nodes += m
        if previous is not None and abs(total - previous) <= cfg.rel_tol * total:
            return total * scale, abs(total - previous) * scale, True, nodes
        previous = total
    return total * scale, abs(total - previous) * scale, False, nodes


@pytest.mark.parametrize("m_lo,m_hi", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("length", range(1, 14))
def test_gauss_kernel_of_every_quotient_length_sums_the_direct_rules(length, m_lo, m_hi):
    # the kernel with Horner written out: the direct ladder's value, error,
    # convergence and node count, bit for bit, on a quotient with its roots
    # off [1, 3], which one ladder resolves, and endpoint roots at neither
    # end, one end or both
    rng = random.Random(length)
    lo, hi = 1.0, 3.0
    roots = [rng.uniform(-2.0, 0.5) if i % 2 else rng.uniform(3.5, 6.0) for i in range(length - 1)]
    coeffs = [float(c) for c in from_roots(roots + [lo] * m_lo + [hi] * m_hi).coeffs]
    args = (coeffs, 2.0 / max(3, len(coeffs) - 1), lo, hi, m_lo, m_hi, QuadratureConfig())
    direct = _direct_gauss_panel(*args)
    assert direct[2] and quadrature._panel_value(*args) == direct


def test_gauss_kernel_is_compiled_once_per_quotient_length():
    quadrature._gauss_kernel.cache_clear()
    cfg = QuadratureConfig()
    for coeffs in ([1.0, 0.0, 1.0], [3.0, -1.0, 2.0]):
        quadrature._panel_value(coeffs, 2.0 / 3.0, 0.0, 1.0, 0, 0, cfg)
    info = quadrature._gauss_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_a_panel_that_no_rule_resolves_is_bisected():
    # x^2 + 10^-4 on [-1, 1]: its roots +-0.01i are too near for 128 nodes,
    # so the panel is cut, and the halves next to the pair again, until
    # each resolves; the tests' tanh-sinh rule agrees within the estimates
    args = ([1.0, 0.0, 1e-4], 2.0 / 3.0, -1.0, 1.0, 0, 0, QuadratureConfig())
    value, error, converged, nodes = quadrature._panel_value(*args)
    reference, reference_error, reference_converged, _ = tanh_sinh.panel_value(*args, 12)
    assert converged and reference_converged and nodes > 2 * 248
    assert abs(value - reference) <= error + reference_error + 1e-10 * value


def test_a_zero_at_a_gauss_node_is_bisected_away():
    # x - t0 on [-1, 1], t0 the 8-point Legendre rule's first node: the
    # power fails there, and the panel is cut, not failed; no later node
    # meets t0.  The interior |x - t0|^(-2/3) is resolved by no Gauss rule,
    # so the half about t0 is cut down to the depth and ends the panel
    # unconverged, with the nodes of every ladder it ran
    t0 = quadrature._jacobi_rule(8, 0.0, 0.0)[0][0]
    args = ([1.0, -t0], 2.0 / 3.0, -1.0, 1.0, 0, 0, QuadratureConfig(rel_tol=1e-3))
    value, error, converged, nodes = quadrature._panel_value(*args)
    assert not converged and 0.0 < value < math.inf and 0.0 < error < math.inf
    # the failed 8-point rule, the 248 nodes of each of the 8 halves about t0,
    # and 24 of each resolved half beside them: at 2 of the 8 cuts the half
    # about t0 is the lower one, and the panel ends before its sibling runs
    assert nodes == 8 + 8 * 248 + 6 * 24


def _panels(monkeypatch, call, arg):
    """The arguments of every panel that ``call(arg)`` integrates."""
    panels, depth = [], [0]
    panel_value = quadrature._panel_value

    def recorded(*args):
        if not depth[0]:  # a panel, not one of the halves the recursion passes here too
            panels.append(args)
        depth[0] += 1
        try:
            return panel_value(*args)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as patch, warnings.catch_warnings():
        patch.setattr(quadrature, "_panel_value", recorded)
        warnings.simplefilter("ignore", IllConditionedWarning)
        call(arg)
    return panels


def _cross_check_cases(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCH))
    from workloads import QuadratureCubic

    named = [[1] + [0] * 7 + [sign] for sign in (-1, 1)] + [sl2_image(8, False, (3, -2, 2, -1))]
    cubics = [CubicCoeffs(*case.coeffs) for case in QuadratureCubic().round(random.Random(1))]
    return [(integral_numeric_general, Polynomial(c)) for c in named] + [
        (integral_numeric, c) for c in cubics
    ]


def test_gauss_jacobi_and_tanh_sinh_agree_on_every_panel(monkeypatch):
    # the named forms of test_centring and round 1 of the benchmark's
    # quadrature-cubic workload, whose fault-b panel is bisected: on each
    # panel the two rules agree within their estimates and rel_tol of the
    # value, tanh-sinh at up to 12 levels
    rel_tol, panels, bisected = QuadratureConfig().rel_tol, 0, 0
    for call, arg in _cross_check_cases(monkeypatch):
        for args in _panels(monkeypatch, call, arg):
            gauss, error, converged, nodes = quadrature._panel_value(*args)
            reference, reference_error, reference_converged, _ = tanh_sinh.panel_value(*args, 12)
            assert converged and reference_converged
            assert abs(gauss - reference) <= error + reference_error + rel_tol * abs(gauss), args
            panels += 1
            bisected += nodes > 248
    assert panels > 300 and bisected == 1
