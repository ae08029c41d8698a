"""Shared fixtures."""

import pytest

from nongauss import polynomial, quadrature


def _evaluations(monkeypatch, call, *args):
    """Runs ``call(*args)`` and returns how many times the quadrature evaluated
    a polynomial on the way, as (locator, panels): the root locator's
    ``horner`` calls, and the integrand evaluations that each
    ``_panel_value`` reports."""
    calls = [0, 0]

    def counted_horner(coeffs, x):
        calls[0] += 1
        return horner(coeffs, x)

    def counted_panel_value(*panel):
        result = panel_value(*panel)
        calls[1] += result[3]
        return result

    horner, panel_value = polynomial.horner, quadrature._panel_value
    with monkeypatch.context() as patch:
        patch.setattr(polynomial, "horner", counted_horner)
        patch.setattr(quadrature, "_panel_value", counted_panel_value)
        call(*args)
    return calls[0], calls[1]


@pytest.fixture
def count_evaluations(monkeypatch):
    """``count_evaluations(call, *args)``: the locator's and the panels'
    evaluations of ``call(*args)`` together."""
    return lambda call, *args: sum(_evaluations(monkeypatch, call, *args))


@pytest.fixture
def count_evaluations_apart(monkeypatch):
    """``count_evaluations_apart(call, *args)``: the locator's and the
    panels' evaluations of ``call(*args)``, as (locator, panels)."""
    return lambda call, *args: _evaluations(monkeypatch, call, *args)
