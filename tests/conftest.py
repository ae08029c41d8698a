"""Shared fixtures."""

import pytest

from nongauss import polynomial, quadrature


@pytest.fixture
def count_evaluations(monkeypatch):
    """``count_evaluations(call, *args)`` runs ``call(*args)`` and returns how
    many times the quadrature evaluated a polynomial on the way: the root
    locator's ``horner`` calls plus the integrand evaluations that each
    ``_panel_value`` reports."""

    def count(call, *args):
        calls = [0]

        def counted_horner(coeffs, x):
            calls[0] += 1
            return horner(coeffs, x)

        def counted_panel_value(*panel):
            result = panel_value(*panel)
            calls[0] += result[3]
            return result

        horner, panel_value = polynomial.horner, quadrature._panel_value
        with monkeypatch.context() as patch:
            patch.setattr(polynomial, "horner", counted_horner)
            patch.setattr(quadrature, "_panel_value", counted_panel_value)
            call(*args)
        return calls[0]

    return count
