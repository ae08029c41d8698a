"""Shared fixtures."""

import pytest

from nongauss import polynomial, quadrature


def _evaluations(monkeypatch, call, *args):
    """Runs ``call(*args)`` and returns how many times the quadrature evaluated
    a polynomial on the way, as (locator, panels): the evaluations that each
    ``_real_roots`` and each ``_panel_value`` reports.  A bisected panel's
    halves are ``_panel_value`` calls inside its own, through this module
    global too, and its count has theirs, so only outermost calls count."""
    calls = [0, 0]

    def counted(function, i, field):
        depth = [0]

        def wrapper(*args):
            depth[0] += 1
            try:
                result = function(*args)
            finally:
                depth[0] -= 1
            if not depth[0]:
                calls[i] += result[field]
            return result

        return wrapper

    real_roots = counted(polynomial._real_roots, 0, 2)
    with monkeypatch.context() as patch:
        for module in (polynomial, quadrature):  # the locator's name in each
            patch.setattr(module, "_real_roots", real_roots)
        patch.setattr(quadrature, "_panel_value", counted(quadrature._panel_value, 1, 3))
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
