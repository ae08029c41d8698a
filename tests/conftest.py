"""Shared fixtures."""

import pytest

from nongauss import polynomial, quadrature


def _evaluations(monkeypatch, call, *args):
    """Runs ``call(*args)`` and returns how many times the quadrature evaluated
    a polynomial on the way, as (roots, panels): the evaluations that each
    ``_real_roots`` and ``_covariant_chart`` (its closed-form roots and their
    Newton steps) and each ``_panel_value`` reports.  A bisected panel's
    halves are ``_panel_value`` calls inside its own, through this module
    global too, and its count has theirs, as a covariant chart's has the
    locator's where it falls back to it, so only outermost calls count."""
    calls, depth = [0, 0], [0, 0]

    def counted(function, i, count):
        def wrapper(*args):
            depth[i] += 1
            try:
                result = function(*args)
            finally:
                depth[i] -= 1
            if not depth[i]:
                calls[i] += count(result)
            return result

        return wrapper

    real_roots = counted(polynomial._real_roots, 0, lambda located: located[2])
    covariant = counted(polynomial._covariant_chart, 0, lambda found: found[1][2] if found else 0)
    with monkeypatch.context() as patch:
        for module in (polynomial, quadrature):  # the locator's name in each
            patch.setattr(module, "_real_roots", real_roots)
        patch.setattr(quadrature, "_covariant_chart", covariant)
        panel_value = counted(quadrature._panel_value, 1, lambda panel: panel[3])
        patch.setattr(quadrature, "_panel_value", panel_value)
        call(*args)
    return calls[0], calls[1]


@pytest.fixture
def count_evaluations(monkeypatch):
    """``count_evaluations(call, *args)``: the root location's and the
    panels' evaluations of ``call(*args)`` together."""
    return lambda call, *args: sum(_evaluations(monkeypatch, call, *args))


@pytest.fixture
def count_evaluations_apart(monkeypatch):
    """``count_evaluations_apart(call, *args)``: the root location's and
    the panels' evaluations of ``call(*args)``, as (roots, panels)."""
    return lambda call, *args: _evaluations(monkeypatch, call, *args)
