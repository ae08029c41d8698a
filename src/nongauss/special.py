"""Gamma/Beta functions and the two integral constants.

Gamma and log Gamma are the standard library's ``math.gamma`` and
``math.lgamma``: within 1e-15 relative of a 30-digit reference over
[1e-3, 171.6].  This module adds the x > 0 domain check and reports a value
beyond the float range as inf.

The two constants are

    c_minus = 2**(1/3) * B(1/2, 1/6)        c_plus = 3 * B(1/3, 1/3)

with c_plus = sqrt(3) * c_minus.  They are computed from Beta at first use,
never hardcoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import DomainError


def _positive(name: str, fn, x: float) -> float:
    """fn(x) for x > 0; inf where the value overflows the float range."""
    if not x > 0:
        raise DomainError(f"{name} requires x > 0, got {x}")
    try:
        return fn(float(x))
    except OverflowError:
        return math.inf


def gamma(x: float) -> float:
    """Gamma function for x > 0."""
    return _positive("gamma", math.gamma, x)


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    return _positive("ln_gamma", math.lgamma, x)


def _stirling_series(z: float) -> float:
    """1/(12z) - 1/(360z^3) + 1/(1260z^5): ln Gamma(z) less (z - 1/2) ln z - z
    + ln(2 pi) / 2, to 1e-17 for z >= 100."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w / 1260.0)) / z


def beta(p: float, q: float) -> float:
    """Euler Beta via exp(ln_gamma(p) + ln_gamma(q) - ln_gamma(p + q)).

    The symmetric formula makes beta(p, q) and beta(q, p) bitwise equal.  From
    a larger argument L >= 100 on, where ln Gamma(L) and ln Gamma(L + s) would
    cancel, their difference is taken in Stirling's form instead: -s ln L -
    (L + s - 1/2) log1p(s/L) + s plus the series at L less that at L + s.  A
    value beyond the float range is inf, as for gamma; one below it is 0.0,
    also where ln Gamma(s) overflows or L is inf, which would meet a -inf
    or a nan ratio.
    """
    if not (p > 0 and q > 0):
        raise DomainError(f"beta requires p, q > 0, got ({p}, {q})")
    s, big = sorted((float(p), float(q)))
    try:
        if big < 100.0:
            return math.exp(ln_gamma(s) + ln_gamma(big) - ln_gamma(s + big))
        ratio = s - s * math.log(big) - (big + s - 0.5) * math.log1p(s / big)
        log_b = ln_gamma(s) + ratio + (_stirling_series(big) - _stirling_series(big + s))
        return 0.0 if math.isnan(log_b) else math.exp(log_b)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BetaConstants:
    """c_minus = 2**(1/3)*B(1/2, 1/6) and c_plus = 3*B(1/3, 1/3)."""

    c_minus: float
    c_plus: float


@lru_cache(maxsize=1)
def constants() -> BetaConstants:
    """The two constants, computed once from Beta (thread-safe: the
    computation is pure, so a racing duplicate is harmless)."""
    c_minus = 2.0 ** (1.0 / 3.0) * beta(0.5, 1.0 / 6.0)
    c_plus = 3.0 * beta(1.0 / 3.0, 1.0 / 3.0)
    return BetaConstants(c_minus=c_minus, c_plus=c_plus)


@dataclass(frozen=True)
class IdentityResidual:
    identity: str
    argument: Optional[float]
    residual: float


def identity_suite() -> list:
    """Relative residuals of the classical identities the constants rest on.

    Covers reflection Gamma(x)Gamma(1-x) = pi/sin(pi*x) on a grid in (0, 1),
    the duplication formula Gamma(x/2)Gamma((x+1)/2) = 2**(1-x)Gamma(1/2)Gamma(x)
    on (0, 10], and the constant relation sqrt(3)*B(1/3,1/3) = 2**(1/3)*B(1/2,1/6).
    """
    out = []
    for i in range(1, 40):
        x = i / 40.0
        residual = abs(gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi - 1.0)
        out.append(IdentityResidual("reflection", x, residual))
    for i in range(1, 41):
        x = i / 4.0
        lhs = gamma(x / 2.0) * gamma((x + 1.0) / 2.0)
        rhs = 2.0 ** (1.0 - x) * gamma(0.5) * gamma(x)
        out.append(IdentityResidual("duplication", x, abs(lhs / rhs - 1.0)))
    k = constants()
    residual = abs(math.sqrt(3.0) * beta(1.0 / 3.0, 1.0 / 3.0) - k.c_minus) / k.c_minus
    out.append(IdentityResidual("constants-ratio", None, residual))
    return out
