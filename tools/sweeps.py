"""Outcomes of the quadrature on seeded sweeps of cubics with a close root pair.

    python3 tools/sweeps.py CHECKOUT

Imports ``nongauss`` from CHECKOUT/src and integrates two sweeps of 400
cubics each with ``integral_numeric_general``, on exact ``Fraction``
coefficients:

- real pairs, ``Random(77)``: 2^k a (x - r)(x - r - delta)(x - s);
- complex pairs, ``Random(78)``: 2^k a ((x - r)^2 + delta^2)(x - s).

Each form draws, in order, r = round(uniform(-3, 3) 2^40) / 2^40, delta =
10^uniform(-8, -1), s = r +- uniform(0.5, 5), a = randint(1, 9) /
randint(1, 9) and k = randint(-50, 50).  A value is right when it is within
1e-9 of ``closed_form_integral``'s.  For each sweep it prints the values
right, the status-ok values wrong, how many of those raised an
``IllConditionedWarning``, and the count of each error kind.  It exits 1
when a status-ok wrong value raised no warning.  Standard library only.
"""

from __future__ import annotations

import random
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

FORMS = 400
SWEEPS = (("real", 77), ("complex", 78))  # the pair kind and its seed
REL_TOL = 1e-9


def _cubic(rng: random.Random, kind: str) -> list:
    """One form of the sweep, as four exact coefficients, leading first."""
    r = Fraction(round(rng.uniform(-3, 3) * 2**40), 2**40)
    delta = Fraction(10 ** rng.uniform(-8, -1))
    s = r + rng.choice((-1, 1)) * Fraction(rng.uniform(0.5, 5))
    a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    k = rng.randint(-50, 50)
    # the quadratic factor x^2 + b x + c, times x - s
    b, c = (-2 * r - delta, r * (r + delta)) if kind == "real" else (-2 * r, r * r + delta * delta)
    scale = a * Fraction(2) ** k
    return [scale * v for v in (1, b - s, c - b * s, -c * s)]


def sweep(nongauss, kind: str, seed: int) -> Counter:
    """Outcome counts of one sweep: "right", "wrong", "warned" (wrong and
    warned) and each error kind's name."""
    rng, outcomes = random.Random(seed), Counter()
    for _ in range(FORMS):
        cs = _cubic(rng, kind)
        reference = nongauss.closed_form_integral(nongauss.CubicCoeffs(*cs)).value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", nongauss.IllConditionedWarning)
            try:
                value = nongauss.integral_numeric_general(nongauss.Polynomial(cs)).value
            except nongauss.NonGaussError as exc:
                outcomes[type(exc).__name__] += 1
                continue
        if abs(value - reference) <= REL_TOL * reference:
            outcomes["right"] += 1
        else:
            outcomes["wrong"] += 1
            warned = any(issubclass(w.category, nongauss.IllConditionedWarning) for w in caught)
            outcomes["warned"] += warned
    return outcomes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "nongauss").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(Path(args[0]).resolve() / "src")]
    import nongauss

    unwarned = 0
    for kind, seed in SWEEPS:
        outcomes = sweep(nongauss, kind, seed)
        errors = sorted(error for error in outcomes if error not in ("right", "wrong", "warned"))
        print(
            f"{kind} pairs (Random({seed})): {FORMS} forms, {outcomes['right']} right, "
            f"{outcomes['wrong']} status-ok wrong ({outcomes['warned']} warned)"
            + "".join(f", {outcomes[error]} {error}" for error in errors)
        )
        unwarned += outcomes["wrong"] - outcomes["warned"]
    return 1 if unwarned else 0


if __name__ == "__main__":
    sys.exit(main())
