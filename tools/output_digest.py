"""One sha256 over what the package computes on the benchmark's inputs.

    python3 tools/output_digest.py [--records] CHECKOUT

Imports ``nongauss`` from CHECKOUT/src and the seeded rounds of
CHECKOUT/bench/workloads.py, unchanged, and hashes the ``repr`` of, for the
first round of seeds 1-3 of every workload: each operation's output (or its
exception's type and message) and the warnings it raised, and on each form
the panels of ``decompose``, and on each cubic ``cubic_roots`` and
``log_closed_form``; then 300 seeded Gaussian inputs, each through
``gaussian_integral_numeric`` and the closed form ``gaussian_analogue``;
then both finite-difference verifiers at steps None, 1e-3 and 5e-2 on seeded
wide-magnitude cubics and on near-double-root cubics, where stencils cross
D = 0 and steps are refused (the benchmark's verify inputs do neither).
Two checkouts that print the same digest agree on all of these bit for bit:
the gate of a change that must not move any output.  With ``--records`` it
prints the hashed records themselves, one per line, so that the outputs of
two checkouts can be diffed.  Standard library only.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

SEEDS = (1, 2, 3)
GAUSSIAN_CALLS = 300
FD_STEPS = (None, 1e-3, 5e-2)
FD_WIDE, FD_NEAR = 300, 60


def _outcome(call, *args) -> str:
    """repr of call(*args), or of its exception, with the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(call(*args))
        except Exception as exc:  # every package error is part of the output
            out = f"{type(exc).__name__}: {exc}"
    return out + "".join(f" | {w.category.__name__}: {w.message}" for w in caught)


def _gaussian_inputs(rng: random.Random):
    """(a, b, c) as ints, Fractions and floats at unit and extreme scales,
    some with b^2 - 4ac >= 0 (a refusal is an output too)."""
    for i in range(GAUSSIAN_CALLS):
        a, c = rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0)
        b = rng.uniform(-1.99, 1.99) * math.sqrt(a * c) * (1.5 if i % 10 == 9 else 1.0)
        k = rng.randint(-300, 300)
        kind = i % 3
        if kind == 0:
            yield tuple(math.ldexp(v, k) for v in (a, b, c))
        elif kind == 1:
            yield tuple(Fraction(round(v * 2**20), rng.randint(1, 999)) for v in (a, b, c))
        else:
            yield (round(a * 100) or 1, round(b * 100), round(c * 100) or 1)


def _fd_inputs(rng: random.Random):
    """Cubics for the finite-difference verifiers: FD_WIDE of wide magnitude,
    in turn unit-size floats times 2^k, floats up to 2^40 apart, integers of
    1 to 1,100 bits apart or of one common length, and non-dyadic Fractions,
    each coefficient zero one time in eight; then FD_NEAR near-double-root
    cubics a (x - r)^2 (x - s) with d moved by t 1e-4 scale, so that single
    points or only mixed points cross D = 0, as tests/test_stencil.py draws
    them, at unit scale and times 2^k."""
    for i in range(FD_WIDE):
        kind, cubic = i % 5, []
        k = rng.randint(-300, 300) if i % 2 else rng.randint(-8, 8)
        bits = rng.randint(1, 1100)
        for _ in range(4):
            sign = rng.choice((-1, 1))
            if kind == 0:
                v = math.ldexp(rng.uniform(-2.0, 2.0), k)
            elif kind == 1:
                v = sign * math.ldexp(rng.uniform(1.0, 2.0), k - rng.randint(0, 40))
            elif kind == 2:
                v = sign * rng.getrandbits(rng.randint(1, 1100))
            elif kind == 3:
                v = sign * (rng.getrandbits(bits) | 1 << (bits - 1))
            else:
                v = Fraction(sign * rng.getrandbits(rng.randint(1, 200)), 2 * rng.randint(1, 999) + 1)
            cubic.append(0 if rng.randrange(8) == 0 else v)
        yield tuple(cubic)
    for i in range(FD_NEAR):
        r = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        s = r + rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
        cubic = [1.0, -(2 * r + s), r * r + 2 * r * s, -r * r * s]
        m1, m2 = sorted((abs(r) ** (3 - j) for j in range(4)), reverse=True)[:2]
        t = 0.5 * m1 if i % 2 else 0.5 * (m1 + m2)
        cubic[3] += t * 1e-4 * max(abs(v) for v in cubic)
        yield tuple(cubic)
        yield tuple(math.ldexp(v, rng.randint(-300, 300)) for v in cubic)


def records(checkout: Path) -> list:
    """The hashed records, in order: each a line of the hashed text."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import nongauss
    from workloads import WORKLOADS

    lines = []
    for name, cls in WORKLOADS.items():
        workload = cls()
        for seed in SEEDS:
            for case in workload.round(random.Random(seed)):
                lines.append(f"{name} {seed} {case.coeffs!r}")
                lines.append(_outcome(workload.call, case))
                if len(case.coeffs) == 4:
                    cubic = nongauss.CubicCoeffs(*case.coeffs)
                    poly, n = cubic.as_polynomial(), 3
                    lines.append(_outcome(nongauss.cubic_roots, cubic))
                    lines.append(_outcome(nongauss.log_closed_form, cubic))
                else:
                    poly = nongauss.Polynomial(case.coeffs)
                    n = poly.degree
                lines.append(_outcome(nongauss.decompose, poly, n))
    for abc in _gaussian_inputs(random.Random(2026)):
        lines.append(f"gaussian {abc!r} {_outcome(nongauss.gaussian_integral_numeric, *abc)}")
        lines.append(f"gaussian_analogue {abc!r} {_outcome(nongauss.gaussian_analogue, *abc)}")
    verifiers = (nongauss.expectations_fd_check, nongauss.pde_identity_residuals)
    for coeffs in _fd_inputs(random.Random(2027)):
        cubic = nongauss.CubicCoeffs(*coeffs)
        for step in FD_STEPS:
            outcomes = " ".join(_outcome(verify, cubic, step) for verify in verifiers)
            lines.append(f"fd {coeffs!r} {step!r} {outcomes}")
    return lines


def digest(checkout: Path) -> str:
    return hashlib.sha256("\n".join(records(checkout)).encode()).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    listed = args[:1] == ["--records"]
    if listed:
        args = args[1:]
    if len(args) != 1 or not (Path(args[0]) / "src" / "nongauss").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout = Path(args[0]).resolve()
    print("\n".join(records(checkout)) if listed else digest(checkout))
    return 0


if __name__ == "__main__":
    sys.exit(main())
