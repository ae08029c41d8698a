"""Panels and integrand evaluations of the quadrature workloads.

    python3 tools/node_counts.py CHECKOUT

Imports ``nongauss`` from CHECKOUT/src and the seeded rounds of
CHECKOUT/bench/workloads.py, unchanged, and runs the first round of seeds
1-3 of each quadrature workload.  For each it prints the panels integrated,
the Gauss-Jacobi nodes evaluated, the panels that fell back to tanh-sinh
with the tanh-sinh nodes they evaluated, and the root locator's
evaluations, each one Horner's rule at one point.  A checkout whose panels
are all tanh-sinh (no ``quadrature._tanh_sinh_panel``) counts every panel as
a tanh-sinh one, and one whose locator reports no count (its ``_real_roots``
returns two values) counts its ``polynomial.horner`` calls instead.  With the
digest of ``tools/output_digest.py`` and the benchmark's timings, these
counts tell fewer nodes from cheaper nodes.
Standard library only.
"""

from __future__ import annotations

import random
import sys
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)


def counts(checkout: Path) -> dict:
    """{workload: (operations, panels, gauss nodes, tanh-sinh panels,
    tanh-sinh nodes, locator evaluations)} over the first round of each seed."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from nongauss import NonGaussError, polynomial, quadrature
    from workloads import WORKLOADS

    # panels, all nodes, tanh-sinh panels, tanh-sinh nodes, locator evaluations
    tally = [0, 0, 0, 0, 0]

    def counted(function, field, total, calls=None):
        def wrapper(*args):
            result = function(*args)
            if calls is not None:
                tally[calls] += 1
            tally[total] += result[field]
            return result

        return wrapper

    quadrature._panel_value = counted(quadrature._panel_value, 3, 1, 0)
    fallback = getattr(quadrature, "_tanh_sinh_panel", None)
    if fallback is not None:
        quadrature._tanh_sinh_panel = counted(fallback, 3, 3, 2)
    if len(polynomial._real_roots([1.0, 0.0, -1.0, 0.0])) == 3:  # it reports its count
        located = counted(polynomial._real_roots, 2, 4)
        polynomial._real_roots = quadrature._real_roots = located
    else:
        horner = polynomial.horner

        def counted_horner(coeffs, x):
            tally[4] += 1
            return horner(coeffs, x)

        polynomial.horner = counted_horner
    rows = {}
    for name, cls in WORKLOADS.items():
        if not name.startswith("quadrature"):
            continue
        workload, operations = cls(), 0
        tally[:] = [0, 0, 0, 0, 0]
        for seed in SEEDS:
            for case in workload.round(random.Random(seed)):
                operations += 1
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        workload.call(case)
                    except NonGaussError:  # a failed operation still counts its panels
                        pass
        panels, nodes, fallbacks, fallback_nodes, located = tally
        if fallback is None:  # every panel is a tanh-sinh one
            fallbacks, fallback_nodes = panels, nodes
        rows[name] = (
            operations, panels, nodes - fallback_nodes, fallbacks, fallback_nodes, located
        )
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "nongauss").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for name, (operations, panels, gauss, fallbacks, fallback_nodes, located) in counts(
        Path(args[0]).resolve()
    ).items():
        print(
            f"{name}: {operations} operations, {panels} panels, {gauss} Gauss-Jacobi nodes, "
            f"{fallbacks} tanh-sinh panels with {fallback_nodes} nodes, "
            f"{located} locator evaluations"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
