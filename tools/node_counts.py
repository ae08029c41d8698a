"""Panels and integrand evaluations of the quadrature workloads.

    python3 tools/node_counts.py CHECKOUT

Imports ``nongauss`` from CHECKOUT/src and the seeded rounds of
CHECKOUT/bench/workloads.py, unchanged, and runs the first round of seeds
1-3 of each quadrature workload.  For each it prints the panels integrated,
the Gauss-Jacobi nodes evaluated, the panels it bisected, with all their
nodes and their halves, and the evaluations that locate the real roots,
each one Horner's rule at one point: the locator's, and on a cubic's
covariant chart those of its closed-form roots' Newton steps.  A half is
a ``_panel_value`` call inside its panel's own, and its nodes count once,
in that panel.  With the digest of ``tools/output_digest.py`` and the
benchmark's timings, these counts tell fewer nodes from cheaper nodes.
Standard library only.
"""

from __future__ import annotations

import random
import sys
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)


def counts(checkout: Path) -> dict:
    """{workload: (operations, panels, nodes, bisected panels, their nodes,
    halves, root evaluations)} over the first round of each seed."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from nongauss import NonGaussError, polynomial, quadrature
    from workloads import WORKLOADS

    # panels, nodes, bisected panels, their nodes, halves, root evaluations
    tally = [0, 0, 0, 0, 0, 0]
    panel_value, open_calls, halves = quadrature._panel_value, [0], [0]

    def counted_panel(*args):
        # the recursion calls the module's _panel_value, this wrapper
        halves[0] += open_calls[0] > 0
        open_calls[0] += 1
        try:
            result = panel_value(*args)
        finally:
            open_calls[0] -= 1
        if not open_calls[0]:  # a panel, not a half
            tally[0] += 1
            tally[1] += result[3]
            if halves[0]:
                tally[2] += 1
                tally[3] += result[3]
                tally[4] += halves[0]
                halves[0] = 0
        return result

    real_roots, covariant = polynomial._real_roots, [0]
    covariant_chart = polynomial._covariant_chart

    def counted_roots(cs):
        result = real_roots(cs)
        tally[5] += 0 if covariant[0] else result[2]  # a covariant chart counts its fallback
        return result

    def counted_chart(*args):
        covariant[0] += 1
        try:
            result = covariant_chart(*args)
        finally:
            covariant[0] -= 1
        tally[5] += result[1][2] if result else 0
        return result

    quadrature._panel_value = counted_panel
    polynomial._real_roots = quadrature._real_roots = counted_roots
    quadrature._covariant_chart = counted_chart
    rows = {}
    for name, cls in WORKLOADS.items():
        if not name.startswith("quadrature"):
            continue
        workload, operations = cls(), 0
        tally[:] = [0] * len(tally)
        for seed in SEEDS:
            for case in workload.round(random.Random(seed)):
                operations += 1
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        workload.call(case)
                    except NonGaussError:  # a failed operation still counts its panels
                        pass
        rows[name] = (operations, *tally)
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "nongauss").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for name, (operations, panels, nodes, split, split_nodes, halves, located) in counts(
        Path(args[0]).resolve()
    ).items():
        print(
            f"{name}: {operations} operations, {panels} panels, {nodes} Gauss-Jacobi nodes, "
            f"{split} bisected panels with {split_nodes} nodes in {halves} halves, "
            f"{located} root evaluations"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
