"""Panels and integrand evaluations of the quadrature workloads.

    python3 tools/node_counts.py CHECKOUT

Imports ``nongauss`` from CHECKOUT/src and the seeded rounds of
CHECKOUT/bench/workloads.py, unchanged, and runs the first round of seeds
1-3 of each quadrature workload.  For each it prints the panels integrated,
the Gauss-Jacobi nodes evaluated, the panels that took a second path with
the nodes they evaluated, and the root locator's evaluations, each one
Horner's rule at one point.  The second path depends on the checkout: one
whose Gauss-Jacobi panels fall back to tanh-sinh (it has
``quadrature._tanh_sinh_panel``) prints its tanh-sinh panels and nodes; one
with Gauss-Jacobi panels alone prints the panels it bisected, with all
their nodes and their halves; one whose panels are all tanh-sinh (no
``quadrature._gauss_kernel``) counts every panel as a tanh-sinh one.  A
half is a ``_panel_value`` call inside its panel's own, and its nodes count
once, in that panel.  A checkout whose locator reports no count (its
``_real_roots`` returns two values) counts its ``polynomial.horner`` calls
instead.  With the digest of ``tools/output_digest.py`` and the benchmark's
timings, these counts tell fewer nodes from cheaper nodes.
Standard library only.
"""

from __future__ import annotations

import random
import sys
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)


def counts(checkout: Path) -> tuple:
    """({workload: (operations, panels, gauss nodes, second-path panels,
    their nodes, halves, locator evaluations)}, second path) over the first
    round of each seed, the second path "tanh-sinh" or "bisected"."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from nongauss import NonGaussError, polynomial, quadrature
    from workloads import WORKLOADS

    # panels, all nodes, second-path panels, their nodes, halves, locator evaluations
    tally = [0, 0, 0, 0, 0, 0]
    gauss = hasattr(quadrature, "_gauss_kernel")
    fallback = getattr(quadrature, "_tanh_sinh_panel", None)
    second = "tanh-sinh" if fallback is not None or not gauss else "bisected"

    def counted(function, field, total, calls=None):
        def wrapper(*args):
            result = function(*args)
            if calls is not None:
                tally[calls] += 1
            tally[total] += result[field]
            return result

        return wrapper

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

    quadrature._panel_value = counted_panel
    if fallback is not None:
        quadrature._tanh_sinh_panel = counted(fallback, 3, 3, 2)
    if len(polynomial._real_roots([1.0, 0.0, -1.0, 0.0])) == 3:  # it reports its count
        located = counted(polynomial._real_roots, 2, 5)
        polynomial._real_roots = quadrature._real_roots = located
    else:
        horner = polynomial.horner

        def counted_horner(coeffs, x):
            tally[5] += 1
            return horner(coeffs, x)

        polynomial.horner = counted_horner
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
        panels, nodes, seconds, second_nodes, split, located = tally
        if not gauss:  # every panel is a tanh-sinh one
            seconds, second_nodes = panels, nodes
        gauss_nodes = nodes if second == "bisected" else nodes - second_nodes
        rows[name] = (operations, panels, gauss_nodes, seconds, second_nodes, split, located)
    return rows, second


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "nongauss").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rows, second = counts(Path(args[0]).resolve())
    for name, (operations, panels, gauss, seconds, second_nodes, split, located) in rows.items():
        if second == "bisected":
            path = f"{seconds} bisected panels with {second_nodes} nodes in {split} halves"
        else:
            path = f"{seconds} tanh-sinh panels with {second_nodes} nodes"
        print(
            f"{name}: {operations} operations, {panels} panels, {gauss} Gauss-Jacobi nodes, "
            f"{path}, {located} locator evaluations"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
