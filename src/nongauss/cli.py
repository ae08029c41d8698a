"""Command-line front end with machine-readable JSON output.

Every numeric field in a result payload is tagged in the payload's
``provenance`` map as one of closed-form / numeric / exact.  Exit codes:
0 ok, 1 usage error, 2 domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from fractions import Fraction

from .discriminant import DiscriminantResult, discriminant_from_coeffs
from .errors import NoConvergence, NonGaussError
from .polynomial import CubicCoeffs, Polynomial, is_exact_number, parse_number
from .quadrature import QuadratureConfig, integral_numeric, integral_numeric_general
from .renorm import (
    IntegralResult,
    closed_form_integral,
    expectations,
    expectations_fd_check,
    gaussian_analogue,
    pde_identity_residuals,
)
from .special import identity_suite

_CHECK_AGREEMENT_BOUND = 1e-6

_GRAMMAR = """\
usage: nongauss <command> [options]

commands:
  disc <coeffs...> [--degree n]          exact discriminant (any degree >= 2)
  integral <a b c d> [--numeric] [--check] [--rel-tol t] [--max-levels m]
  integral --degree n <coeffs...>        numeric integral for degree n >= 3
      --max-levels m                     tanh-sinh levels, 4..16 (default 12)
  gauss <a b c>                          closed form of 1/(a x^2 + b x + c)
  expect <a b c d> [--fd-check] [--step h]
  verify <a b c d> [--step h]            coefficient-identity residuals
  beta-check                             Gamma/Beta identity residuals

coefficients accept decimals or exact "p/q" rationals; rational input keeps
exact arithmetic end to end, next to decimals too.  Add --plain for a readable table.
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nongauss")
    sub = parser.add_subparsers(dest="command", required=True)

    disc = sub.add_parser("disc")
    disc.add_argument("coeffs", nargs="+")
    disc.add_argument("--degree", type=int, default=None)

    integral = sub.add_parser("integral")
    integral.add_argument("coeffs", nargs="+")
    integral.add_argument("--numeric", action="store_true")
    integral.add_argument("--check", action="store_true")
    integral.add_argument("--degree", type=int, default=None)
    integral.add_argument("--rel-tol", type=float, default=QuadratureConfig.rel_tol)
    integral.add_argument(
        "--max-levels",
        type=int,
        default=QuadratureConfig.max_levels,
        help="tanh-sinh levels per panel, 4..16",
    )

    gauss = sub.add_parser("gauss")
    gauss.add_argument("coeffs", nargs=3)

    expect = sub.add_parser("expect")
    expect.add_argument("coeffs", nargs=4)
    expect.add_argument("--fd-check", action="store_true")
    expect.add_argument("--step", type=float, default=None)

    verify = sub.add_parser("verify")
    verify.add_argument("coeffs", nargs=4)
    verify.add_argument("--step", type=float, default=None)

    sub.add_parser("beta-check")
    for command in sub.choices.values():
        command.add_argument("--plain", action="store_true")
    return parser


def _parse_coeffs(tokens):
    try:
        return [parse_number(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad coefficient: {exc}") from None


def _exact_str(value) -> str:
    # an exact D at extreme float scales can pass the 4300-digit int-to-str limit
    value = Fraction(value)
    if not hasattr(sys, "get_int_max_str_digits"):  # no such limit before 3.10.7
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cubic_from(tokens) -> CubicCoeffs:
    values = _parse_coeffs(tokens)
    if len(values) != 4:
        raise UsageError(f"expected 4 cubic coefficients, got {len(values)}")
    return CubicCoeffs(*values)


def _checked_degree(degree, values) -> None:
    if degree is not None and degree != len(values) - 1:
        raise UsageError(f"--degree {degree} needs {degree + 1} coefficients, got {len(values)}")


def _moment_payload(value):
    return _exact_str(value) if is_exact_number(value) else float(value)


def _disc_fields(disc: DiscriminantResult) -> dict:
    return {"D": _exact_str(disc.value), "sign": disc.sign.value}


def _integral_payload(result: IntegralResult) -> dict:
    return {
        "value": result.value,
        "method": result.method.value,
        "error_estimate": result.error_estimate,
        **_disc_fields(result.discriminant),
        "provenance": {"value": result.method.value, "D": "exact"},
    }


def _run_disc(args) -> dict:
    values = _parse_coeffs(args.coeffs)
    _checked_degree(args.degree, values)
    return {**_disc_fields(discriminant_from_coeffs(values)), "provenance": {"D": "exact"}}


def _run_integral(args) -> dict:
    if args.degree is not None and args.check:
        raise UsageError("--check compares with the cubic closed form; it does not take --degree")
    cfg = QuadratureConfig(rel_tol=args.rel_tol, max_levels=args.max_levels)
    if args.degree is not None:
        values = _parse_coeffs(args.coeffs)
        _checked_degree(args.degree, values)
        return _integral_payload(integral_numeric_general(Polynomial(values), cfg))
    cubic = _cubic_from(args.coeffs)
    if not args.check:
        result = integral_numeric(cubic, cfg) if args.numeric else closed_form_integral(cubic)
        return _integral_payload(result)
    closed = closed_form_integral(cubic)
    numeric = integral_numeric(cubic, cfg)
    rel_diff = abs(numeric.value - closed.value) / abs(closed.value)
    return {
        "closed": closed.value,
        "numeric": numeric.value,
        "rel_diff": rel_diff,
        "error_estimate": numeric.error_estimate,
        **_disc_fields(closed.discriminant),
        "provenance": {"closed": "closed-form", "numeric": "numeric", "D": "exact"},
        "agrees": rel_diff <= _CHECK_AGREEMENT_BOUND,
    }


def _run_gauss(args) -> dict:
    a, b, c = _parse_coeffs(args.coeffs)
    return {
        "value": gaussian_analogue(a, b, c),
        "provenance": {"value": "closed-form"},
    }


def _run_expect(args) -> dict:
    names = ("x3", "x2y", "xy2", "y3")
    cubic = _cubic_from(args.coeffs)
    moments = expectations(cubic)
    tag = "exact" if cubic.is_exact() else "closed-form"
    payload = {k: _moment_payload(m) for k, m in zip(names, moments.as_tuple())}
    payload["provenance"] = dict.fromkeys(names, tag)
    if args.fd_check:
        residuals = expectations_fd_check(cubic, step=args.step)
        payload["fd_residuals"] = dict(zip(names, residuals))
        payload["provenance"]["fd_residuals"] = "numeric"
    return payload


def _run_verify(args) -> dict:
    cubic = _cubic_from(args.coeffs)
    r1, r2, r3 = pde_identity_residuals(cubic, step=args.step)
    return {
        "residuals": {"ad-bc": r1, "bb-ac": r2, "cc-bd": r3},
        "provenance": {"residuals": "numeric"},
    }


def _run_beta_check(args) -> dict:
    residuals = identity_suite()
    rows = [
        {"identity": r.identity, "argument": r.argument, "residual": r.residual}
        for r in residuals
    ]
    return {
        "identities": rows,
        "max_residual": max(r.residual for r in residuals),
        "provenance": {"identities": "numeric"},
    }


_HANDLERS = {
    "disc": _run_disc,
    "integral": _run_integral,
    "gauss": _run_gauss,
    "expect": _run_expect,
    "verify": _run_verify,
    "beta-check": _run_beta_check,
}


def _emit(record: dict, plain: bool) -> None:
    if not plain:
        print(json.dumps(record, indent=2, allow_nan=False))
        return
    for key, value in record.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        else:
            print(f"{key}: {value}")


# argparse's negative-number detection misses "-1/3", "-1e-3" and "-inf"; a
# leading space keeps such tokens positional, and parse_number strips it again.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


def run(argv) -> int:
    argv = [" " + a if _NEGATIVE_NUMBER.match(a) else a for a in argv]
    exit_code = 0
    try:
        args = _build_parser().parse_args(argv)
        record = {
            "command": args.command,
            "inputs": {"coefficients": [t.strip() for t in getattr(args, "coeffs", [])]},
            "result": None,
            "warnings": [],
            "status": "ok",
            "error_kind": None,
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                record["result"] = _HANDLERS[args.command](args)
            except NonGaussError as exc:
                record.update(status="error", error_kind=type(exc).__name__)
                record["result"] = {"message": str(exc)}
                exit_code = 3 if isinstance(exc, NoConvergence) else 2
    except UsageError as exc:  # from the parser or a handler
        print(f"error: {exc}", file=sys.stderr)
        print(_GRAMMAR, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    record["warnings"] = [str(w.message) for w in caught]

    # only integral --check reports "agrees"
    if exit_code == 0 and record["result"].get("agrees") is False:
        record.update(status="error", error_kind="CheckMismatch")
        exit_code = 3

    _emit(record, args.plain)
    return exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
