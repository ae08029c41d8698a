"""CLI grammar, JSON output contract, and exit codes."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from term_tables import discriminant_quartic_explicit

import nongauss
from nongauss.cli import run, _CHECK_AGREEMENT_BOUND


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse as RFC 8259 JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def test_integral_check(capsys):
    code, record = invoke(capsys, "integral", "1", "0", "-1", "0", "--check")
    assert code == 0
    assert record["status"] == "ok"
    result = record["result"]
    assert result["D"] == "4"
    assert result["closed"] == pytest.approx(12.6197, rel=1e-4)
    assert result["numeric"] == pytest.approx(12.6197, rel=1e-4)
    assert result["rel_diff"] <= 1e-8
    assert result["provenance"]["closed"] == "closed-form"
    assert result["provenance"]["numeric"] == "numeric"


def test_disc_exact_output(capsys):
    code, record = invoke(capsys, "disc", "1", "2", "3", "5")
    assert code == 0
    assert record["result"]["D"] == "-367"
    assert record["result"]["sign"] == "Negative"
    assert record["result"]["provenance"]["D"] == "exact"


def test_disc_rational_input_stays_exact(capsys):
    code, record = invoke(capsys, "disc", "1/3", "0", "-1/3", "0")
    assert code == 0
    # D(a, 0, c, 0) = -4ac^3 = 4/81
    assert Fraction(record["result"]["D"]) == Fraction(4, 81)


def test_disc_rational_input_stays_exact_next_to_a_decimal(capsys):
    code, record = invoke(capsys, "disc", "1/3", "0.5", "1", "1", "1")
    assert code == 0
    assert record["result"]["D"] == "895/432"
    assert discriminant_quartic_explicit([Fraction(1, 3), Fraction(1, 2), 1, 1, 1]) == Fraction(895, 432)


def test_disc_quartic_and_quintic(capsys):
    code, record = invoke(capsys, "disc", "1", "0", "0", "0", "1")
    assert code == 0 and record["result"]["D"] == "256"
    code, record = invoke(capsys, "disc", "1", "0", "0", "0", "0", "1")
    assert code == 0 and record["result"]["D"] == "3125"


def test_disc_degree_mismatch_is_usage_error(capsys):
    # the coefficient count declares the degree: --degree is no option
    code = run(["disc", "1", "2", "3", "--degree", "3"])
    assert code == 1


def test_integral_divergent_exit_code(capsys):
    code, record = invoke(capsys, "integral", "1", "-3", "3", "-1")
    assert code == 2
    assert record["status"] == "error"
    assert record["error_kind"] == "DivergentIntegral"


def test_expect_divergent_tail_message(capsys):
    code, record = invoke(capsys, "expect", "0", "0", "1", "2")
    assert code == 2
    assert record["error_kind"] == "DivergentIntegral"
    assert record["result"]["message"].startswith("a = b = 0")


def test_integral_numeric_flag(capsys):
    code, record = invoke(capsys, "integral", "1", "0", "0", "1", "--numeric", "--rel-tol", "1e-9")
    assert code == 0
    assert record["result"]["method"] == "numeric"
    assert record["result"]["value"] == pytest.approx(5.29992, rel=1e-5)
    assert record["result"]["provenance"]["value"] == "numeric"


def test_integral_general_degree(capsys):
    # five coefficients declare degree 4, integrated by the general route
    code, record = invoke(capsys, "integral", "1", "0", "0", "0", "1")
    assert code == 0
    assert record["result"]["value"] == pytest.approx(3.70815, rel=1e-5)
    assert record["result"]["D"] == "256"


def test_gauss(capsys):
    code, record = invoke(capsys, "gauss", "1", "0", "1")
    assert code == 0
    assert record["result"]["value"] == pytest.approx(3.141592653589793, rel=1e-15)


def test_gauss_domain_error(capsys):
    code, record = invoke(capsys, "gauss", "1", "3", "1")
    assert code == 2
    assert record["error_kind"] == "DomainError"


def test_expect_exact_rationals(capsys):
    code, record = invoke(capsys, "expect", "1", "0", "-1", "0")
    assert code == 0
    result = record["result"]
    assert result["x3"] == "1/6"
    assert result["xy2"] == "-1/2"
    assert result["provenance"]["x3"] == "exact"


def test_expect_fd_check(capsys):
    code, record = invoke(capsys, "expect", "1", "2", "3", "5", "--fd-check")
    assert code == 0
    assert max(record["result"]["fd_residuals"].values()) <= 1e-5


def test_verify(capsys):
    code, record = invoke(capsys, "verify", "1", "0", "0", "1")
    assert code == 0
    assert max(record["result"]["residuals"].values()) <= 1e-5


@pytest.mark.parametrize(
    "argv, point, signs",
    [
        # the identity stencil's (a + h, d - h) corner, h = 1e-3 * 1024
        (
            ("verify", "0", "1024", "0", "1e-197", "--step", "1.024"),
            (1e-3 * 1024, 1024.0, 0.0, 1e-197 - 1e-3 * 1024),
            ("Positive", "Negative"),
        ),
        # the moment stencil's a + h, h = 1e-4 * 1e100
        (
            ("expect", "1e100", "0", "-1e100", "3.849e99", "--fd-check"),
            (1e100 + 1e-4 * 1e100, 0.0, -1e100, 3.849e99),
            ("Negative", "Positive"),
        ),
    ],
)
def test_stencil_crossing_names_the_point_in_caller_units(capsys, argv, point, signs):
    code, record = invoke(capsys, *argv)
    assert code == 2
    assert record["error_kind"] == "StencilCrossesSingularity"
    assert record["result"]["message"] == (
        f"stencil point {point} has discriminant sign {signs[0]}, center has {signs[1]}"
    )


@pytest.mark.parametrize(
    "argv, step, exponent",
    [
        # a + h overflows the float range
        (
            ("expect", "1.7976931348623157e308", "0", "-1.7976931348623157e308", "6.9193e307", "--fd-check"),
            1e-4,
            1023,
        ),
        # b - h and d - h at the default step: d - h, about -6e-325 in the
        # caller's units, lies below the least subnormal.  The old 1e-3
        # crossing here had a subnormal d - h, and a float --step cannot
        # restore it: with one, every point is a float in the caller's units
        (("verify", "1e-306", "1e-306", "0", "1e-310"), 1e-4, -1017),
    ],
)
def test_stencil_crossing_out_of_float_range_keeps_a_power_of_two(capsys, argv, step, exponent):
    code, record = invoke(capsys, *argv)
    assert code == 2
    message = record["result"]["message"]
    assert message.startswith("stencil point (") and f") × 2^{exponent} has" in message
    internal = message[len("stencil point (") : message.index(")")].split(", ")
    point = [Fraction(float(v)) * Fraction(2) ** exponent for v in internal]
    caller = [Fraction(float(v)) for v in argv[1:5]]
    h = Fraction(step) * max(abs(v) for v in caller)
    offsets = [abs(u - v) / h for u, v in zip(point, caller)]
    assert any(offsets) and all(t == 0 or abs(t - 1) < 1e-6 for t in offsets)


def test_beta_check(capsys):
    code, record = invoke(capsys, "beta-check")
    assert code == 0
    assert record["result"]["max_residual"] <= 1e-11


def test_usage_error_exit_code(capsys):
    assert run(["integral", "1", "0", "-1"]) == 1
    assert run(["nonsense"]) == 1
    assert run([]) == 1


def test_json_round_trip_on_every_command(capsys):
    for argv in (
        ["disc", "1", "0", "-1", "0"],
        ["integral", "1", "0", "-1", "0"],
        ["gauss", "2", "2", "1"],
        ["expect", "0", "1", "0", "1"],
        ["verify", "1", "2", "3", "5"],
        ["beta-check"],
    ):
        run(argv)
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert set(record) == {"command", "inputs", "result", "warnings", "status", "error_kind"}


def test_plain_output_is_not_json(capsys):
    code = run(["disc", "1", "2", "3", "5", "--plain"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D: -367" in out


def test_plain_output_puts_each_list_item_on_its_own_line(capsys):
    # the 80 identities were one line of 6238 characters
    assert run(["beta-check", "--plain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    identities = [line for line in lines if line.lstrip().startswith("- identity: ")]
    assert len(identities) == 80
    assert max(len(line) for line in lines) <= 200


def test_check_mismatch_guard():
    # the agreement bound itself: check mode must not report ok beyond 1e-6
    assert _CHECK_AGREEMENT_BOUND == 1e-6


def test_check_mismatch_reports_error(capsys, monkeypatch):
    import nongauss.cli as cli
    from nongauss.renorm import IntegralMethod, IntegralResult

    real = cli.integral_numeric

    def skewed(cubic, cfg=None):
        result = real(cubic, cfg)
        return IntegralResult(
            result.value * (1.0 + 1e-4), IntegralMethod.NUMERIC,
            result.discriminant, result.error_estimate,
        )

    monkeypatch.setattr(cli, "integral_numeric", skewed)
    code, record = invoke(capsys, "integral", "1", "0", "-1", "0", "--check")
    assert code == 3
    assert record["status"] == "error"
    assert record["error_kind"] == "CheckMismatch"


def test_integral_degree_three_routes_numeric(capsys):
    # the coefficient count declares the degree: --degree is no option, and
    # --numeric is the one numeric route of a cubic
    assert run(["integral", "--degree", "3", "1", "0", "-1", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: nongauss" in captured.err
    code, record = invoke(capsys, "integral", "1", "0", "-1", "0", "--numeric")
    assert code == 0
    assert record["result"]["method"] == "numeric"
    assert record["result"]["value"] == 12.619638947929076


def test_integral_check_with_degree_is_usage_error(capsys):
    # --check compares with the cubic closed form, which degree 4 has not
    code = run(["integral", "1", "0", "0", "0", "1", "--check"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--check" in captured.err and "usage: nongauss" in captured.err


@pytest.mark.parametrize(
    "argv,option",
    [
        (["expect", "1", "2", "3", "5", "--step", "1e-2"], "--step"),
        (["integral", "1", "2", "3", "5", "--rel-tol", "1e-9"], "--rel-tol"),
        (["integral", "1", "0", "-1", "0", "--plain", "--rel-tol", "1e-3"], "--rel-tol"),
        # the usage is checked before the value: this was a DomainError
        (["integral", "1", "2", "3", "5", "--rel-tol", "-1"], "--rel-tol"),
        (["integral", "1", "2", "3", "5", "--numeric", "--check"], "--numeric"),
    ],
)
def test_option_the_route_ignores_is_usage_error(capsys, argv, option):
    # each was dropped without a word: the closed form reads no tolerance,
    # expectations without --fd-check take no step, and --check ran in place
    # of --numeric
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert option in captured.err and "usage: nongauss" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["expect", "1", "2", "3", "5", "--fd-check", "--step", "1e-3"],
        ["integral", "1", "2", "3", "5", "--check", "--rel-tol", "1e-9"],
        ["integral", "1", "0", "0", "0", "1", "--rel-tol", "1e-9"],
        ["integral", "1", "0", "0", "0", "1", "--numeric"],
    ],
)
def test_option_the_route_reads_is_accepted(capsys, argv):
    assert run(argv) == 0
    assert strict_json(capsys.readouterr().out)["status"] == "ok"


def test_module_entry_point_runs():
    # python -m nongauss.cli goes through main(), which exits with run()'s code
    src = str(Path(nongauss.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "nongauss.cli", "disc", "1", "2", "3", "5"]
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert '"D": "-367"' in proc.stdout


def test_disc_general_rejects_zero_leading(capsys):
    # a leading zero no longer drops the degree: D_6(0, 1, 0, 0, 0, 0, 1) =
    # 1^2 * D_5(1, 0, 0, 0, 0, 1) = 3125
    code, record = invoke(capsys, "disc", "0", "1", "0", "0", "0", "0", "1")
    assert code == 0
    assert record["result"]["D"] == "3125"


@pytest.mark.parametrize(
    "coeffs,expected",
    [(("0", "1", "0", "0", "1"), "-27"), (("0", "0", "1", "1", "1"), "0"), (("0", "1", "2"), "1")],
)
def test_disc_leading_zero_keeps_degree(capsys, coeffs, expected):
    code, record = invoke(capsys, "disc", *coeffs)
    assert code == 0
    assert record["result"]["D"] == expected


@pytest.mark.parametrize("coeffs, declared", [(("0", "1"), 1), (("5",), 0)])
def test_disc_degree_too_low_names_the_declared_degree(capsys, coeffs, declared):
    code, record = invoke(capsys, "disc", *coeffs)
    assert code == 2
    assert record["error_kind"] == "DegreeTooLow"
    assert record["result"]["message"] == f"need degree >= 2, got {declared}"


@pytest.mark.parametrize("lead", ["0", "0.0", "0/3"])
def test_integral_degree_rejects_a_zero_leading_coefficient(capsys, lead):
    # 0 1 0 0 1 was integrated as x^3 + 1 at n = 3, status ok
    code, record = invoke(capsys, "integral", lead, "1", "0", "0", "1")
    assert code == 2
    assert record["error_kind"] == "DegenerateLeadingCoefficient"
    assert record["result"]["message"].startswith("degree 4:")


def test_warnings_are_captured(capsys):
    # a real pair whose rounding moves a root by 2.8e-7 of its distance to
    # the critical point between them
    code, record = invoke(
        capsys, "integral", "1.33514404296875e-05", "5.525945723005751e-05",
        "7.82875389059157e-06", "-0.00011891701876319992", "--numeric",
    )
    assert code == 0
    assert len(record["warnings"]) == 1
    assert "rounding the coefficients moves a root" in record["warnings"][0]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["disc", "1", "{}", "0", "1"],
        ["disc", "1", "0", "0", "{}", "1"],
        ["integral", "{}", "1", "0", "1"],
        ["integral", "1", "0", "{}", "1", "--numeric"],
        ["integral", "1", "0", "{}", "1", "--check"],
        ["integral", "1", "0", "{}", "0", "1"],
        ["gauss", "1", "0", "{}"],
        ["expect", "1", "0", "{}", "1"],
        ["expect", "{}", "0", "-1", "0", "--fd-check"],
        ["verify", "1", "{}", "-1", "0"],
    ],
)
def test_non_finite_input_is_domain_error(capsys, argv, bad):
    code = run([bad if token == "{}" else token for token in argv])
    record = strict_json(capsys.readouterr().out)
    assert code == 2
    assert record["status"] == "error"
    assert record["error_kind"] == "DomainError"


_BIG = str(2**1605)


@pytest.mark.parametrize(
    "argv,code,kind",
    [
        (["integral", "x", "0", "1", "0"], 1, None),
        (["expect", "1/0", "0", "1", "0"], 1, None),
        (["verify", "1", "2", "3", "5", "--step", "0"], 2, "DomainError"),
        (["expect", "0", "-1e-300", "-9.824", "-2.952"], 2, "DomainError"),
        (["gauss", "10.0", "-1e300", "1.9"], 2, "DomainError"),
        (["integral", "--rel-tol", "0", "1", "0", "-1", "0", "--numeric"], 2, "DomainError"),
        (["integral", "1e100", "-2.0000001e100", "1e100", "0", "--numeric"], 0, None),
        (["disc", "0", "1e-300", "-1e300", "3.0", "0", "-4", "1e-300", "2/7"], 0, None),
        # the panels next to the origin cannot resolve the integrand, which
        # quadrature reports
        (["integral", "9/3", "1e300", "1", "5.0", "--numeric"], 3, "NoConvergence"),
        # the far panels overflowed Horner; they are integrated in u = 1/x
        (["integral", "1e-300", "-1.06", "0", "-1/7", "--numeric"], 0, None),
        (["integral", "1/1" + "0" * 2000, "0", "-1", "0"], 2, "DomainError"),
        # --max-levels capped a quadrature rule the panels no longer run: no option
        (["integral", "1", "0", "-1", "0", "--numeric", "--max-levels", "8"], 1, None),
        # F = C / (4 * 10^2000)^(1/6) underflowed to a status-ok 0.0
        (["integral", "1" + "0" * 2000, "0", "-1", "0"], 2, "DomainError"),
        # every coefficient is 0.0 at the caller's scale (was SingularPoint,
        # then DomainError): rounded at unit root scale, it is 2.404e267
        (["integral"] + ["1/1" + "0" * 400] * 2 + ["0", "1/1" + "0" * 400, "--numeric"], 0, None),
        # pi * 10^-400 and pi * 2^1074 lie outside the float range (were
        # OverflowError tracebacks)
        (["gauss", "1" + "0" * 400, "0", "1" + "0" * 400], 2, "DomainError"),
        (["gauss", "5e-324", "0", "5e-324"], 2, "DomainError"),
        # rel_tol = inf accepted every first estimate: 12.619645, status ok
        (["integral", "1", "0", "-1", "0", "--numeric", "--rel-tol", "inf"], 2, "DomainError"),
        # status-ok subnormal or zero floats with lost bits: F of 2^1605 (x^3 -
        # x) by either route, the Gaussian analogue of 2^1070 (x^2 + 1) and the
        # float moments of 2^1075 (x^3 - x) + 1.0
        (["integral", _BIG, "0", "-" + _BIG, "0"], 2, "DomainError"),
        (["integral", _BIG, "0", "-" + _BIG, "0", "--numeric"], 2, "DomainError"),
        (["gauss", str(2**1070), "0", str(2**1070)], 2, "DomainError"),
        (["expect", str(2**1075), "0", "-" + str(2**1075), "1.0"], 2, "DomainError"),
        # a step of 1e300 at the scale 2^-996 overflowed: an OverflowError traceback
        (["verify", "0", "1e-300", "1e-300", "0", "--step", "1e300"], 2, "DomainError"),
        (["expect"] + ["1e-300"] * 4 + ["--fd-check", "--step", "1e300"], 2, "DomainError"),
        # h^2 is subnormal in the stencil's units: the residuals were inf and
        # nan, and json.dumps(allow_nan=False) raised a ValueError traceback
        (["verify", "2", "1e154", "1", "0.1", "--step", "1e-5"], 2, "DomainError"),
        (
            ["verify", "2", "2.2250738585072014e-308", "1", "1e154", "--step", "1e-5"],
            2,
            "DomainError",
        ),
        # F is about 3e46 in the stencil's units, and its second differences
        # over h^2 overflowed; the step, 5.4e-144 there, also leaves d (-1.48)
        # unmoved, and bb-ac was then 4.3e273 with status ok
        (
            [
                "verify", "-0.9274801170753495", "-2.919412621731837",
                "-0.8172647212979385", "-2.7476240302559378e+137", "--step", "1e-6",
            ],
            2,
            "DomainError",
        ),
        # h^2 = 2^-1022 is normal, but F at the c - h point is 2^26 times F at
        # the center, and a second difference overflowed to an inf residual
        (
            ["verify", "1", "0", "1.4916681462400417e-154", "0", "--step", repr(2.0**-511)],
            2,
            "DomainError",
        ),
        # a step below half an ulp of every coefficient moves none of them:
        # the identity residuals were (0.0, 0.0, 0.0) and the moment ones 1.0,
        # with status ok
        (["verify", "1", "2", "3", "5", "--step", "1e-17"], 2, "DomainError"),
        (["expect", "1", "2", "3", "5", "--fd-check", "--step", "1e-17"], 2, "DomainError"),
    ],
)
def test_fuzz_findings(capsys, argv, code, kind):
    assert run(argv) == code
    if code != 1:
        record = strict_json(capsys.readouterr().out)
        assert record["error_kind"] == kind


def test_far_panels_match_the_closed_form(capsys):
    # the root near -1.06e300 put panels at |x| ~ 1e154, beyond Horner's range
    argv = ["integral", "1e-300", "-1.06", "0", "-1/7"]
    assert run(argv) == 0
    closed = strict_json(capsys.readouterr().out)["result"]["value"]
    assert closed == 9.78775394636733
    assert run(argv + ["--numeric"]) == 0
    numeric = strict_json(capsys.readouterr().out)["result"]["value"]
    assert abs(numeric - closed) <= 1e-12


def test_verify_of_a_power_of_two_multiple_prints_the_same_residuals(capsys):
    # 2^-1100 (x^3 - x + 3/7), as p/q literals: the stencil is rounded once from
    # the exact integers at every scale (was a DomainError)
    scaled = [str(Fraction(v) / 2**1100) for v in ("1", "0", "-1", "3/7")]
    assert run(["verify", *scaled]) == 0
    residuals = strict_json(capsys.readouterr().out)["result"]["residuals"]
    assert run(["verify", "1", "0", "-1", "3/7"]) == 0
    assert residuals == strict_json(capsys.readouterr().out)["result"]["residuals"]


_E310 = "1" + "0" * 310


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        # float() of the 10^310 coefficient raised OverflowError: a traceback.
        # Rounded at the stencil's scale, c = -1 is 10^-310 of a, so the +-h
        # points of c cross D = 0 (was a DomainError)
        (["verify", _E310, "0", "-1", "0"], 2, "StencilCrossesSingularity"),
        (["verify", _E310, "0", "-" + _E310, "0"], 0, None),
        # the same stencil, visited before the float moment xy2 = 1 / (2c),
        # which lies beyond the float range (was a DomainError)
        (["expect", _E310, "0", "-1", "0", "--fd-check"], 2, "StencilCrossesSingularity"),
    ],
)
def test_fd_checks_beyond_the_float_range(capsys, argv, code, kind):
    assert run(argv) == code
    record = strict_json(capsys.readouterr().out)
    assert record["error_kind"] == kind


_FUZZ_COMMANDS = ("disc", "integral", "gauss", "expect", "verify", "beta-check")
_FUZZ_FLAGS = (
    "--plain", "--numeric", "--check", "--fd-check", "--degree", "--rel-tol",
    "--max-levels", "--step", "--help", "-x", "--",
)


def _fuzz_token(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return str(rng.randint(-9, 9))
    if kind == 1:
        return f"{rng.randint(-9, 9)}/{rng.randint(-3, 9)}"
    if kind == 2:
        return repr(round(rng.uniform(-10.0, 10.0), rng.randint(0, 4)))
    if kind == 3:
        return rng.choice(["1e300", "-1e300", "1e-300", "-1e-300"])
    if kind == 4:
        return "0"
    if kind == 5:
        return rng.choice(["nan", "inf", "-inf", "-nan", "Infinity"])
    if kind == 6:
        return rng.choice(["x", "", "1/", "--", "1e", "0x10", "1_0", " ", "½"])
    return rng.choice(_FUZZ_FLAGS)


def test_cli_fuzz_exit_codes_and_strict_json(capsys):
    rng = random.Random(71)
    for _ in range(400):
        argv = [rng.choice(_FUZZ_COMMANDS)] + [_fuzz_token(rng) for _ in range(rng.randint(0, 8))]
        code = run(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), argv
        if code != 1 and "--help" not in argv and "--plain" not in argv:
            strict_json(out)


def test_runtime_imports_only_the_standard_library():
    # a fresh interpreter without site-packages (-I -S) imports the package
    # and the CLI; "__main__" is the -c command itself
    src = str(Path(nongauss.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nongauss, nongauss.cli; "
        "print(*sorted({m.partition('.')[0] for m in sys.modules}))"
    )
    argv = [sys.executable, "-I", "-S", "-c", code, src]
    loaded = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split()
    assert "nongauss" in loaded
    outside = set(loaded) - set(sys.stdlib_module_names) - {"__main__", "nongauss"}
    assert not outside, sorted(outside)


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuples, so a cold start skips dataclasses and the
    # inspect it imports; only the modules the import adds count, not what
    # site loaded before it.  Module names only, nothing is timed
    src = str(Path(nongauss.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import nongauss, nongauss.cli; print(*sorted(set(sys.modules) - before))"
    )
    argv = [sys.executable, "-I", "-c", code, src]
    added = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split()
    assert "nongauss.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added


_SWEEP_TOKENS = (
    "0 1 -1 2 3 1/3 -1/3 1e-300 1e300 1e308 -1e308 5e-324 1e-320 nan inf -inf 0.5 1e-16 7 0.1 "
    "-2 1.7e308 2.2250738585072014e-308 4.9e-324 1e154 1e-154"
).split() + ["1" + "0" * 400, "1/1" + "0" * 400]
_SWEEP_STEPS = ("1e-2", "1e-5")
# each command, its coefficient counts and its flag sets
_SWEEP_COMMANDS = (
    ("disc", range(1, 7), [()]),
    ("integral", range(4, 7), [(), ("--numeric",), ("--check",)]),
    ("gauss", [3], [()]),
    ("expect", [4], [()] + [("--fd-check", "--step", h) for h in _SWEEP_STEPS]),
    ("verify", [4], [()] + [("--step", h) for h in _SWEEP_STEPS]),
)


def test_cli_sweep_of_extreme_coefficients_prints_strict_json(capsys):
    # no traceback and no invalid JSON for any input: verify ... --step 1e-5
    # on such coefficients once printed inf or nan residuals, a ValueError
    # traceback from json.dumps(allow_nan=False)
    rng = random.Random(29)
    for _ in range(1000):
        command, counts, flag_sets = rng.choice(_SWEEP_COMMANDS)
        coeffs = [rng.choice(_SWEEP_TOKENS) for _ in range(rng.choice(counts))]
        argv = [command, *coeffs, *rng.choice(flag_sets)]
        code = run(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), argv
        if code != 1:
            strict_json(out)
