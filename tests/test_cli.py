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
    code, record = invoke(capsys, "integral", "--degree", "4", "1", "0", "0", "0", "1")
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
            ("verify", "0", "1024", "0", "1e-197"),
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
        # a + h and d - h: d - h is subnormal in the caller's units, so it would lose bits
        (("verify", "1e-306", "1e-306", "0", "1e-310"), 1e-3, -1017),
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
    code, record = invoke(capsys, "integral", "--degree", "3", "1", "0", "-1", "0")
    assert code == 0
    assert record["result"]["method"] == "numeric"
    assert record["result"]["value"] == pytest.approx(12.6196389479, rel=1e-8)


def test_integral_check_with_degree_is_usage_error(capsys):
    # --check compares with the cubic closed form; it was dropped without a word
    code = run(["integral", "--degree", "3", "1", "0", "-1", "0", "--check"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "--check" in captured.err and "usage: nongauss" in captured.err


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
    "coeffs,expected", [(("0", "1", "0", "0", "1"), "-27"), (("0", "0", "1", "1", "1"), "0")]
)
def test_disc_leading_zero_keeps_degree(capsys, coeffs, expected):
    code, record = invoke(capsys, "disc", *coeffs)
    assert code == 0
    assert record["result"]["D"] == expected


def test_warnings_are_captured(capsys):
    # roots at 0, 1e-2, 1 sit in the flagged |D| band
    code, record = invoke(
        capsys, "integral", "1", "-1.01", "0.01", "0", "--numeric"
    )
    assert code == 0
    assert any("scale^4" in w for w in record["warnings"])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["disc", "1", "{}", "0", "1"],
        ["disc", "1", "0", "0", "{}", "1"],
        ["integral", "{}", "1", "0", "1"],
        ["integral", "1", "0", "{}", "1", "--numeric"],
        ["integral", "1", "0", "{}", "1", "--check"],
        ["integral", "--degree", "4", "1", "0", "{}", "0", "1"],
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


@pytest.mark.parametrize(
    "argv,code,kind",
    [
        (["integral", "x", "0", "1", "0"], 1, None),
        (["expect", "1/0", "0", "1", "0"], 1, None),
        (["verify", "1", "2", "3", "5", "--step", "0"], 2, "DomainError"),
        (["expect", "0", "-1e-300", "-9.824", "-2.952"], 2, "DomainError"),
        (["gauss", "10.0", "-1e300", "1.9"], 2, "DomainError"),
        (["integral", "--rel-tol", "0", "1", "0", "-1", "0"], 2, "DomainError"),
        (["integral", "1e100", "-2.0000001e100", "1e100", "0", "--numeric"], 0, None),
        (["disc", "0", "1e-300", "-1e300", "3.0", "0", "-4", "1e-300", "2/7"], 0, None),
        # the panels next to the origin cannot resolve the integrand, which
        # quadrature reports
        (["integral", "9/3", "1e300", "1", "5.0", "--numeric"], 3, "NoConvergence"),
        # the far panels overflowed Horner; they are integrated in u = 1/x
        (["integral", "1e-300", "-1.06", "0", "-1/7", "--numeric"], 0, None),
        (["integral", "1/1" + "0" * 2000, "0", "-1", "0"], 2, "DomainError"),
        (["integral", "1", "0", "-1", "0", "--numeric", "--max-levels", "17"], 2, "DomainError"),
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


@pytest.mark.parametrize("command", [["verify"], ["expect", "--fd-check"]])
def test_fd_checks_beyond_the_float_range_are_domain_errors(capsys, command):
    # float() of the 10^310 coefficient raised OverflowError: a traceback
    argv = command[:1] + ["1" + "0" * 310, "0", "-1", "0"] + command[1:]
    assert run(argv) == 2
    record = strict_json(capsys.readouterr().out)
    assert record["status"] == "error"
    assert record["error_kind"] == "DomainError"


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
