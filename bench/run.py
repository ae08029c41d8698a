"""Seeded benchmark of the nongauss package.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 10 --trace 0

Workloads: closed-form, verify, quadrature-cubic, quadrature-general, or
``all`` to run each in turn in its own process.  Every operation is a closed
loop (one caller, the next call starts when the previous returns) and every
output is checked against references computed in ``reference.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded around the calls into each layer, and
writes the spans to ``.bench_out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Uses only the standard library and imports the package from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("closed-form", "verify", "quadrature-cubic", "quadrature-general")

SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 5
LAUNCH_TIMEOUT_S = 60
# Operations per chunk at least; a chunk's 90th percentile has 20 beyond it.
CHUNK_OPS = 200
WARMUP_CASES = 10

# Times are reported at a reference speed.  On a shared machine the raw speed
# of the interpreter swings by 10-80% with the load of other tenants.  A fixed
# pure-Python calibration loop, run every CALIBRATION_INTERVAL_NS between
# operations, swings with it: each raw time is multiplied by
# CALIBRATION_REF_NS over the median of the last few calibrations, i.e.
# expressed on a machine that runs the loop in 100 us.  Launches of a fresh
# interpreter are scaled the same way by a bare interpreter launched just
# before, to a machine that starts `python -I -c pass` in 40 ms.
CALIBRATION_REF_NS = 100_000
LAUNCH_REF_S = 0.040
CALIBRATION_INTERVAL_NS = 50_000_000
CALIBRATION_LOOPS = 5
CALIBRATION_WINDOW = 5
CALIBRATION_WARMUP = 50

_COLD_START = (
    "import sys; sys.path.insert(0, {src!r}); import time; import nongauss.cli; "
    "from nongauss.special import constants; t = time.perf_counter(); constants(); "
    "print((time.perf_counter() - t) * 1e3)"
)


# --- machine speed ----------------------------------------------------------


def _calibration_loop():
    """Fraction and float arithmetic, the package's own instruction mix."""
    acc = Fraction(0)
    x = 0.5
    for i in range(1, 25):
        acc += Fraction(i, i + 3) ** 2
        x = math.log(x + i) * 0.5 + math.exp(-x)
    return acc, x


class Speed:
    """Factor from this machine's current speed to the reference speed."""

    def __init__(self):
        self.recent = deque(maxlen=CALIBRATION_WINDOW)
        self.factors = []
        for _ in range(CALIBRATION_WARMUP):  # let the interpreter specialise the loop
            _calibration_loop()
        self.sample()

    def sample(self) -> float:
        start = time.perf_counter_ns()
        for _ in range(CALIBRATION_LOOPS):
            _calibration_loop()
        self.last = time.perf_counter_ns()
        self.recent.append((self.last - start) / CALIBRATION_LOOPS)
        self.factor = CALIBRATION_REF_NS / statistics.median(self.recent)
        self.factors.append(self.factor)
        return self.factor

    def tick(self) -> float:
        """The current factor, calibrating again when it is due."""
        if time.perf_counter_ns() - self.last >= CALIBRATION_INTERVAL_NS:
            return self.sample()
        return self.factor


# --- cold start --------------------------------------------------------------


def _launch(extra: tuple = (), code: str = _COLD_START.format(src=str(SRC))):
    return subprocess.run(
        [sys.executable, "-I", *extra, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=LAUNCH_TIMEOUT_S,
        check=True,
    )


def _launch_factor() -> float:
    """Factor to reference speed, from the launch of a bare interpreter."""
    start = time.perf_counter()
    _launch(code="pass")
    return LAUNCH_REF_S / (time.perf_counter() - start)


def setup_seconds() -> float:
    """Median wall time, at reference speed, of a fresh interpreter importing
    nongauss.cli and making its first constants() call; one untimed launch
    first."""
    _launch()
    times = []
    for _ in range(SETUP_LAUNCHES):
        factor = _launch_factor()
        start = time.perf_counter()
        _launch()
        times.append((time.perf_counter() - start) * factor)
    return statistics.median(times)


def _importtime(stderr: str) -> dict:
    """{module: (self_us, cumulative_us)} from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            out[fields[2].strip()] = (int(fields[0]), int(fields[1]))
    return out


def cold_start_layers() -> dict:
    """Median import and first-call times over fresh interpreters, at
    reference speed."""
    _launch()
    cli, disc, consts = [], [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        factor = _launch_factor()
        proc = _launch(("-X", "importtime"))
        times = _importtime(proc.stderr)
        cli.append(times["nongauss.cli"][1] / 1e3 * factor)
        disc.append(times["nongauss.discriminant"][0] / 1e3 * factor)
        consts.append(float(proc.stdout.strip().splitlines()[-1]) * factor)
    return {
        "cli.import_ms": (statistics.median(cli), "ms"),
        "discriminant.import_ms": (statistics.median(disc), "ms"),
        "special.constants_first_ms": (statistics.median(consts), "ms"),
    }


# --- closed-loop measurement -------------------------------------------------


class Tally:
    """Attempts, failures by kind, and failures outside the known faults."""

    def __init__(self):
        self.attempted = 0
        self.by_kind = Counter()
        self.unexpected = Counter()

    def record(self, case, kind: str) -> None:
        self.attempted += 1
        if kind:
            self.by_kind[kind] += 1
            if not case.fault:
                self.unexpected[f"{case.kind}:{kind}"] += 1

    @property
    def failed(self) -> int:
        return sum(self.by_kind.values())


def _outcome(workload, case, fn) -> str:
    """Run one operation; return "" or its failure kind."""
    try:
        output = fn(case)
    except Exception as exc:  # every exception is a counted failure
        return type(exc).__name__
    return "" if workload.check(case, output) else "wrong-value"


def warm_up(workload, seed: int) -> None:
    """Fill lazy caches (constants, imports) before anything is timed."""
    for case in workload.round(random.Random(f"warm-up {seed}"))[:WARMUP_CASES]:
        _outcome(workload, case, workload.call)


def measure(workload, seed: int, seconds: float, speed: Speed) -> dict:
    """Closed loop over whole rounds for ``seconds``, then on to the end of
    the current chunk.

    A chunk is the fewest whole rounds with at least CHUNK_OPS operations.
    Each chunk gives its throughput and its median and 90th-percentile
    latency, at reference speed; the run reports the median of each over its
    chunks, so a few slow seconds of a shared machine move few chunks.
    """
    rng = random.Random(seed)
    tally = Tally()
    chunks = []
    latencies = []
    busy_ns = 0
    ok = 0
    rounds = 0
    start = time.perf_counter()
    while latencies or time.perf_counter() - start < seconds:
        for case in workload.round(rng):
            factor = speed.tick()
            t0 = time.perf_counter_ns()
            try:
                output = workload.call(case)
                kind = ""
            except Exception as exc:  # every exception is a counted failure
                kind = type(exc).__name__
            elapsed = (time.perf_counter_ns() - t0) * factor
            if not kind and not workload.check(case, output):
                kind = "wrong-value"
            tally.record(case, kind)
            latencies.append(elapsed)
            busy_ns += elapsed
            ok += not kind
        rounds += 1
        if len(latencies) >= CHUNK_OPS:
            deciles = statistics.quantiles(latencies, n=10, method="inclusive")
            chunks.append((ok / busy_ns * 1e9, deciles[4] / 1e3, deciles[8] / 1e3))
            latencies, busy_ns, ok = [], 0, 0
    return {
        "tally": tally,
        "rounds": rounds,
        "chunks": len(chunks),
        "metrics": {
            "ops_per_s": (statistics.median(c[0] for c in chunks), "op/s"),
            "op_p50_us": (statistics.median(c[1] for c in chunks), "us"),
            "op_p90_us": (statistics.median(c[2] for c in chunks), "us"),
        },
    }


# --- traced run ----------------------------------------------------------------


class Tracer:
    """Spans (id, name, start_ns, end_ns, parent, error, probe) and counts
    (parent, name, value), kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self.last_id = 0

    def begin(self):
        self.last_id += 1
        return self.last_id, time.perf_counter_ns()

    def end(self, span_id, name, start, parent, error="", probe=False):
        self.spans.append((span_id, name, start, time.perf_counter_ns(), parent, error, probe))

    def _timed(self, name, parent, probe, fn, args):
        span_id, start = self.begin()
        error = ""
        try:
            return fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self.end(span_id, name, start, parent, error, probe)

    def call(self, name, parent, fn, *args):
        """A call that is part of the operation."""
        return self._timed(name, parent, False, fn, args)

    def probe(self, name, parent, fn, *args):
        """An extra call into one layer on the operation's input."""
        return self._timed(name, parent, True, fn, args)

    def count(self, name, parent, value):
        self.counts.append((parent, name, value))


def traced_rounds(workload, seed: int, rounds: int, tracer: Tracer, speed: Speed) -> Tally:
    """Replay the first ``rounds`` rounds of ``seed`` with spans; a case span
    parents the spans of its layer calls, and a ``speed.factor`` count on the
    case holds the factor to reference speed."""
    rng = random.Random(seed)
    tally = Tally()
    for _ in range(rounds):
        for case in workload.round(rng):
            factor = speed.tick()
            case_id, start = tracer.begin()
            kind = _outcome(workload, case, lambda c: workload.traced(c, tracer, case_id))
            tracer.end(case_id, f"case.{workload.name}", start, 0, kind)
            tracer.count("speed.factor", case_id, factor)
            tally.record(case, kind)
    return tally


_SPAN_METRICS = {
    "discriminant.cubic": "discriminant.cubic_us",
    "discriminant.general": "discriminant.general_us",
    "renorm.closed_form": "renorm.closed_form_us",
    "renorm.expectations": "renorm.expectations_us",
    "renorm.fd_check": "renorm.fd_check_us",
    "renorm.pde": "renorm.pde_us",
    "polynomial.cubic_roots": "polynomial.cubic_roots_us",
    "quadrature.decompose": "quadrature.decompose_us",
}
_NUMERIC = ("quadrature.integral_numeric", "quadrature.integral_numeric_general")

# The workload whose inputs stand in for a layer a traced workload never calls.
_HOME = {
    "discriminant.cubic_us": "closed-form",
    "discriminant.general_us": "quadrature-general",
    "renorm.closed_form_us": "closed-form",
    "renorm.expectations_us": "closed-form",
    "renorm.fd_check_us": "verify",
    "renorm.pde_us": "verify",
    "polynomial.cubic_roots_us": "quadrature-cubic",
    "quadrature.decompose_us": "quadrature-cubic",
    "quadrature.panels_per_op": "quadrature-cubic",
    "quadrature.integrate_us": "quadrature-cubic",
}


def layer_metrics(tracer: Tracer, first_span: int = 0) -> dict:
    """Mean time per call of each layer, at reference speed, over the
    operations that succeeded.

    quadrature.integrate_us is the numeric call less the discriminant and
    decompose calls on the same input.
    """
    ok_cases = {s[0] for s in tracer.spans if s[4] == 0 and not s[5] and s[0] > first_span}
    factors = {p: v for p, name, v in tracer.counts if name == "speed.factor"}
    per_case = {}
    durations = {}
    for span_id, name, start, end, parent, error, _ in tracer.spans:
        if parent in ok_cases:
            us = (end - start) / 1e3 * factors[parent]
            durations.setdefault(name, []).append(us)
            per_case.setdefault(parent, {})[name] = us
    out = {
        _SPAN_METRICS[name]: (statistics.fmean(values), "us/call")
        for name, values in durations.items()
        if name in _SPAN_METRICS
    }
    integrate = []
    for spans in per_case.values():
        numeric = next((spans[n] for n in _NUMERIC if n in spans), None)
        if numeric is not None:
            disc = spans.get("discriminant.cubic", spans.get("discriminant.general"))
            integrate.append(numeric - disc - spans["quadrature.decompose"])
    if integrate:
        out["quadrature.integrate_us"] = (statistics.fmean(integrate), "us/call")
    panels = [v for p, name, v in tracer.counts if name == "quadrature.panels" and p in ok_cases]
    if panels:
        out["quadrature.panels_per_op"] = (statistics.fmean(panels), "panels")
    return out


def _traced_ns(tracer: Tracer) -> float:
    """Time of the case spans less their probe spans, at reference speed."""
    factors = {p: v for p, name, v in tracer.counts if name == "speed.factor"}
    total = 0.0
    for span_id, _, start, end, parent, _, probe in tracer.spans:
        if parent == 0:
            total += (end - start) * factors[span_id]
        elif probe:
            total -= (end - start) * factors[parent]
    return total


def traced_run(workloads: dict, name: str, seed: int, seconds: float, speed: Speed):
    """An untraced and a traced pass over the same rounds, then one traced
    round of each workload whose inputs stand in for layers this one never
    calls.  The overhead compares the two passes' time per operation, less
    the traced pass's extra layer calls."""
    workload = workloads[name]
    warm_up(workload, seed)
    rng = random.Random(seed)
    rounds = 0
    plain_ns = 0.0
    start = time.perf_counter_ns()
    while time.perf_counter_ns() - start < seconds / 2 * 1e9:
        for case in workload.round(rng):
            factor = speed.tick()
            t0 = time.perf_counter_ns()
            _outcome(workload, case, workload.call)
            plain_ns += (time.perf_counter_ns() - t0) * factor
        rounds += 1

    tracer = Tracer()
    tally = traced_rounds(workload, seed, rounds, tracer, speed)
    metrics = layer_metrics(tracer)
    overhead = 100.0 * (_traced_ns(tracer) - plain_ns) / plain_ns
    metrics["trace.overhead_pct"] = (overhead, "%")
    for side in sorted({_HOME[m] for m in _HOME if m not in metrics}):
        first = tracer.last_id
        traced_rounds(workloads[side], seed, 1, tracer, speed)
        for metric, value in layer_metrics(tracer, first).items():
            metrics.setdefault(metric, value)
    metrics.update(cold_start_layers())
    _write_spans(tracer, name)
    return tally, metrics


def _write_spans(tracer: Tracer, name: str) -> None:
    """One JSON array per line: a field header, the spans, then the counts.
    Each workload's file is replaced by its next traced run."""
    OUT.mkdir(exist_ok=True)
    with (OUT / f"spans-{name}.jsonl").open("w", encoding="utf-8") as fh:
        fh.write('["span", "id", "name", "start_ns", "end_ns", "parent", "error", "probe"]\n')
        fh.write('["count", "parent", "name", "value"]\n')
        for span in tracer.spans:
            fh.write(json.dumps(["span", *span]) + "\n")
        for count in tracer.counts:
            fh.write(json.dumps(["count", *count]) + "\n")


# --- command line ----------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "nongauss" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'nongauss'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(SRC))
    import nongauss
    from workloads import WORKLOADS

    if not Path(nongauss.__file__).resolve().is_relative_to(SRC):
        print(f"bench: nongauss imported from {nongauss.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", nongauss.IllConditionedWarning)

    speed = Speed()
    if args.trace:
        workloads = {name: cls() for name, cls in WORKLOADS.items()}
        tally, metrics = traced_run(workloads, args.workload, args.seed, args.seconds, speed)
        detail = f"spans in {OUT.relative_to(ROOT)}/"
    else:
        setup = setup_seconds()
        workload = WORKLOADS[args.workload]()
        warm_up(workload, args.seed)
        run = measure(workload, args.seed, args.seconds, speed)
        tally, metrics = run["tally"], run["metrics"]
        metrics["setup_s"] = (setup, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (peak_kib / 1024.0, "MiB")
        detail = f"{run['rounds']} rounds in {run['chunks']} chunks"

    kinds = ", ".join(f"{k} {v}" for k, v in sorted(tally.by_kind.items())) or "none"
    factors = statistics.quantiles(speed.factors, n=4) if len(speed.factors) > 1 else speed.factors * 3
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  ({detail})")
    print(f"speed factor to reference (times below are raw times x factor): median "
          f"{factors[1]:.3f}, quartiles {factors[0]:.3f}-{factors[2]:.3f}, "
          f"{len(speed.factors)} calibrations")
    print(f"attempted {tally.attempted}  failed {tally.failed}  by kind: {kinds}")
    if tally.unexpected:
        print(f"UNEXPECTED failures: {dict(tally.unexpected)}")
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"  {metric:<28} {value:14.4f} {unit}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
