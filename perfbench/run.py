"""Benchmark runner: one workload, one seed, one run of fixed length.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  A run is single-process and closed-loop:
one caller, one check at a time.

Untraced (``--trace 0``): the package is imported and the workload's
contexts are built several times (``setup_s`` is the median), then one
untimed warm-up pass runs, then timed passes run until ``--seconds`` have
been spent (at least two).  Traced (``--trace 1``): a traced warm-up pass,
then untraced and traced passes alternate; the per-layer numbers come from
the traced passes and ``trace.overhead_frac`` compares the two kinds.

Every verdict is compared with its known answer, and every pass's report
JSON is hashed: passes of one run must produce identical reports.  The last
line of standard output is the JSON result; the lines before it give the
same metrics as a table, together with ``wrong_verdicts`` and
``failed_frac``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HASH_SEED = "0"
SETUP_REPEATS = 5
MIN_PASSES = 2


def import_program():
    """Import qonsager afresh from the checkout, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "qonsager" or n.startswith("qonsager.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qonsager")
    if Path(pkg.__file__).resolve().parent != SRC / "qonsager":
        raise ImportError(f"qonsager imported from {pkg.__file__}, not from {SRC}")
    for sub in ("qcoeff", "freealg", "adjoint", "identities", "rewrite", "onsager",
                "currentalg", "matrices", "repn", "report"):
        importlib.import_module("qonsager." + sub)
    return pkg


def _calibration_work(products=12, fractions=400):
    """Fixed work shaped like the program's exact arithmetic, about 4 ms.

    Integer polynomial products, content gcds, tuple-keyed dict stores and
    Fraction sums, written here and sharing no code with the program, so a
    change to the program cannot move it.
    """
    a = [(3 * i + 1) % 17 - 8 for i in range(24)]
    b = [(5 * i + 2) % 13 - 6 for i in range(24)]
    seen = {}
    for k in range(products):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        g = 0
        for c in out:
            g = math.gcd(g, c)
        seen[tuple(out[:4]) + (k,)] = g
        a, b = b, [c // (g or 1) for c in out[:24]]
    total = Fraction(0)
    for i in range(1, fractions):
        total += Fraction(i % 97, i % 89 + 1)
        seen[(i, i % 7)] = total
    return len(seen)


class ScaledClock:
    """Measures intervals in seconds at a fixed reference speed.

    The shared host's speed swings by up to 2x within seconds, and process
    CPU time swings with it.  The swings slow most Python code alike, so a
    fixed calibration loop run every PERIOD seconds of wall time (from a
    SIGALRM handler, so also in the middle of a long check) tracks them.
    An interval is scaled by REFERENCE_S times the loop's mean speed
    (1 / duration) over the samples from WINDOW seconds before it to
    WINDOW seconds after it.  Each sample is weighted by the wall time
    between its neighbours, because a signal is handled only between
    bytecodes and a long call into C delays the next sample: the weighted
    mean is the speed averaged over that time.  The time spent in the loop
    itself is taken out.  The loop runs with the garbage collector off and
    after an untimed slice of itself that refills the CPU caches, so neither
    the program's heap nor its use of the caches slows it;
    perfbench/fidelity.py checks that a slower program is not scaled back.
    """

    REFERENCE_S = 0.004
    PERIOD = 0.1
    WINDOW = 0.25

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0  # wall seconds inside the calibration loop

    def _sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        t0 = time.perf_counter()
        _calibration_work(1, 40)  # refill the caches the program's work emptied
        t1 = time.perf_counter()
        _calibration_work()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.spent += t2 - t0
        self.times.append(t1)
        self.speeds.append(self.REFERENCE_S / (t2 - t1))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mark(self):
        return time.perf_counter(), self.spent

    def scaled(self, start, end):
        """Seconds at reference speed between two marks of a finished clock."""
        t, last = self.times, len(self.times) - 1
        # the window, widened to the nearest sample on each side if need be
        i = min(bisect.bisect_left(t, start[0] - self.WINDOW), bisect.bisect_right(t, start[0]) - 1)
        j = max(bisect.bisect_right(t, end[0] + self.WINDOW), bisect.bisect_left(t, end[0]) + 1)
        weights = [t[min(k + 1, last)] - t[max(k - 1, 0)] for k in range(i, j)]
        speed = sum(w * v for w, v in zip(weights, self.speeds[i:j])) / sum(weights)
        return self.unscaled(start, end) * speed

    def unscaled(self, start, end):
        return (end[0] - start[0]) - (end[1] - start[1])


def measure_setup(workload, inputs):
    """Median over repeats of import plus first construction of the contexts."""
    times = []
    for _ in range(SETUP_REPEATS):
        pkg = None  # let the previous copy be collected
        gc.collect()
        with ScaledClock() as clock:
            start = clock.mark()
            pkg = import_program()
            workload.setup(pkg, inputs)
            end = clock.mark()
        times.append(clock.scaled(start, end))
    return statistics.median(times), pkg


def run_pass(workload, pkg, inputs, seed, tracer=None):
    """One full pass: fresh contexts, every check, the report and its digest.

    Times are scaled to the reference speed (see ScaledClock).
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    marks = []  # (start, end) of every check
    wrong = errors = 0
    records = []
    try:
        with ScaledClock() as clock:
            start, c_start = clock.mark(), time.process_time()
            for label, expected, call in workload.checks(pkg, inputs):
                t = clock.mark()
                try:
                    rec = call()
                except Exception as exc:  # a raised error is a failed check, not a dead run
                    marks.append((t, clock.mark()))
                    traceback.print_exc(file=sys.stderr)
                    errors += 1
                    rec = pkg.report.CheckRecord(
                        name=label, status=pkg.report.FAIL, detail=f"raised {type(exc).__name__}"
                    )
                else:
                    marks.append((t, clock.mark()))
                    if rec.status != expected:  # INCONCLUSIVE is a wrong verdict too
                        wrong += 1
                        print(f"wrong verdict: {label} is {rec.status}, expected {expected}",
                              file=sys.stderr)
                records.append(rec)
            report = pkg.report.Report(workload.name, records, config={"seed": seed})
            digest = hashlib.sha256(report.dumps().encode()).hexdigest()
            end, c_end = clock.mark(), time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = clock.scaled(start, end)
    raw = clock.unscaled(start, end)
    return {
        "wall": wall,
        "wall_raw": raw,
        # the calibration loop's own CPU time is taken to equal its wall time
        "cpu": (c_end - c_start - (end[1] - start[1])) * wall / raw,
        "check_times": [clock.scaled(a, b) for a, b in marks],
        "checks": len(records),
        "wrong": wrong,
        "errors": errors,
        "digest": digest,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def tally(passes):
    """attempted / failed / correct over every pass of the run.

    Each pass after the first is also a determinism check: its report must
    hash like the first pass's.
    """
    mismatched = sum(p["digest"] != passes[0]["digest"] for p in passes[1:])
    if mismatched:
        print(f"{mismatched} passes produced a different report", file=sys.stderr)
    wrong = sum(p["wrong"] for p in passes)
    errors = sum(p["errors"] for p in passes)
    failed = wrong + errors + mismatched
    attempted = sum(p["checks"] for p in passes) + len(passes) - 1
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "correct": wrong == 0 and errors == 0 and mismatched == 0,
    }


def untraced_run(workload, seed, seconds):
    pkg = import_program()
    inputs = workload.inputs(pkg, seed)
    setup_s, pkg = measure_setup(workload, inputs)
    passes = [run_pass(workload, pkg, inputs, seed)]  # warm-up, untimed
    timed = []
    while len(timed) < MIN_PASSES or sum(p["wall_raw"] for p in timed) < seconds:
        timed.append(run_pass(workload, pkg, inputs, seed))
    passes += timed
    t = tally(passes)
    walls = [p["wall"] for p in timed]
    suite_s = statistics.median(walls)
    check_ms = [1000 * x for p in timed for x in p["check_times"]]
    deciles = statistics.quantiles(check_ms, n=10)
    metrics = {
        "setup_s": (setup_s, "s"),
        "suite_s": (suite_s, "s"),
        "suite_cpu_s": (statistics.median(p["cpu"] for p in timed), "s"),
        "checks_per_s": (timed[0]["checks"] / suite_s, "1/s"),
        "check_ms.p50": (statistics.median(check_ms), "ms"),
        "check_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = dict(metrics)
    shown["wrong_verdicts"] = (t["wrong"], "count")
    shown["failed_frac"] = (t["failed"] / t["attempted"], "ratio")
    notes = [f"{len(timed)} timed passes, {len(check_ms)} checks timed",
             f"unscaled suite {statistics.median(p['wall_raw'] for p in timed):.3f} s"]
    return t, metrics, shown, notes


def traced_run(workload, seed, seconds):
    pkg = import_program()
    inputs = workload.inputs(pkg, seed)
    tracer = tracing.Tracer()
    warm = run_pass(workload, pkg, inputs, seed, tracer)
    untraced, traced = [], []
    while (not untraced or not traced
           or sum(p["wall_raw"] for p in untraced + traced) < seconds):
        if len(untraced) <= len(traced):
            untraced.append(run_pass(workload, pkg, inputs, seed))
        else:
            traced.append(run_pass(workload, pkg, inputs, seed, tracer))
    t = tally([warm] + untraced + traced)

    # the same inputs must make the same calls, pass after pass
    reference = tracing.counts(warm["trace"])
    for p in traced:
        if tracing.counts(p["trace"]) != reference:
            print("traced passes made different calls", file=sys.stderr)
            t["correct"] = False
    layers = tracing.layer_calls(warm["trace"])
    silent = [layer for layer in workload.layers if not layers.get(layer)]
    if silent:
        print(f"declared layers with no traced calls: {silent}", file=sys.stderr)
        t["correct"] = False

    metrics = {}
    for name, unit, value in tracing.PER_LAYER:
        if unit == "count":
            metrics[name] = (value(traced[0]["trace"]), unit)
            continue
        # span times are raw: scale them like their pass (see ScaledClock)
        scale = [p["wall"] / p["wall_raw"] if unit == "s" else 1 for p in traced]
        metrics[name] = (statistics.median(value(p["trace"]) * f
                                           for p, f in zip(traced, scale)), unit)
    overhead = (statistics.median(p["wall"] for p in traced)
                / statistics.median(p["wall"] for p in untraced) - 1)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    notes = [f"{len(traced)} traced and {len(untraced)} untraced passes"]
    return t, metrics, dict(metrics), notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qonsager" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    t, metrics, shown, notes = run(workload, args.seed, args.seconds)

    print(f"workload {workload.name}, seed {args.seed}: " + "; ".join(notes))
    for name, (value, unit) in shown.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    result = {
        "correct": t["correct"],
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes are salted per process, and with them the layout of
        # every dict, which moves the times of short checks by several
        # percent; run under one salt so that runs differ only by --seed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
