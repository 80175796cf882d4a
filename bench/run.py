"""Benchmark command for badicdim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (run_s, setup_s, peak_rss_mb,
out_bytes); with `--trace 1` they are the per-layer ones.  See
README.md for the workloads, the metrics and how the timings are kept
steady.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 3
MIN_PASSES = 3
CAL_REFERENCE_S = 0.001  # the calibration loop's time on a fast machine
PROBE_INTERVAL_S = 0.05
EDGE_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clear_program_caches():
    """Empty the caches a fresh process would start without: sympy's
    expression cache (radii with an irrational scale ratio)."""
    sympy = sys.modules.get("sympy")
    if sympy is not None:
        sympy.core.cache.clear_cache()


def calibration_loop():
    """Time a fixed mix of interpreter work like the program's: tuple
    keys in a dict, a sort, Fraction arithmetic and digit parsing."""
    t0 = perf_counter()
    table = {}
    for i in range(600):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    x, step = Fraction(0), Fraction(1, 7)
    for i in range(40):
        x = abs(x - step * i) + Fraction(i, 1024)
    n = 0
    for line in DIGITS.splitlines():
        n += sum(int(c) for c in line)
    return perf_counter() - t0


DIGITS = "\n".join("0123012301230123"[i % 7:i % 7 + 8] for i in range(120))


class SpeedProbe:
    """Times operations in units of the machine's current speed.

    While an operation runs, a SIGALRM handler times the calibration
    loop every PROBE_INTERVAL_S; EDGE_SAMPLES more are timed between
    operations.  An operation's rescaled time is its wall time, less the
    handler's, times the mean calibration speed over the operation, in
    units of the reference speed: the time it would have taken on a
    machine where the loop takes CAL_REFERENCE_S."""

    def __init__(self, tracer=None):
        self.rates = []
        self.spent = 0.0
        self.tracer = tracer

    def sample(self, n=EDGE_SAMPLES):
        for _ in range(n):
            self.rates.append(1.0 / calibration_loop())

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.sample(1)
        spent = perf_counter() - t0
        self.spent += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    def measure(self, fn, arg):
        """Run `fn(arg)`; return its result (or the exception it raised)
        and its rescaled time in seconds."""
        if len(self.rates) < EDGE_SAMPLES:
            self.sample()
        del self.rates[:-EDGE_SAMPLES]
        self.spent = 0.0
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn(arg)
        except Exception as exc:  # the caller counts a failed operation
            result = exc
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self.sample()
        rate = statistics.fmean(self.rates)
        return result, (elapsed - self.spent) * rate * CAL_REFERENCE_S


class Runner:
    """Runs passes of one workload and keeps their tallies."""

    def __init__(self, workload, state, outdir, probe):
        self.workload = workload
        self.probe = probe
        self.state = state
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.out_bytes = None
        self.outputs = None

    def run_pass(self, op_times):
        """One pass over the workload's operations.  Each operation's
        rescaled time is appended to `op_times[name]`.  Every pass must
        repeat the first pass's outputs exactly; the outputs of the last
        pass are kept for `check`."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        ops = self.workload.ops(self.state)
        clear_program_caches()
        gc.collect()
        outputs = {}
        for op in ops:
            self.attempted += 1
            result, seconds = self.probe.measure(op.fn, outputs)
            op_times.setdefault(op.name, []).append(seconds)
            if isinstance(result, Exception):
                self.failed += 1
                if op.fault is None or op.fault not in str(result):
                    print(f"operation {op.name} failed: {result!r}",
                          file=sys.stderr)
                continue
            outputs[op.name] = result
        digest = self._digest(outputs)
        if self.reference is None:
            self.reference = digest
            self.out_bytes = sum(p.stat().st_size
                                 for p in self.outdir.iterdir())
        elif digest != self.reference:
            self.problems.append("a pass's outputs differ from the first "
                                 "pass's")
        self.outputs = outputs

    def check(self):
        """Check the last pass's outputs in full."""
        self.problems += self.workload.check(self.state, self.outputs)

    def _digest(self, outputs):
        h = hashlib.sha256()
        for path in sorted(self.outdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        h.update(self.workload.summary(self.state, outputs).encode())
        return h.hexdigest()

    def timed_passes(self, seconds, tracer=None):
        """Passes until `seconds` have elapsed (at least MIN_PASSES).
        Returns the per-operation times and the pass ids."""
        op_times = {}
        pass_ids = []
        deadline = perf_counter() + seconds
        while len(pass_ids) < MIN_PASSES or perf_counter() < deadline:
            pass_id = len(pass_ids) + 1
            if tracer is not None:
                tracer.start_pass(pass_id)
            self.run_pass(op_times)
            pass_ids.append(pass_id)
        return op_times, pass_ids


def pass_time(op_times):
    """The time of one pass: the sum over operations of the median of
    their rescaled times in this run."""
    return sum(statistics.median(times) for times in op_times.values())


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "badicdim" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe = SpeedProbe()
    workloads, import_s = probe.measure(importlib.import_module, "workloads")
    if isinstance(workloads, Exception):
        raise workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workloads, workload, workdir, probe, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workload, workdir, probe, import_s):
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        probe.tracer = tracer
        tracer.install(_program_modules(), [vars(workloads)])
    (workdir / "in").mkdir(parents=True)
    builds, setup_passes = [], []
    for i in range(SETUP_RUNS):
        if tracer is not None:
            setup_passes.append(-(i + 1))
            tracer.start_pass(setup_passes[-1])
        gc.collect()
        state, seconds = probe.measure(
            lambda _: workload.setup(args.seed, str(workdir)), None)
        if isinstance(state, Exception):
            raise state
        builds.append(seconds)
    if tracer is not None:
        tracer.uninstall()
    runner = Runner(workload, state, workdir / "out", probe)
    runner.run_pass({})  # the reference outputs; also fills lazy imports
    if not args.trace:
        op_times, _ = runner.timed_passes(args.seconds)
        metrics = {
            "run_s": {"value": pass_time(op_times), "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(builds),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "out_bytes": {"value": runner.out_bytes, "unit": "bytes"},
        }
    else:
        plain, _ = runner.timed_passes(args.seconds / 2)
        tracer.install(_program_modules(), [vars(workloads)])
        try:
            traced, pass_ids = runner.timed_passes(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = tracing.per_layer_metrics(
            tracer, setup_passes, pass_ids,
            pass_time(traced) - pass_time(plain))
    runner.check()
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _program_modules():
    from badicdim import (cli, core, estimators, exactmath, extract_assouad,
                          extract_lower, generators, geometry)
    return {"cli": cli, "core": core, "estimators": estimators,
            "exactmath": exactmath, "extract_assouad": extract_assouad,
            "extract_lower": extract_lower, "generators": generators,
            "geometry": geometry}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
