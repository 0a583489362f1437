"""repgame benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: anytime_type1, anytime_gap, batch_payoff, reference_paths (see
workloads.py for why each was chosen). BENCHMARK.json lists only
anytime_type1 and reference_paths: at this commit repgame writes numpy-2
floats into rows.csv as ``np.float64(...)``, so every operation of
anytime_gap and batch_payoff fails its output check. They stay runnable here
and report those failures. The seed fixes the inputs; the same seed gives
the same inputs.

A run sets up (timed in fresh interpreters, median of SETUP_PROBES), warms up
with one untimed cycle of operations, then runs whole cycles until the
operations' summed wall time reaches S seconds. An operation is one
``repgame run spec.json`` through ``repgame.cli.main`` (Monte Carlo
workloads) or one library call (reference_paths). Each operation's output is
checked outside the timed region; a failed check counts the operation as
failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
reps_per_s, op_s.p50, op_s.p90, cpu_ms_per_rep, setup_s, peak_rss_mb. Every
timing in them is at reference machine speed (see calibrate.py); the raw
timings are in the run record. The share of failed operations is the
result's failed / attempted. With ``--trace 1`` each operation runs untraced
and then traced, and the last line holds the per-layer metrics of
tracing.LAYER_METRICS (raw timings); spans are written to perfbench/out/.
Lines before the last one, starting with ``#``, give the run record
(versions, worker count, raw timings, failures) in readable form.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads
from workloads import ROOT, BenchmarkError

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
UNITS = {
    "reps_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "cpu_ms_per_rep": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def probe_setup(work_dir: Path) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(work_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        raw, adjusted = proc.stdout.split()[-2:]
        samples.append((float(raw), float(adjusted)))
    return samples


class Tally:
    """Operation samples, CPU time, replications and failures of a run.

    ``seconds`` and ``cpu_s`` are raw; ``adjusted`` and ``cpu_adjusted_s``
    are at reference speed, scaled by a calibration right after each
    operation.
    """

    def __init__(self, calibrator: calibrate.Calibrator):
        self.calibrator = calibrator
        self.seconds = []
        self.adjusted = []
        self.by_label = {}
        self.cpu_s = 0.0
        self.cpu_adjusted_s = 0.0
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op) -> float:
        """Reset, time, and check one operation; returns its wall seconds."""
        op.reset()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        factor = self.calibrator.factor()
        self.seconds.append(elapsed)
        self.adjusted.append(elapsed * factor)
        self.cpu_s += cpu
        self.cpu_adjusted_s += cpu * factor
        self.by_label.setdefault(op.label, []).append(elapsed)
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
            if not self.problems:
                traceback.print_exception(error, file=sys.stderr)
        else:
            problems = op.check(result)
            if op.completed(result):
                self.reps += op.reps
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{op.label}: {problems[0]}")
        return elapsed


def timings(tally: Tally, seconds: list, cpu_s: float, setup: list) -> dict:
    return {
        "reps_per_s": tally.reps / sum(seconds),
        "op_s.p50": percentile(seconds, 0.5),
        "op_s.p90": percentile(seconds, 0.9),
        "cpu_ms_per_rep": cpu_s * 1e3 / max(tally.reps, 1),
        "setup_s": statistics.median(setup),
    }


def end_to_end(tally: Tally, setup_samples: list) -> dict:
    values = timings(tally, tally.adjusted, tally.cpu_adjusted_s,
                     [adjusted for _, adjusted in setup_samples])
    # ru_maxrss is in KiB on Linux.
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def traced_run(ops, seconds: float, tally: Tally, workers: int, spans_path: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    untraced = traced = 0.0
    count = 0
    while untraced + traced < seconds:
        for op in ops:
            untraced += tally.run(op)
            tracer.install()
            try:
                traced += tally.run(op)
            finally:
                tracer.uninstall()
            count += 1
    tracer.write_spans(spans_path)
    if tracer.missing:
        print(f"# not traced (missing): {', '.join(tracer.missing)}")
    print(f"# spans kept {tracer.kept_spans}, dropped {tracer.dropped_spans}, "
          f"written to {spans_path.relative_to(ROOT)}")
    return tracing.layer_metrics(tracer, count, workers, traced, untraced)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.use_source_tree()
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workloads.make_inputs(args.workload, args.seed, work_dir)
        setup_samples = probe_setup(work_dir)
        import numpy
        import repgame

        if not Path(repgame.__file__).resolve().is_relative_to(workloads.SRC):
            raise BenchmarkError(f"repgame imported from {repgame.__file__}, not {workloads.SRC}")
        workers = workloads.WORKERS[args.workload]
        os.environ["REPGAME_WORKERS"] = str(workers)
        ops = workloads.operations(args.workload, workloads.resolve(work_dir))
        calibrator = calibrate.Calibrator()
        warmup = Tally(calibrator)
        for op in ops:
            warmup.run(op)
        tally = Tally(calibrator)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-s{args.seed}.csv"
            metrics = traced_run(ops, args.seconds, tally, workers, spans_path)
        else:
            while sum(tally.seconds) < args.seconds:
                for op in ops:
                    tally.run(op)
            metrics = end_to_end(tally, setup_samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "REPGAME_WORKERS": workers,
        "operations": tally.attempted,
        "replications": tally.reps,
        "failed_frac": tally.failed / tally.attempted,
        "op_s_median_by_label": {label: statistics.median(seconds)
                                 for label, seconds in tally.by_label.items()},
        "first_failures": tally.problems,
        "raw": timings(tally, tally.seconds, tally.cpu_s, [raw for raw, _ in setup_samples]),
        "speed_factor_median": statistics.median(
            a / r for a, r in zip(tally.adjusted, tally.seconds)),
    }
    print("# record " + json.dumps(record))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_frac = {record['failed_frac']:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
