"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 1]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
with BENCHMARK.json's run_seconds. For each metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles over the median, next to the metric's
bound. The runs' records and results are saved to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("# record "))[len("# record "):])
    return {"record": record, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    worst = 0.0
    for workload in args.workload or names:
        started = time.perf_counter()
        runs[workload] = [
            run_once(workload, seed, bench["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        results = [r["result"] for r in runs[workload]]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs in {time.perf_counter() - started:.0f} s, "
              f"{failed} of {attempted} operations failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:15s} median {median:11.6g}  q1 {q1:11.6g}  q3 {q3:11.6g}  "
                  f"spread {spread:6.3f}  bound {bound:5.3f}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    out = HERE / "out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"runs saved to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
