"""Time one set-up in a fresh interpreter; print raw and reference-speed seconds.

Set-up is the import of numpy and repgame plus resolving every input of the
workload once (game load, Nash solve, deviation construction). Usage:
``python3 perfbench/setup_probe.py WORK_DIR`` after run.py wrote the inputs.
"""
import sys
import time
from pathlib import Path

start = time.perf_counter()
import workloads  # noqa: E402  (standard library only)

workloads.use_source_tree()
import numpy  # noqa: E402,F401
import repgame  # noqa: E402,F401

workloads.resolve(Path(sys.argv[1]))
elapsed = time.perf_counter() - start
import calibrate  # noqa: E402

calibrator = calibrate.Calibrator()
factors = [calibrator.factor() for _ in range(calibrate.WINDOW)]
print(repr(elapsed), repr(elapsed * factors[-1]))
