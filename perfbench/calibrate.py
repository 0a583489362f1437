"""Machine-speed calibration for the benchmark's timings.

The cores of a shared host run slower or faster as other tenants' load
changes; on a shared 2-core 2.1 GHz virtual machine the speed drifted by
about 40 % peak to peak over tens of seconds, with numpy and pure-Python
code slowing together. Raw times of two 20 s runs therefore differ by more
than any useful regression bound. A fixed kernel of both kinds of code,
timed right after every operation, measures that drift, and each timing is
reported at reference speed: ``seconds * REFERENCE_S / t``, where ``t`` is
the median kernel time of the last WINDOW passes. This follows single-
threaded work closely; the speed of a run with two worker threads drifts in
ways it does not follow.

The kernel is timed with the calling thread's CPU clock, so CPU work that
the program under test leaves running in other threads or processes does
not make the kernel look slow and the program look fast.
"""
from __future__ import annotations

import collections
import statistics
import time

import numpy as np

# Kernel thread-CPU seconds at reference speed (an idle core of the 2.1 GHz
# 2-core machine the benchmark was defined on).
REFERENCE_S = 0.007
# Kernel timings the factor is the median of; the drift is slow, and the
# median discards the rare pass the thread clock misreads.
WINDOW = 5
_STREAM = np.random.default_rng(0).integers(0, 2, 100_000)


def kernel_seconds() -> float:
    """Thread CPU seconds of one pass of the calibration kernel.

    A pure-Python loop plus the e-process arithmetic on a 1e5-round stream,
    so both interpreter speed and memory-bound numpy speed are sampled.
    """
    start = time.thread_time()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    n = _STREAM.size
    one_hot = np.zeros((n, 2))
    one_hot[np.arange(n), _STREAM] = 1.0
    before = np.cumsum(one_hot, axis=0) - one_hot
    np.cumsum(np.log((before[np.arange(n), _STREAM] + 1.0) / (np.arange(n) + 2.0)))
    return time.thread_time() - start


class Calibrator:
    """Speed factor from the median of the last WINDOW kernel passes."""

    def __init__(self):
        self.recent = collections.deque(maxlen=WINDOW)

    def factor(self) -> float:
        """Run one kernel pass; REFERENCE_S over the window's median time."""
        self.recent.append(kernel_seconds())
        return REFERENCE_S / statistics.median(self.recent)
