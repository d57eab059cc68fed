"""Machine-speed calibration: a fixed kernel timed around every CLI call.

A shared host can switch between fast and slow phases that last from
seconds to over a minute and slow every kind of work by 25-50%. A phase can
cover a whole run, so no statistic over one run's passes removes it. Each
worker therefore times this kernel just before and just after its CLI call,
and `run.py` scales the call's wall time to reference seconds:

    wall_ref = wall_s * REFERENCE_S / calib_s

where calib_s is the mean of the two kernel times. The kernel does not use
`arrr`, so a change to the program cannot move it. It mixes the three kinds
of work the program does, in about equal parts: a pure-Python loop, thin
SVDs through LAPACK, and 17-digit CSV formatting and parsing.
"""

import io
import statistics
import time

import numpy as np

# Kernel time that defines one reference second: about its time on an idle
# 2-vCPU Intel Xeon with one BLAS thread.
REFERENCE_S = 0.020


def _python_loop() -> int:
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def _kernel(a: np.ndarray) -> float:
    start = time.perf_counter()
    _python_loop()
    for _ in range(4):
        np.linalg.svd(a, full_matrices=False)
    text = "\n".join(",".join("%.17g" % v for v in row) for row in a[:60])
    np.loadtxt(io.StringIO(text), delimiter=",")
    return time.perf_counter() - start


def calibrate() -> float:
    """Median wall time of three runs of the kernel, in seconds. The median
    drops the first run's one-off costs in a fresh process."""
    a = np.random.default_rng(0).standard_normal((150, 100))
    return statistics.median(_kernel(a) for _ in range(3))
