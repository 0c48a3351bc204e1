"""Reference speed: scale measured times to a fixed machine speed.

Shared machines switch between speed states that last seconds (on a
shared 2-vCPU x86_64 machine, one fixed computation took either about
70 ms or about 112 ms, in phases of 3 to 20 s).  A run of
ten or twenty seconds catches these states in varying proportions, so raw
times of identical work spread by about 20% from run to run.

A fixed pure-Python kernel timed between CLI calls slows down
in the same states: over one minute of such phases the ratio of call time
to kernel time stayed within 3%.  So the benchmark reports times at
reference speed, raw time * REFERENCE_MS / (kernel time around the call),
and keeps the raw times in its results file.  The kernel uses only the
standard library, so no change to the program can change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# kernel time that defines reference speed (about the fast state above)
REFERENCE_MS = 5.0
# kernel samples around a call that set its scale factor
WINDOW = 5
# a new kernel sample is taken before a call once this much call time has
# passed since the last one; speed states last seconds, so this is dense
# enough and keeps the kernel's own cost to a few percent of a run
SAMPLE_EVERY_MS = 100


def _kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 700):
        f = Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(i % 5, 11)
        acc += f
        table[(i, i % 7)] = f.numerator
    return acc, len(table)


def kernel_ms() -> float:
    """Time of one kernel run in ms, with the garbage collector held off so
    the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _kernel()
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def factors(kernel_samples):
    """Per-sample scale factor REFERENCE_MS / (median of the WINDOW kernel
    samples centred on it)."""
    n = len(kernel_samples)
    half = WINDOW // 2
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - WINDOW))
        window = kernel_samples[lo:lo + WINDOW]
        out.append(REFERENCE_MS / statistics.median(window))
    return out
