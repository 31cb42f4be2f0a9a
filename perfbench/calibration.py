"""A fixed probe kernel that gauges the machine's current speed.

The benchmark's host is a shared VM whose speed drifts by a quarter or
more over minutes (other tenants contend for its cores and memory), so
raw wall times of the same code differ by more than the benchmark's
bounds from one run to the next.  Each run therefore times this kernel
right before and right after the workload and reports its times scaled
by ``REFERENCE_S`` over the kernel's mean time: the time the run would
have taken on the baseline machine at its usual speed.  Raw wall times
are kept beside the scaled ones in every record.

The kernel runs in a helper process of its own (``Probe``).  Linux
passes a process's peak RSS on to the children it starts, so a kernel
run in the driver would show up in every run's ``peak_rss_mb``.

The kernel uses only numpy and this file, never starifs, so a change to
the program cannot change it.  It makes chunked passes over a freshly
allocated 128 MB matrix (larger than the L3 cache) with fresh
temporaries, like the hypograph residual and the dense space build.  On
the baseline machine its time tracked the drift of all three workloads,
the oracle's per-word Python loop too, better than a kernel of
small-array numpy calls did.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median probe time on the baseline machine (see NOTES.md).
REFERENCE_S = 0.4
PASSES = 2

_LARGE = 4096
_CHUNK = 256


def _streaming():
    matrix = np.add.outer(np.linspace(0.0, 1.0, _LARGE), np.linspace(0.0, 1.0, _LARGE))
    levels = np.arange(_LARGE)
    worst = 0.0
    for start in range(0, _LARGE, _CHUNK):
        stop = start + _CHUNK
        gap = np.maximum(levels[start:stop, None] - levels[None, ::-1], 0) / _LARGE
        worst = max(worst, float(np.maximum(matrix[start:stop], gap).min(axis=1).max()))
    return worst


def probe_s():
    """Seconds one run of the probe kernel takes now."""
    start = time.perf_counter()
    for _ in range(PASSES):
        _streaming()
    return time.perf_counter() - start


class Probe:
    """The probe kernel in a helper process: ``with Probe() as p: p.time_s()``.

    The helper runs the kernel once per request line and answers with
    its time; leaving the ``with`` block closes its input and waits for
    it to exit.
    """

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def time_s(self):
        self._proc.stdin.write("probe\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(probe_s()), flush=True)
