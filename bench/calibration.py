"""Machine-speed calibration: a fixed numpy kernel timed between rounds.

The shared 2-core machine this benchmark was built on changes speed by up
to 75% over minutes as other tenants load it: in one 150 s trace the median
time of an 8-step pretraining call went from 1.07 s to 0.61 s. Every
wall-clock figure moves with it. A fixed kernel, timed before and after each
set-up and each round, moves with the machine too. Each interval's seconds
are scaled by REF_S over the faster of its two bracketing kernel timings:
the time the work would take on a machine where the kernel takes REF_S (a
quiet reference machine gives a factor of about 1). Taking the faster timing
keeps one slow kernel timing from rescaling a round the machine ran at full
speed; a slow phase shows in both timings.

Measured on that machine with two sets of ten 30 s runs per workload: the
run medians of round time spread (inter-quartile range over median) by
5-15% scaled against 8-21% unscaled, and between the sets the scaled medians
moved by at most 8.5% against up to 18.5% unscaled. The kernel is more
sensitive than the workloads to other tenants' load, so scaling can also
widen a set's spread (once from 8% to 15%).

The kernel is the benchmark's own code, not the program's, so a change to
maskvid cannot move it. It mixes the kinds of work a maskvid step does:
float32 GEMMs of token-by-width shapes, elementwise work on a (4, 200, 1536)
batch, an exp over attention-sized scores, and interpreter-bound dictionary
work. Its outputs are preallocated, so it takes no page faults.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference machine (2 cores, OpenBLAS 0.3.31, one
# BLAS thread) while it was quiet.
REF_S = 0.078
REPEATS = 12


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((800, 1536)).astype(np.float32)
        self.w = rng.standard_normal((1536, 64)).astype(np.float32)
        self.a = rng.standard_normal((4, 200, 1536)).astype(np.float32)
        self.s = rng.standard_normal((4, 4, 200, 200)).astype(np.float32) * 0.1
        self.y = np.empty((800, 64), dtype=np.float32)
        self.z = np.empty((800, 1536), dtype=np.float32)
        self.b = np.empty_like(self.a)
        self.e = np.empty_like(self.s)

        self.times = [self.measure()]

    def scale(self) -> float:
        """Reference seconds per measured second since the previous call."""
        self.times.append(self.measure())
        return REF_S / min(self.times[-2:])

    def measure(self) -> float:
        """Seconds for REPEATS passes of the kernel; outputs are preallocated."""
        t = time.perf_counter()
        for _ in range(REPEATS):
            np.matmul(self.x, self.w, out=self.y)
            np.matmul(self.y, self.w.T, out=self.z)
            np.multiply(self.a, self.a, out=self.b)
            np.subtract(self.b, self.z.reshape(self.a.shape), out=self.b)
            np.exp(self.s, out=self.e)
            counts: dict = {}
            for i in range(1500):
                counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - t
