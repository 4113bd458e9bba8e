"""How fast the host runs, from a fixed reference workload.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes: a run made in a slow stretch reads slow in every
metric, whatever the code.  A short reference burst, made between the
operations of a run, sees much of the same drift.  Operation times are
reported in *reference seconds*: each measured time is divided by the host
factor around it, the median time of the ``WINDOW`` bursts nearest to it
over ``REF_S``.  ``REF_S`` is the burst time of the
machine the benchmark was made on (a 2-vCPU Intel Xeon VM, Python 3.11,
numpy 2.4, scipy-openblas, one BLAS thread), so there a reference second is
about a second.

The burst does not call ndrank, so a change to ndrank moves the operation
times and not the factor.  It mixes, in about equal parts, what the
workloads spend their time on: interpreted Python, numpy calls on small
arrays, full-tensor arithmetic on a 30x25x20 array and small NNLS solves.

The factor is an estimate: a single 30 ms burst is itself noisy, so on a
quiet host the division adds a few percent of spread, while in a drifting
stretch it removes most of it.  In five-seed sets on the machine above the
largest spread of a time metric was 0.26 measured and 0.15 in reference
seconds.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np
from scipy.optimize import nnls

REF_S = 0.030  # median burst seconds on the machine the benchmark was made on
EVERY_S = 0.5  # operation seconds between bursts
WINDOW = 3  # bursts per local host factor


class HostSpeed:
    """Reference bursts interleaved with a run's operations."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random((8, 8))
        self._vecs = [rng.random(p) for p in (30, 25, 20)]
        self._A = rng.random((12, 8))
        self._b = rng.random(12)
        self.bursts = array("d")
        self.at = array("q")  # operations made before each burst
        self._ops = 0
        self._since = 0.0
        for _ in range(3):  # warm caches; not recorded
            self._burst()

    def _burst(self) -> float:
        t0 = time.perf_counter()
        acc, x = {}, self._small
        for i in range(36000):
            acc[i % 31] = acc.get(i % 31, 0) + i * i
        for _ in range(1000):
            x = np.maximum(x @ self._small - 0.5, 0.0)
            x /= 1.0 + float(x.max())
        a, b, c = self._vecs
        for _ in range(100):
            T = np.multiply.outer(np.multiply.outer(a, b), c)
            np.einsum("ijk,j,k->i", T - 0.5 * T, b, c)
        for _ in range(400):
            nnls(self._A, self._b)
        return time.perf_counter() - t0

    def tick(self, op_s: float) -> None:
        """Count an operation's seconds; burst once ``EVERY_S`` have passed."""
        self._ops += 1
        self._since += op_s
        if self._since >= EVERY_S:
            self._since = 0.0
            self.bursts.append(self._burst())
            self.at.append(self._ops)

    def reference_seconds(self, op_s) -> np.ndarray:
        """Each operation's seconds over the host factor around it.

        Operation i (counting from 1) is followed by the first burst with
        ``at >= i``; its factor is the median of the ``WINDOW`` bursts
        centred there.
        """
        while len(self.bursts) < WINDOW:
            self.bursts.append(self._burst())
            self.at.append(self._ops)
        b = np.frombuffer(self.bursts, dtype=float)
        medians = np.median(np.lib.stride_tricks.sliding_window_view(b, WINDOW), axis=1) / REF_S
        nearest = np.searchsorted(np.frombuffer(self.at, dtype=np.int64), np.arange(1, len(op_s) + 1))
        lo = np.clip(nearest - WINDOW // 2, 0, len(medians) - 1)
        return np.asarray(op_s, dtype=float) / medians[lo]

    def factor(self) -> float:
        """Median of all bursts over REF_S: above 1 on a slower host."""
        return statistics.median(self.bursts) / REF_S
