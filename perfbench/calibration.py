"""Machine-speed calibration: a fixed kernel timed between repetitions.

On a shared host the same single-threaded code runs at speeds that differ by
up to 1.5x from one minute to the next, often uniformly over tens of
seconds, with CPU time rising as much as wall time (a loaded core, not
descheduling).  Raw times of one run then say more about the neighbours than
about the program: between 34-second runs of the same input, the median
repetition varied by 25% and even the fastest one by 30%.  The kernel below,
whose work never changes, slows down with the program: timed after every
repetition, its mean over a run measures the machine's speed during that run.

Every time the benchmark reports is scaled to the speed at which the kernel
takes REFERENCE_S: ``t * REFERENCE_S / mean(kernel time)``.  Means, not
medians: the kernel samples (~0.1 s) are much shorter than a repetition
(~1 s), so their median and a repetition's time weigh short slow spells
differently, while the two means both integrate the same slowdown.  The
kernel is the benchmark's own code (dense LAPACK on small matrices, a sparse
product, a complex matmul and a pure-Python loop, the program's mix), so a
change to the program moves the scaled times and never the scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse

# The kernel's time on an unloaded core of the 2-core Xeon guest the bounds
# were set on; it only fixes the unit, so scaled times read as seconds there.
REFERENCE_S = 0.06


class Calibration:
    """Times of the calibration kernel over one run (wall and CPU, seconds)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((36, 36))
        self._h = a + a.T
        self._c = rng.standard_normal((108, 108)) + 1j * rng.standard_normal((108, 108))
        idx = rng.integers(0, 4096, size=(2, 33000))
        self._s = scipy.sparse.csr_matrix((rng.standard_normal(33000), (idx[0], idx[1])), shape=(4096, 4096))
        self._v = rng.standard_normal(4096)
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def sample(self):
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(200):
            np.linalg.eigh(self._h)
            np.linalg.norm(self._h, 2)
        for _ in range(200):
            self._s @ self._v
        for _ in range(50):
            self._c @ self._c
        x = 0
        for i in range(100000):
            x += i * i
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)

    def wall_scale(self) -> float:
        """Factor taking a wall time of this run to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.walls)

    def cpu_scale(self) -> float:
        """Factor taking a CPU time of this run to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.cpus)
