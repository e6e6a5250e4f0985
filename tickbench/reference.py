"""Host-speed reference for the end-to-end times.

On a shared host the speed of a (virtual) CPU moves by a third and more
within minutes: a fixed pure-Python loop, timed in 5-second bins over
three minutes of one process, took 32.5 to 53.8 ms, with CPU time
tracking wall time, so the vCPU ran, only slower.  The program's tick
times move with it, so the same code on the same seed read up to 40%
apart a few minutes later, far beyond any bound that could catch a
regression.

The benchmark therefore times a fixed kernel right after every set-up and
every tick, outside their timed regions, and reports each time at the
kernel's nominal speed: a tick's latency is multiplied by
``NOMINAL_S`` over the median of the kernel samples taken around it.
The raw times stay in the run record.

The kernel walks a shuffled index over preallocated floats and a small
dict: interpreter dispatch, attribute-free indexing and dict lookups,
like the program's inner loops.  Its working set (~130 KB) stays in the
CPU's own caches, and a first untimed pass reloads it after a tick has
evicted it, so the kernel's time follows the CPU's speed, not the cache
footprint the program left behind.  It allocates nothing the garbage
collector tracks, so it never triggers a collection of the program's
heap.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array
from typing import List, Sequence

#: The kernel's time at the reference speed: about its time in the fast
#: phases of the host the benchmark was sized on (Intel Xeon, 2 vCPUs;
#: 0.7-0.9 ms in its slow ones).  A unit, not a target.
NOMINAL_S = 0.5e-3
#: Kernel samples on each side of a tick whose median scales that tick.
HALF_WINDOW = 2
_SIZE = 2048
_MASK = 1023
#: Timed passes over the index per sample, after one untimed pass.
_PASSES = 3


class Reference:
    """The kernel, and its timed samples in the order they were taken."""

    def __init__(self, seed: int = 0):
        rng = random.Random(seed)
        self._order = list(range(_SIZE))
        rng.shuffle(self._order)
        self._values = [rng.random() for _ in range(_SIZE)]
        self._table = {i: float(i) for i in range(_MASK + 1)}
        self.samples = array("d")

    def sample(self) -> float:
        """Time the kernel once; returns the sample."""
        self._walk()
        start = time.perf_counter()
        for _ in range(_PASSES):
            self._walk()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _walk(self) -> float:
        values, table = self._values, self._table
        acc = 0.0
        for i in self._order:
            acc += values[i] * table[i & _MASK]
        return acc


def scale_each(times: Sequence[float], samples: Sequence[float]) -> List[float]:
    """``times[i]`` at the nominal speed, ``samples[i]`` being the kernel
    sample taken right after it: each is scaled by the median of the
    samples within ``HALF_WINDOW`` of its own."""
    n = len(samples)
    out = []
    for i, t in enumerate(times):
        window = samples[max(0, i - HALF_WINDOW): min(n, i + HALF_WINDOW + 1)]
        out.append(t * NOMINAL_S / statistics.median(window))
    return out
