"""The machine's speed while a round runs, for scaling the round's CPU times.

On a shared host the same round's CPU time moves by up to 1.7x within one
run: work outside the process, most likely on the same physical core,
slows every instruction for spells of a second to minutes, and CPU time
counts the slowdown because the process still holds its core. A run of tens of seconds cannot average
that out. So the benchmark runs a fixed reference kernel, frozen in this
file and independent of the program, right before every planner call and
every other agent call outside one, and around every set-up. It scales
each stretch of the program's CPU time by how much slower the kernel ran
there than REFERENCE_S. Scaled times read as CPU seconds at this machine's
usual speed; a change to the program moves them as it moves raw CPU time.
"""

from __future__ import annotations

from time import process_time

import numpy as np

# CPU seconds of one timed kernel run, about its median when run alone on an
# Intel Xeon at 2.1 GHz with 2 shared vCPUs: near 25e-6 in fast spells and
# 50e-6 in slow ones
REFERENCE_S = 43e-6
HALF_WINDOW = 15        # the slowdown at a sample is the median of 31 samples

_A = np.linspace(0.0, 1.0, 100).reshape(10, 10)


def reference_kernel() -> float:
    """Fixed work shaped like a decision: small numpy products, then a
    greedy pass over their entries with Python sets and comparisons."""
    taken: set[int] = set()
    total = 0.0
    for i in range(10):
        row = _A[i] @ _A
        best = -1
        for j in range(10):
            if j not in taken and (best < 0 or row[j] > row[best]):
                best = j
        taken.add(best)
        total += float(row[best])
    return total


class Gauge:
    """Samples of the reference kernel: (process time at the start, at the
    end, CPU seconds of the timed run)."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        """Run the kernel twice and time the second run: the first refills
        the caches the program's work evicted, which would otherwise make
        the kernel's time depend on what the program did just before."""
        begin = process_time()
        reference_kernel()
        c0 = process_time()
        reference_kernel()
        end = process_time()
        self.marks.append((begin, end, end - c0))

    def median_slowdown(self, lo: int = 0, hi: int | None = None) -> float:
        """Slowdown against REFERENCE_S over samples lo to hi."""
        return float(np.median([m[2] for m in self.marks[lo:hi]])) / REFERENCE_S

    def slowdown(self) -> np.ndarray:
        """Slowdown against REFERENCE_S at each sample: the median of the
        sample times within HALF_WINDOW samples either side."""
        d = np.array([m[2] for m in self.marks])
        padded = np.pad(d, HALF_WINDOW, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * HALF_WINDOW + 1)
        return np.median(windows, axis=1) / REFERENCE_S

    def scaled_cpu(self, start: float, end: float) -> float:
        """CPU seconds of the program from process time start to end, less
        the samples, each stretch scaled by the slowdown at the sample
        that closes it (the last stretch by the last sample)."""
        if not self.marks:
            raise RuntimeError("no speed sample in the interval")
        slow = self.slowdown()
        total, last = 0.0, start
        for (sample_begin, sample_end, _), s in zip(self.marks, slow):
            total += (sample_begin - last) / s
            last = sample_end
        return total + (end - last) / slow[-1]

