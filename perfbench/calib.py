"""Machine-speed calibration for wall-clock timings.

On a shared host the CPU a run gets can change speed by tens of percent
for seconds at a time, as neighbouring work comes and goes.  A fixed
kernel that does not touch hamforge is timed between measured segments of
about ``EVERY`` seconds.  Each segment's timings are scaled by
``NOMINAL / k``, where k is the mean of the kernel times just before and
just after the segment.  Scaled times read as seconds on a machine where
the kernel takes ``NOMINAL`` seconds, so they move with the program and
much less with the host.  The kernel mixes the kinds of work hamforge
does: batched small-matrix LAPACK, elementwise transcendental functions
on large arrays, many small numpy calls, and plain interpreter loops.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL = 0.025     # seconds; about the kernel's time on an uncontended core
EVERY = 0.25        # seconds of measured work between kernel runs


class Kernel:
    """The calibration kernel; calling it returns the seconds it took."""

    def __init__(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((1000, 4, 4)) + 1j * rng.standard_normal((1000, 4, 4))
        self.h = h + h.conj().transpose(0, 2, 1)
        self.m = rng.standard_normal((3, 3))
        self.v = rng.standard_normal(3)
        self.x = rng.standard_normal(70_000)
        self()  # first call pays for lazy initialisation; not a sample

    def __call__(self) -> float:
        t0 = time.perf_counter()
        w, v = np.linalg.eigh(self.h)
        np.einsum("...ab,...b,...cb->...ac", v, np.exp(-1j * w), v.conj())
        for _ in range(2):
            np.exp(1j * self.x) * np.sinc(self.x) / (1j * (self.x + 2.0))
        y = self.v
        for _ in range(750):
            y = self.m @ y * 0.1 + self.v
        acc = 0.0
        for i in range(30_000):
            acc += (i % 7) * 0.5
        return time.perf_counter() - t0


class SegmentClock:
    """Collects operation times in segments separated by kernel runs.

    ``start`` opens a segment, ``op`` records one operation's seconds,
    ``pause`` closes the segment (busy time = start to pause, kernel time
    excluded) and returns the segment's scale factor.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.segments: list[tuple[list[float], float, float]] = []
        self.kernel_times: list[float] = []
        self._before = self._run_kernel()
        self._ops: list[float] = []
        self._start: float | None = None

    def _run_kernel(self) -> float:
        k = self.kernel()
        self.kernel_times.append(k)
        return k

    def start(self) -> None:
        self._start = time.perf_counter()

    def op(self, seconds: float) -> None:
        self._ops.append(seconds)

    def due(self) -> bool:
        return time.perf_counter() - self._start >= EVERY

    def pause(self) -> float:
        busy = time.perf_counter() - self._start
        after = self._run_kernel()
        factor = NOMINAL / (0.5 * (self._before + after))
        if self._ops:
            self.segments.append((self._ops, busy, factor))
        self._before, self._ops, self._start = after, [], None
        return factor

    # read-outs over the closed segments
    @property
    def ops(self) -> int:
        return sum(len(t) for t, _, _ in self.segments)

    def times(self, scaled: bool) -> list[float]:
        return [x * (f if scaled else 1.0) for t, _, f in self.segments for x in t]

    def busy(self, scaled: bool) -> float:
        return sum(b * (f if scaled else 1.0) for _, b, f in self.segments)
