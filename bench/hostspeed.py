"""Host speed, sampled while the workload runs, so timings can be scaled to
a fixed reference speed.

The benchmark shares a few cores of a host with other tenants, and the speed
of pure-Python code on it swings by up to 2x within seconds (a fixed loop
reads anywhere from 8 to 12 ms, on either core).  A raw timing then says more
about the neighbours than about the engine.  So every measured run also times
``kernel``, a fixed piece of interpreter work that never changes with the
engine, every ``PERIOD_S`` seconds, from a timer signal, including in the
middle of long ops.  An op's latency is scaled by ``REFERENCE_S`` over the
median kernel time sampled during it (and one period either side): the result
is the op's latency in seconds on a host where the kernel takes
``REFERENCE_S``.  A faster engine still reads faster; a slower neighbour
reads the same.

``kernel`` mixes the operations the engine spends its time in: frozen
dataclasses with validation, tuple-keyed dict caches, ``Fraction`` and small
integer arithmetic, sorting and string formatting.  Kernels of one kind alone
track the host's swings less well: an integer loop slows 1.4x when the engine
slows 1.5x, an allocation loop 1.9x.

The signal handler only runs the kernel on its own objects; its time is
excluded from the op's latency (``busy``).  Python retries system calls a
signal interrupts (PEP 475), so file I/O in the CLI ops is unaffected.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

PERIOD_S = 0.04
# median kernel time on the 2-vCPU Xeon VM the benchmark was defined on, in
# its fast phases; only sets the unit of the scaled timings
REFERENCE_S = 0.0006


@dataclass(frozen=True)
class _Span:
    lo: int
    hi: int | None

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise ValueError(self)


def _h0(n: int, t: int) -> int:
    return comb(n + t, n) if t >= 0 else 0


def kernel():
    """A fixed amount of engine-like interpreter work (about 1 ms)."""
    cache = {}
    acc = Fraction(0)
    for a, b in ((1, 1), (1, 2)):
        for s, t in product(range(-1, 4), repeat=2):
            key = (a, b, (s, t))
            mid = cache.get(key)
            if mid is None:
                x = _h0(a, s) * _h0(b, t)
                mid = cache[key] = _Span(x, x)
            left = _Span(_h0(a, s - 1) * _h0(b, t), None)
            right = _Span(max(0, mid.lo - (left.hi or 0)), mid.hi)
            acc += Fraction(right.lo + 1, mid.lo + 1)
            cache[("r", a, b, s, t)] = tuple(sorted((left, mid, right), key=lambda z: (z.lo, z.hi or 0)))
    n = 0
    for i in range(1500):
        n += i * i % 7
    counts = {}
    for i in range(300):
        k = (i % 31, i % 17)
        counts[k] = counts.get(k, 0) + 1
    for i in range(1, 12):
        acc += Fraction(i, i + 1)
    labels = sorted(f"{i}..{i + 1}" for i in range(200))
    return acc, n, len(counts), labels[0]


def kernel_time() -> float:
    s = time.perf_counter()
    kernel()
    return time.perf_counter() - s


class Sampler:
    """Times ``kernel`` every ``PERIOD_S`` of non-handler time from SIGALRM."""

    def __init__(self):
        for _ in range(20):  # warm up: first calls pay for lazy imports and allocation
            kernel()
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0  # total handler time

    def _sample(self, *_):
        s = time.perf_counter()
        kernel()
        e = time.perf_counter()
        self.at.append(s)
        self.took.append(e - s)
        self.busy += time.perf_counter() - s
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        self._on = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()

    def stop(self):
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, spans, latencies) -> list[float]:
        """Each op's latency at reference speed; ``spans`` are (start, end)."""
        out = []
        for (s, e), lat in zip(spans, latencies):
            i = bisect.bisect_left(self.at, s - PERIOD_S)
            j = bisect.bisect_right(self.at, e + PERIOD_S)
            if i == j:  # the signal came late (a long C call): the samples either side
                i, j = max(0, i - 1), i + 1
            out.append(lat * REFERENCE_S / statistics.median(self.took[i:j]))
        return out
