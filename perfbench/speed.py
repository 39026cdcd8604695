"""Host speed relative to a fixed reference, so timings survive a drifting host.

The shared hosts this benchmark runs on change speed by up to 1.7x for
seconds at a time: a fixed pure-Python loop timed in 1-second windows over a
minute spread 30% between quartiles, and interpreted code slowed by the same
factor as the loop did.  Dividing a latency by the slowdown measured around
it, the reference unit's duration over its duration on an uncontended host,
reports the latency at the reference speed.

Interpreted code and numpy array arithmetic slow down by different factors,
so there are two reference units, and each workload names the one that
matches its hot path.  The numpy unit alone tracks sampling, whose time goes
to array arithmetic; the interpreted unit tracks the other workloads, even
high-order's large array transposes, better than the raw clock does.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

EVERY_S = 0.005  # sample the reference at most this often between checks
SMOOTHING_S = 0.05  # time constant of the smoothed slowdown
BURST = 20  # units timed before and after each child process


def _python_work() -> None:
    acc: dict = {}
    for i in range(1000):
        key = (i & 15, i % 7)
        acc[key] = acc.get(key, 0.0) + i * 0.5


@functools.cache
def _operands() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.exp(1j * np.arange(1 << 15))
    return a, a.copy(), np.empty_like(a)


def _numpy_work() -> None:
    # Writes into a preallocated array: a fresh one would time the allocator
    # and its page faults, which depend on what ran before.
    a, b, out = _operands()
    for _ in range(4):
        np.multiply(a, b, out=out)
        np.add(out, a, out=out)


@dataclass(frozen=True)
class Reference:
    name: str
    nominal_s: float  # duration of one unit on an uncontended baseline host
    work: Callable[[], None]

    def slowdown(self) -> float:
        start = time.perf_counter()
        self.work()
        return (time.perf_counter() - start) / self.nominal_s


PYTHON = Reference("python", 200e-6, _python_work)
NUMPY = Reference("numpy", 160e-6, _numpy_work)


class Gauge:
    """Slowdown smoothed over time, sampled at most every ``EVERY_S``; the
    time spent sampling accumulates in ``spent``.  Without a reference (for
    callers that do not time) the slowdown is 1."""

    def __init__(self, reference: Reference | None) -> None:
        self.reference = reference
        self.spent = 0.0
        self._value = 1.0
        self._last: float | None = None
        self._due = 0.0

    def read(self) -> float:
        start = time.perf_counter()
        if self.reference is None or start < self._due:
            return self._value
        sample = self.reference.slowdown()
        if self._last is None:
            self._value = sample
        else:
            weight = 1.0 - math.exp(-(start - self._last) / SMOOTHING_S)
            self._value += weight * (sample - self._value)
        self._last = start
        end = time.perf_counter()
        self.spent += end - start
        self._due = end + EVERY_S
        return self._value


def burst(reference: Reference) -> float:
    """Mean slowdown over ``BURST`` consecutive units."""
    return statistics.fmean(reference.slowdown() for _ in range(BURST))
