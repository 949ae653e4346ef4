"""A fixed reference kernel, timed just before every benchmark call, so that
each call's time can be stated as a multiple of the host's current speed.

On a shared host the speed of the whole machine can switch between levels
about 1.35x apart for seconds to minutes at a time (other tenants' load; the
benchmark's CPU time equals its wall time, so it is not being descheduled).
A call's wall time divided by the kernel's time around it cancels most of
that drift. Any change in the package's own work still moves the ratio in
full, since the kernel runs no package code.
"""
from __future__ import annotations

import time

import numpy as np

# Reference times within this many seconds of a call's start are pooled
# (median) into that call's local reference.
WINDOW_S = 2.0


class HostProbe:
    """Times the reference kernel and keeps every (start, duration) pair."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(192, 192))
        self._b = rng.normal(size=(4, 64, 32, 32))
        self.reset()

    def reset(self):
        self.starts: list[float] = []
        self.took: list[float] = []

    def _kernel(self) -> int:
        """About 2 ms of the kinds of work a forward or train step does: an
        interpreted loop, a BLAS matmul and elementwise passes over 2 MB."""
        s = 0
        for i in range(2000):
            s += i * i
        self._a @ self._a
        np.maximum(self._b * 0.5 + 1.0, 0.0).sum(axis=(2, 3))
        return s

    def warm_up(self, n: int = 20):
        for _ in range(n):
            self._kernel()

    def measure(self):
        t0 = time.perf_counter()
        self._kernel()
        self.took.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def local(self, call_starts) -> np.ndarray:
        """Median kernel time within WINDOW_S of each call start. Calls
        follow a measurement, so no window is empty."""
        starts, took = np.asarray(self.starts), np.asarray(self.took)
        t = np.asarray(call_starts, dtype=float)
        lo = np.searchsorted(starts, t - WINDOW_S, side="left")
        hi = np.searchsorted(starts, t + WINDOW_S, side="right")
        return np.array([np.median(took[a:b]) for a, b in zip(lo, hi)])
