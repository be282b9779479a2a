"""Host-speed normalisation of wall times.

The reference box is a 2-vCPU virtual machine on a shared host.  Other
tenants slow it by up to 2x in phases that last from seconds to minutes, so
raw wall times of the same unit spread by 40% and more across runs.  A
fixed reference kernel timed just before and just after each measured span
tracks that slowdown: for a span of `dt` seconds,

    normalised = dt * REFERENCE_KERNEL_S / mean(kernel before, kernel after)

estimates the span's time on the uncontended reference box.  The kernel
mimics the engine's hot path (deques of packets, list scans for queue
lengths, a top-k pick per hop, small NumPy calls per period) and uses no
ncsim code, so a change to ncsim changes the normalised time by the same
factor as the raw time.  On the reference box the ratio of an L=44 or L=4
engine.run() to the kernel held within 2-3% (IQR over 30 s windows) while
the raw time swung 1.9x.
"""

from __future__ import annotations

import os
from collections import deque
from time import perf_counter

import numpy as np

# The kernel's size, and its time on the uncontended reference box (fast end
# of its range); the time holds only for this size.
KERNEL_LOOPS = 44
KERNEL_PERIODS = 24
KERNEL_SLOTS = 10
REFERENCE_KERNEL_S = 0.0070

_KNOTS = np.linspace(0.0, 200.0, 64)
_VALUES = np.sqrt(_KNOTS)


def reference_kernel() -> float:
    """Seconds taken by a fixed back-pressure-like workload."""
    loops = KERNEL_LOOPS
    rng = np.random.default_rng(0)
    chains = [(deque(), deque()) for _ in range(loops)]
    err = np.zeros(loops)
    t0 = perf_counter()
    for m in range(KERNEL_PERIODS):
        src = np.array([len(chain[0]) for chain in chains], dtype=float)
        thr = np.interp(0.8 * src, _KNOTS, _VALUES)
        err = 0.9 * err + rng.normal(0.0, 1.0, loops)
        for i in np.flatnonzero(np.abs(err) > thr):
            chains[i][0].append((m, float(err[i])))
        for _ in range(KERNEL_SLOTS):
            lens = [[len(q) for q in chain] for chain in chains]
            for pos in (0, 1):
                cand = [(lens[i][pos] - (lens[i][1] if pos == 0 else 0), i)
                        for i in range(loops) if lens[i][pos] > 0]
                cand = sorted((c for c in cand if c[0] > 0), reverse=True)
                for _, i in cand[:2]:
                    item = chains[i][pos].popleft()
                    if pos == 0:
                        chains[i][1].append(item)
    return perf_counter() - t0


class HostSpeed:
    """Times spans and scales them by the kernel's speed on the CPUs that run them.

    A single-process workload pins the process to one CPU, so the kernel
    runs where the span ran.  The sweep's pool spreads over every CPU, so
    there the kernel runs once on each, pinned in turn, and the mean counts;
    the affinity is restored before the span starts.
    """

    def __init__(self, cpus):
        self.cpus = tuple(cpus)

    def kernel_s(self) -> float:
        if len(self.cpus) == 1:
            return reference_kernel()
        mask = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(reference_kernel())
        finally:
            os.sched_setaffinity(0, mask)
        return sum(times) / len(times)

    def timed(self, fn, *args, **kwargs):
        """Run fn; return (result, raw seconds, scale), where raw * scale is normalised."""
        before = self.kernel_s()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t0
        after = self.kernel_s()
        return result, raw, REFERENCE_KERNEL_S / (0.5 * (before + after))
