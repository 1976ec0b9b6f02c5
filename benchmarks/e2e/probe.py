"""A fixed unit of NumPy work that tells how fast the machine runs right now.

A shared virtual machine does not run at one speed.  On the 2-vCPU VMs
this benchmark was sized on, each vCPU switches between a fast and a slow
state (about 1.5x apart) every few seconds to minutes, because other
tenants load the host; thread CPU time slows by the same factor, so
neither wall nor CPU time hides it.  Unscaled, that drift alone spread
the throughput of ten 16 s offline-float runs by 27 % (quartile distance
over median).

The benchmark therefore times this probe next to the workload and scales
each timing by ``REFERENCE_MS / probe``: a timing reads as if the probe
had taken :data:`REFERENCE_MS`.  The probe is benchmark code (NumPy
only, nothing from ``src/``), so no change to the program moves it; it
mixes the kinds of work the workloads do — a small float32 GEMM,
elementwise ufuncs over about a hundred KiB, a table gather and an
interpreter loop.

Because the two vCPUs change state independently, the probe must run on
the vCPU that does the work: each workload's compute (the offline loop,
the engine's worker thread, the shard process) is pinned to one vCPU and
everything else (load generation, dispatch) to another (:func:`cpus`).
"""

from __future__ import annotations

import os
import time

import numpy as np

__all__ = ["REFERENCE_MS", "Probe", "cpus", "pin"]

#: Probe unit time the scaled timings refer to: about the median unit
#: time on the 2-vCPU VM the benchmark was sized on, so that scaled
#: and unscaled timings there read alike.
REFERENCE_MS = 0.12


def cpus() -> tuple[int, int]:
    """``(compute, client)`` vCPUs; the same one on a single-vCPU machine."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


def pin(cpu: int, tid: int = 0) -> None:
    """Run thread ``tid`` (0: the calling thread) on ``cpu`` only."""
    os.sched_setaffinity(tid, {cpu})


class Probe:
    """Times bursts of a fixed unit of work."""

    def __init__(self, clock=time.perf_counter):
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((128, 64)).astype(np.float32)
        self._b = rng.standard_normal((64, 128)).astype(np.float32)
        self._x = rng.standard_normal((4, 64, 48))
        self._table = np.linspace(-1.0, 1.0, 4)
        self.clock = clock

    def unit(self) -> float:
        y = self._a @ self._b
        z = np.exp(np.clip(y, -5.0, 5.0))
        q = np.rint(self._x / 0.05)
        slot = (q > 0).astype(np.int64) * 2 + (np.abs(q) < 10)
        v = self._table[slot] * q
        total = 0.0
        for i in range(64):
            total += float(v[i % 4, i, 0])
        return float(z[0, 0]) + total

    def burst(self, units: int = 3, cpu: int | None = None) -> float:
        """Median seconds per unit over ``units`` back-to-back units, on
        ``cpu`` when given (the calling thread moves there and back)."""
        if cpu is not None:
            home = os.sched_getaffinity(0)
            pin(cpu)
        try:
            times = []
            for _ in range(units):
                start = self.clock()
                self.unit()
                times.append(self.clock() - start)
        finally:
            if cpu is not None:
                os.sched_setaffinity(0, home)
        return float(np.median(times))

    @staticmethod
    def scale(probe_s: float) -> float:
        """Factor that turns a timing taken at probe speed ``probe_s``
        into one at the reference speed."""
        return REFERENCE_MS / 1e3 / probe_s
