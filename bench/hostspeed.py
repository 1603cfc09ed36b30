"""A fixed reference computation that tracks the host's current speed.

The benchmark's host is a share of a larger machine; the speed of each of
its CPUs switches between a fast and a slow state within seconds, and the
share of slow time drifts over minutes (user time stays equal to wall
time, so this is not waiting for a processor).  A run that lands in a slow
minute reads slow on every item.  The benchmark therefore times
``reference`` between items, on every CPU in turn, and scales item times
by ``(NOMINAL_S / t) ** SENSITIVITY``, where ``t`` is the mean reference
time around them: the time at the host speed on which the reference takes
``NOMINAL_S``.

The reference uses no chdisc code, so a change to the program does not
move it; it runs the same kind of work as chdisc's hot paths (interpreted
loops over Hermitian forms of complex 3-vectors with small numpy calls).
It is slowed more than the workloads are: when it takes twice as long,
they take about 1.7 times as long, hence ``SENSITIVITY``.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: About the median time of ``reference`` on a 2-vCPU 2.1 GHz VM (Python
#: 3.11.7, numpy 2.4.6); normalised times are given at that speed.
NOMINAL_S = 0.05

#: Exponent of the reference's slowdown that the workloads see.  Over two
#: sets of ten seeds of each workload, the largest spread of normalised
#: throughput between runs of a set was 0.13 with exponent 1, 0.11 with
#: 0.5 and 0.09 with 0.75 (unscaled 0.17).
SENSITIVITY = 0.75

_J = np.diag([1.0, 1.0, -1.0]).astype(complex)
_VECTORS = np.random.default_rng(1).normal(size=(64, 3, 2)) @ np.array([1.0, 1j])
_STEPS = 10000


def reference() -> float:
    """Run the reference computation once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(_STEPS):
        u, v = _VECTORS[i & 63], _VECTORS[(i * 7) & 63]
        h = np.vdot(v, _J @ u)
        acc += abs(h) + np.sqrt(abs(h.real) + 1.0)
        if i % 16 == 0:
            acc += np.linalg.det(np.column_stack([u, v, u + v]).real + np.eye(3))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference computation lost its value")
    return elapsed


class Sampler:
    """Runs of ``reference``, each on the next of the process's CPUs in turn.

    A workload's threads may run on any of the CPUs, which change speed
    independently, so every CPU is sampled.  Each run is pinned to its CPU
    and the process's CPU set is restored after it.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.turn = 0

    def sample(self, budget: float) -> list:
        """Reference times in seconds, run once and then until ``budget`` is spent."""
        times = []
        while not times or sum(times) < budget:
            times.append(self._run())
        return times

    def _run(self) -> float:
        if not self.cpus:
            return reference()
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1
        try:
            return reference()
        finally:
            os.sched_setaffinity(0, self.cpus)
