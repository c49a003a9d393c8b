"""Machine-speed gauge that scales the timed metrics to a reference speed.

The shared VM the baseline was measured on changes speed by up to 2x, in
phases lasting from seconds to minutes, because of load outside the guest
(see README, Noise). Such a phase slows everything that runs on one CPU of
the VM alike, while the other CPU may run at another speed; ``run.py``
therefore keeps the benchmark and its children on one CPU, and a fixed
piece of work timed there between items measures the speed the items ran
at. The gauge is that work: small and medium complex matrix products, a
Hermitian eigensolve, numpy calls from a Python loop and a pure-Python
loop, the mix the workloads themselves run. It is built from fixed inputs
here in the benchmark, never from ``bsqpt``, so a change to the package
cannot move it.

The timed loop reads the gauge between items, at least every ``EVERY_S``
seconds of item time, and scales each item time by ``REF_KERNEL_S`` over
the mean of the readings just before and just after it. Each set-up probe
is scaled the same way. A time so scaled is the time the item would take
on the reference machine at its quiet speed, where one gauge reading takes
``REF_KERNEL_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Median gauge reading on the reference machine (2 cores of an "Intel(R)
# Xeon(R) Processor" VM, Python 3.11.7, numpy 2.4.6, BLAS on one thread)
# over two quiet minutes. It only sets the scale: both sides of a comparison
# divide by it alike.
REF_KERNEL_S = 4.4e-3
EVERY_S = 0.1


class Gauge:
    """Times a fixed kernel; ``reading()`` is the best of two runs, in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20040513)
        self.a = rng.normal(size=(48, 48)) + 1j * rng.normal(size=(48, 48))
        self.small = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(16)]

    def _kernel(self) -> float:
        x = self.a
        for _ in range(20):
            x = self.a @ x
            x /= np.abs(x).max()
        np.linalg.eigvalsh(self.a + self.a.conj().T)
        acc = np.zeros((4, 4), dtype=complex)
        for a in self.small:
            for b in self.small:
                acc += a @ b.conj().T
        s = 0
        for i in range(10000):
            s += i * i % 7
        return float(np.abs(acc).sum()) + s

    def reading(self) -> float:
        """The kernel's time, best of two runs so that one preemption does not count."""
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best


def scale(*readings: float) -> float:
    """Factor taking a time measured over these gauge readings to the reference speed."""
    return REF_KERNEL_S * len(readings) / sum(readings)
