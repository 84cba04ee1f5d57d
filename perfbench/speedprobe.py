"""Measures how fast the current CPU runs while a window of work is timed.

On the 2-vCPU virtual machine on a shared host where the benchmark's
figures were taken, each vCPU switches every few hundred milliseconds
between a fast state and one about 1.5 times slower, and the share of
slow time drifts over tens of seconds.  Raw wall times of the same code
then spread by 10-50% from run to run, which no number of repetitions
averages out (README.md, "Noise").
"""

import os
import threading
import time


class SpeedProbe:
    """The probe pins the process to one CPU and, from a thread on that CPU,
    times a fixed piece of big-integer arithmetic (the kind mpmath's python
    backend does) every PERIOD_S, interleaved with the work being timed.
    `scale(t0, t1)` is REFERENCE_S over the mean probe time in the window;
    a wall time multiplied by it is the time at reference speed.  It
    imports no module of spinl or mpmath, so it can start before the timed
    import.
    """

    PERIOD_S = 0.005
    MIN_SAMPLES = 3
    REFERENCE_S = 6.0e-5  # the probe's typical time on that machine

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.samples = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @staticmethod
    def _work() -> int:
        man = 3**84
        for i in range(200):
            man = man * 0x1C71C71C71C71C71C71C71C71C71C71C7 + i
            man >>= man.bit_length() - 133
        return man

    def _run(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            self._work()
            self.samples.append((t0, time.perf_counter() - t0))
            self._stop.wait(self.PERIOD_S)

    def scale(self, t0: float, t1: float) -> float:
        samples = list(self.samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        if len(inside) < self.MIN_SAMPLES:  # a short window: the nearest ones
            mid = (t0 + t1) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[: self.MIN_SAMPLES]]
        return self.REFERENCE_S / (sum(inside) / len(inside))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
