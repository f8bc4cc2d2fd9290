"""Host-speed calibration for timed calls.

The shared VM this benchmark was built on (2 vCPUs, 2.1 GHz Xeon) changes
speed by up to 1.7x within seconds, in CPU time as well as wall time, so
the host and not the program sets most of the spread of raw timings. A
``CalibratedClock`` therefore runs a short fixed kernel before and after
each timed call, and every ``TICK_S`` during it from a SIGALRM handler,
and rescales the call's own time to a host on which the kernel takes
``NOMINAL_KERNEL_S``. A change to the program moves the call and not the
kernel, so it shows in full.
"""

import signal
from time import perf_counter

NOMINAL_KERNEL_S = 0.0003  # about the kernel's median on the VM named above
TICK_S = 0.02
BRACKET_RUNS = 8


def kernel_s() -> float:
    """Wall time of a fixed bytecode, float and formatting kernel.

    It allocates no objects the cyclic garbage collector tracks, so running
    it inside a call does not shift the call's collections.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(2000):
        x = i * 0.5
        acc += x * x
        if not i % 4:
            repr(x)
    return perf_counter() - t0


class CalibratedClock:
    def __init__(self) -> None:
        self._during: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._during.append(kernel_s())

    def time(self, fn):
        """Run ``fn``; return (its result, its wall seconds, its calibrated seconds).

        Both times exclude the kernel runs that interrupted it.
        """
        samples = [kernel_s() for _ in range(BRACKET_RUNS)]
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        own = elapsed - sum(self._during)
        samples += self._during + [kernel_s() for _ in range(BRACKET_RUNS)]
        return result, own, own * NOMINAL_KERNEL_S * len(samples) / sum(samples)
