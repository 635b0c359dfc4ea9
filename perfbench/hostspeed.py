"""Host-speed calibration for wall-time measurements on shared machines.

On a shared host the same deterministic work can take up to ~1.6x longer for
stretches of ten seconds or more while other tenants load the machine, and
CPU time slows down with wall time, so neither clock alone is steady.  The
benchmark therefore samples the host's current speed with a fixed
pure-Python calibration loop, timed in thread CPU time (so time the
sampling process spends descheduled does not count).

It samples at every operation boundary and every `PERIOD_S` inside
operations, from a SIGALRM handler.  Times taken inside operations read
`HostSpeed.clock`, which stops while the sampler runs, so no sample is
charged to the operation or to the layer it interrupted.  The loop runs with
the garbage collector off, so the program's heap does not slow it down.

An operation's *calibrated time* is its wall time (minus the time spent in
the sampler) scaled by the mean of `REFERENCE_S / sample` over the samples
taken from its start to its end: the wall time it would have taken at the
reference speed.  On the reference machine at full speed the scale is
about 1.
"""

from __future__ import annotations

import gc
import hashlib
import signal
from time import perf_counter, thread_time

# Thread-CPU time of one calibration loop on a shared 2-vCPU Intel Xeon VM
# (Python 3.11.7) at full speed; only fixes the unit, not the comparison.
REFERENCE_S = 0.00075
PERIOD_S = 0.1


def _loop() -> int:
    """Dict and tuple traffic like the interpreter's, plus a SHA-256 of a
    repr like `Machine.digest`'s."""
    table = {j: (j, 0) for j in range(64)}
    acc = 0
    for i in range(3000):
        table[i & 63] = (i, acc)
        acc += table[(i * 7) & 63][0] & 0xFF
        if i & 255 == 0:
            text = repr(tuple(table.values())).encode()
            acc += hashlib.sha256(text).digest()[0]
    return acc


def calibration_s() -> float:
    """Thread-CPU seconds of one calibration loop right now, averaged over
    three runs.  (The fastest of three tracked the host worse: the slowdown
    comes in bursts shorter than a millisecond, whose average is what an
    operation pays.)"""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = thread_time()
        for _ in range(3):
            _loop()
        return (thread_time() - c0) / 3
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    return sum(REFERENCE_S / s for s in samples) / len(samples)


class HostSpeed:
    """Speed samples in time order, plus the wall time spent taking them."""

    def __init__(self):
        self.samples: list[float] = []
        self.sampler_s = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return          # an alarm during a boundary sample
        self._busy = True
        t0 = perf_counter()
        self.samples.append(calibration_s())
        self.sampler_s += perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """Wall time in seconds, less the time spent in the sampler.  Read
        again if a sample landed between the two reads."""
        while True:
            spent = self.sampler_s
            now = perf_counter()
            if spent == self.sampler_s:
                return now - spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
