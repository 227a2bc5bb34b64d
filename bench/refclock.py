"""A CPU clock that runs at a fixed reference speed.

On a shared virtual CPU the same code runs at speeds that differ by up to
2x, in spells that last seconds: on a 2-vCPU 2.1 GHz Xeon guest, a fixed
4 ms ``Fraction`` loop took 2.7 ms in some one-second spells and 5.5 ms in
others, in CPU time and wall time alike.  Two runs of the same code then
differ by whatever share of each fell into slow spells.

This clock takes that swing out.  Every ``INTERVAL`` seconds a ``SIGALRM``
handler runs ``reference_loop``, a fixed piece of ``Fraction`` arithmetic
from the standard library (the engine's own arithmetic), and takes the
current speed as ``NOMINAL`` over the median of the last ``WINDOW`` loop
times.  ``RefClock.now()`` advances by the process's CPU time, all
threads, scaled by that speed, so it counts reference seconds: seconds on
a core on which ``reference_loop`` takes ``NOMINAL`` seconds.  The
handler's own time is left out.  The timer is a wall-clock one because a CPU-time timer
(``ITIMER_PROF``) makes the process's CPU clock advance only at scheduler
ticks.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import process_time

#: Seconds between two speed samples.
INTERVAL = 0.025
#: Seconds ``reference_loop`` takes at the reference speed.
NOMINAL = 0.001
#: Speed samples a reading is the median of.
WINDOW = 3


def reference_loop() -> Fraction:
    """Fixed exact arithmetic: about 0.8 ms on a 2.1 GHz core at full speed."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
        if total.denominator > 10**30:
            total = Fraction(total.numerator % 1000, 7)
    return total


class RefClock:
    """Reference seconds, sampled while the clock is entered as a context
    manager; outside it ``now()`` runs at the last speed taken.  A process
    has one SIGALRM handler, so only one clock can sample at a time."""

    def __init__(self) -> None:
        self._base = 0.0
        self._at = process_time()
        self._factor = 1.0
        self._recent: list[float] = []
        self._busy = False
        self._previous = None
        self.samples = 0

    def now(self) -> float:
        """Reference seconds since the clock was made."""
        return self._base + (process_time() - self._at) * self._factor

    def __enter__(self) -> "RefClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> None:
        t0 = process_time()
        self._base += (t0 - self._at) * self._factor
        reference_loop()
        t1 = process_time()
        self._recent.append(t1 - t0)
        del self._recent[:-WINDOW]
        self._factor = NOMINAL / statistics.median(self._recent)
        self._at = t1
        self.samples += 1

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False
