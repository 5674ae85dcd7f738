"""Machine-speed sampling for the timing metrics.

On a shared virtual machine the speed of a core drifts by a quarter or more
over tens of seconds, and each core drifts on its own; process CPU time
drifts along with wall time. Raw times of the same code therefore differ
that much between runs. So the process that does a measured op also times a
fixed reference computation (an exact rational 8x8 matrix product, the same
kind of work as the package's, and a small-integer loop): a SIGALRM handler
runs it every PAUSE_S seconds, in the op's own thread, between two bytecodes
of the op. The
handler's time is taken out of the op's time, and the run scales its times
by NOMINAL_MS / (median reference time): they read as they would on a
machine where one reference sample takes NOMINAL_MS milliseconds.

The reference is the benchmark's own code, so a change to the package moves
the scaled times and a change in machine speed does not.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_MS = 8.0   # about one sample on a quiet core of the machine the benchmark was written on
PAUSE_S = 0.2      # a sample every 0.2 s keeps the handler under 5 % of the op's time

_rng = random.Random(0)
_A = [[Fraction(_rng.randint(-10 ** 6, 10 ** 6), _rng.randint(1, 10 ** 3)) for _ in range(8)]
      for _ in range(8)]


def reference() -> None:
    """An exact rational 8x8 matrix product and a small-integer loop, about
    half the time each: over repeated cold `verify` ops the loop tracked the
    op's speed best, over `eval_rational` windows the product did."""
    [[sum(_A[i][k] * _A[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
    total = 0
    for i in range(40000):
        total += i * i % 7


class SpeedSampler:
    """Runs the reference from a SIGALRM handler between start() and stop().

    `handler_s` is the wall time spent in the handler, which the caller
    subtracts from the time of the work it measures."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self.handler_s = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples_ms.append((t1 - t0) * 1e3)
        self.handler_s += time.perf_counter() - t0

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PAUSE_S, PAUSE_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def to_json(self) -> dict:
        return {"samples_ms": self.samples_ms, "handler_s": self.handler_s}


def scale(samples_ms: list[float]) -> float:
    """Factor that turns a time measured alongside these samples into a nominal-speed time."""
    return NOMINAL_MS / statistics.median(samples_ms)
