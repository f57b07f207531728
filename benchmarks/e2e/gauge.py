"""Host speed gauge: a fixed reference loop timed while a workload runs.

The benchmark's host is a small virtual machine on a shared machine,
and its CPU speed moves with what the neighbours run.  On the 2-vCPU
Intel Xeon (2.1 GHz) VM the benchmark was defined on, ten 25-second
runs of one workload spread (interquartile range over median) by 8–23%
in throughput and median latency, up to twice the 10% regression bound;
within a run, the time of a fixed loop swung by a third from one
ten-second window to the next.

:class:`SpeedGauge` runs on a background thread of the workload process
and every :data:`INTERVAL_S` times :func:`reference`, a fixed loop of
256-bit modular exponentiation and small-object interpreter work (the
two kinds of work the program's hot paths are made of, in about equal
time), with :func:`time.thread_time`, so time the thread waits for the
interpreter lock or for the CPU is left out.  :meth:`SpeedGauge.slowdown`
is the host's slowdown over a time window, against the reference's
nominal time :data:`REFERENCE_S` on the defining host.  The workloads
divide every timing by the slowdown around it: the result reads as time
on that host at its nominal speed.  Over the same ten runs the spread
fell to 0.6–4%.  The reference calls no program code, so a change to the
program moves the scaled timings as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from fractions import Fraction
from typing import List

#: Seconds between two samples at nominal speed; each costs one
#: :func:`reference` call, about 3.5% of one CPU.  The pause stretches
#: with the last sample's slowdown, so the gauge takes the same share of
#: the CPU from the workload whatever the host's speed.
INTERVAL_S = 0.05
#: Median CPU seconds of 2000 :func:`reference` calls on the host the
#: benchmark was defined on (see the module docstring); the two halves
#: of the loop took 0.96 and 0.88 ms.
REFERENCE_S = 1.8e-3
#: The benchmark's pinned 256-bit safe prime (``inputs.P_256``).
_MODULUS = int(
    "1018899632155406837894638751842396378426563141714804843979959701573"
    "83394629547"
)


def reference() -> None:
    """A fixed amount of the two kinds of work the program does."""
    x = 4
    for step in range(5):
        x = pow(x, _MODULUS - 3 - step, _MODULUS)
    total = Fraction(0)
    digests = {}
    for i in range(1, 180):
        total += Fraction(i, i + 7)
        digests[i] = hashlib.sha256(i.to_bytes(4, "big")).digest()


class SpeedGauge:
    """Times :func:`reference` on a background thread until stopped."""

    def __init__(self) -> None:
        #: Sample times (:func:`time.monotonic`) and reference CPU seconds.
        self.times: List[float] = []
        self.seconds: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-gauge", daemon=True)

    def start(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        clock = time.thread_time
        pause = INTERVAL_S
        while not self._stop.wait(pause):
            started = clock()
            reference()
            elapsed = clock() - started
            pause = INTERVAL_S * elapsed / REFERENCE_S
            # Appended time last: a reader bisecting ``times`` only sees
            # samples whose seconds are already stored.
            self.seconds.append(elapsed)
            self.times.append(time.monotonic())

    def slowdown(self, start: float, end: float, margin: float = 0.0) -> float:
        """The host's slowdown against nominal over ``[start - margin,
        end + margin]`` (2.0: half the nominal speed); over every sample
        taken so far when none falls in the window."""
        low = bisect.bisect_left(self.times, start - margin)
        high = bisect.bisect_right(self.times, end + margin)
        window = self.seconds[low:high] or self.seconds[: len(self.times)]
        if not window:
            return 1.0
        return sum(window) / len(window) / REFERENCE_S
