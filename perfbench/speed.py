"""Host-speed sampler: the yardstick that makes timings comparable.

The benchmark's host is a shared virtual machine whose CPU speed swings
by up to 2x within seconds, as neighbours load the physical cores: the
same program phase measured 5.5 s and 9.4 s minutes apart, and a fixed
loop alternates between two speeds 1.7x apart.  Raw times from such a
host cannot show a 10% change.

So every timed process also times a fixed pure-Python probe
(:func:`probe`, ~0.4 ms) on a ``SIGALRM`` interval timer, in the same
process, on the same CPU, during the same phase.  The probe's trimmed
mean time says how fast the host ran while the phase ran, and
:func:`factor` turns it into the scale that converts measured seconds
into *reference seconds*: the time the phase would have taken on a
host where the probe takes :data:`REFERENCE_PROBE_S`.  The probe costs
a constant ~2% of the phase, which every run pays alike.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: The probe's time on the reference host (its fast state, measured on
#: the 2-vCPU Xeon VM the benchmark was written on).
REFERENCE_PROBE_S = 350e-6
INTERVAL_S = 0.025


def probe() -> float:
    """Run the fixed probe once and return how long it took."""
    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(400):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (acc % 1000.0, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0] * 1.0001
    return time.perf_counter() - started


class SpeedSampler:
    """Times :func:`probe` every :data:`INTERVAL_S` in the main thread."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def take(self) -> list[float]:
        """The samples since the last call (the timer keeps running)."""
        samples, self.samples = self.samples, []
        return samples

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.take()


def factor(samples: "list[float]") -> float:
    """Measured seconds times this are reference seconds.

    The 10%-trimmed mean drops probes that a page fault or a garbage
    collection happened to hit.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut : len(ordered) - cut] or ordered
    if not kept:
        raise ValueError("no speed samples: the phase was too short to sample")
    return REFERENCE_PROBE_S / statistics.fmean(kept)
