"""Hardware performance-counter emulation.

The paper patched the 2.6.18 kernel with perfctr and instrumented the
applications with PAPI; because the Xeon X3220 "does not support total
memory LD/ST counter", they "counted the number of L2 cache misses,
which indicates (approximately) the activity of memory".

This module emulates that observable: given a benchmark's demand
signature and the sampled utilization trace, it synthesizes counter
samples (instructions retired, L2 misses, I/O requests, packets) whose
*rates* are consistent with the underlying subsystem activity.  The
classifier can then work either from OS-level utilizations or from
counter rates -- the same redundancy the paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.profiling.traces import UtilizationTrace
from repro.testbed.benchmarks import BenchmarkSpec
from repro.testbed.spec import Subsystem

#: Nominal peak event rates for the emulated Xeon X3220-class machine.
#: Values are per-second at 100% utilization of the relevant subsystem.
_PEAK_INSTRUCTIONS_PER_S = 2.4e9  # one core's retirement rate
_PEAK_L2_MISSES_PER_S = 4.0e7  # memory-bound workload miss rate
_PEAK_IO_REQUESTS_PER_S = 2.0e4  # HDD-era request rate
_PEAK_PACKETS_PER_S = 8.0e4  # GbE packet rate


@dataclass(frozen=True)
class CounterSample:
    """One sampling interval's worth of counter deltas."""

    t_s: float
    instructions: float
    l2_misses: float
    io_requests: float
    packets: float


def emulate_counters(
    trace: UtilizationTrace,
    benchmark: BenchmarkSpec,
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[CounterSample]:
    """Synthesize performance-counter samples for a profiled run.

    Event rates follow the sampled utilizations: instructions track CPU
    utilization, L2 misses track memory-subsystem utilization (scaled
    by how memory-hungry the benchmark's signature is), I/O requests
    track disk utilization, packets track network utilization.

    Parameters
    ----------
    trace:
        The sampled utilization trace of the run.
    benchmark:
        The benchmark that produced the trace (its demand signature
        shapes the counter mix, like real codes do).
    jitter:
        Optional relative Gaussian jitter on each sample (counters are
        noisy in practice); 0 disables.
    rng:
        Generator for the jitter stream (required if ``jitter > 0``).
    """
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if jitter > 0 and rng is None:
        raise ValueError("jitter > 0 requires an rng")

    if len(trace) < 2:
        return []
    period = float(trace.times_s[1] - trace.times_s[0])

    # Memory-hunger of the signature relative to its CPU demand governs
    # how many L2 misses a unit of memory-subsystem utilization implies.
    mem_weight = min(1.0, benchmark.demand(Subsystem.MEMORY) / max(benchmark.demand(Subsystem.CPU), 0.05))

    samples: list[CounterSample] = []
    for i, t in enumerate(trace.times_s):
        cpu = float(trace.utilization[Subsystem.CPU][i])
        mem = float(trace.utilization[Subsystem.MEMORY][i])
        disk = float(trace.utilization[Subsystem.DISK][i])
        net = float(trace.utilization[Subsystem.NETWORK][i])
        values = np.array(
            [
                cpu * _PEAK_INSTRUCTIONS_PER_S * period,
                mem * max(mem_weight, 0.1) * _PEAK_L2_MISSES_PER_S * period,
                disk * _PEAK_IO_REQUESTS_PER_S * period,
                net * _PEAK_PACKETS_PER_S * period,
            ]
        )
        if jitter > 0:
            assert rng is not None
            values = np.maximum(0.0, values * rng.normal(1.0, jitter, size=4))
        samples.append(
            CounterSample(
                t_s=float(t),
                instructions=float(values[0]),
                l2_misses=float(values[1]),
                io_requests=float(values[2]),
                packets=float(values[3]),
            )
        )
    return samples
