"""Fig. 1: sub-system utilization over time.

Left panel: a CPU-intensive workload (high CPU, negligible disk and
network); right panel: a CPU- cum network-intensive workload (high CPU
*and* network).  The experiment profiles the corresponding synthetic
benchmarks solo and returns their sampled traces plus classifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.testbed.benchmarks import get_benchmark
from repro.testbed.spec import ServerSpec

if TYPE_CHECKING:
    from repro.profiling.profiler import ProfileReport


@dataclass(frozen=True)
class Fig1Result:
    """The two panels of Fig. 1."""

    cpu_intensive: ProfileReport
    cpu_network_intensive: ProfileReport

    def series(self) -> dict[str, list[tuple[float, float, float, float, float]]]:
        """{panel: [(t, cpu, mem, disk, net), ...]} for plotting/printing."""
        return {
            "cpu_intensive": self.cpu_intensive.trace.as_rows(),
            "cpu_network_intensive": self.cpu_network_intensive.trace.as_rows(),
        }


def fig1_profiles(
    server: ServerSpec | None = None,
    sample_period_s: float = 1.0,
) -> Fig1Result:
    """Profile the two Fig. 1 workloads and return their traces.

    The left panel uses ``fftw`` (pure CPU-intensive), the right panel
    ``mpi_compute`` (CPU + network).  Assertion-worthy properties (the
    tests check them): the left trace is CPU-intensive only, the right
    one is intensive on both CPU and network.
    """
    # Imported here: the experiments package re-exports this module, and
    # commands that never profile should not load the profiler.
    from repro.profiling.profiler import ApplicationProfiler

    profiler = ApplicationProfiler(server=server, sample_period_s=sample_period_s)
    return Fig1Result(
        cpu_intensive=profiler.profile(get_benchmark("fftw")),
        cpu_network_intensive=profiler.profile(get_benchmark("mpi_compute")),
    )
