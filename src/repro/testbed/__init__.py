"""Emulated benchmarking testbed.

This subpackage stands in for the paper's physical testbed -- Dell rack
servers (one quad-core Intel Xeon X3220, 4 GB RAM, two hard disks, two
1 GbE interfaces) running Xen 3.1, with power measured by a Watts Up?
.NET meter at 1 Hz.  The rest of the reproduction consumes the testbed
only through the per-mix measurement tuples (execution time, energy,
max power, EDP), which is exactly the interface this emulator provides.

Layering::

    spec.py        server/subsystem/power specifications
    benchmarks.py  synthetic HPC benchmark definitions (FFTW, HPL, ...)
    contention.py  multi-resource contention model (slowdowns)
    power.py       utilization-proportional power model
    meter.py       Watts Up?-style 1 Hz sampling power meter emulation
    runner.py      runs a VM mix on one emulated server (mini event loop)
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "Subsystem",
    "PowerSpec",
    "ServerSpec",
    "default_server",
    "WorkloadClass",
    "BenchmarkSpec",
    "BENCHMARKS",
    "get_benchmark",
    "canonical_benchmark",
    "ContentionParams",
    "MixModel",
    "instantaneous_power",
    "PowerMeter",
    "MeterReading",
    "VMInstance",
    "MixRunResult",
    "run_mix",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.testbed.spec": (
            "Subsystem",
            "PowerSpec",
            "ServerSpec",
            "default_server",
        ),
        "repro.testbed.benchmarks": (
            "WorkloadClass",
            "BenchmarkSpec",
            "BENCHMARKS",
            "get_benchmark",
            "canonical_benchmark",
        ),
        "repro.testbed.contention": ("ContentionParams", "MixModel"),
        "repro.testbed.power": ("instantaneous_power",),
        "repro.testbed.meter": ("PowerMeter", "MeterReading"),
        "repro.testbed.runner": ("VMInstance", "MixRunResult", "run_mix"),
    },
)
