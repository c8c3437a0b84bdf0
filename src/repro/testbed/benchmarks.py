"""Synthetic HPC benchmark workload definitions.

The paper profiles standard HPC benchmarks and groups them into three
classes used as the model-database dimensions (plus network intensity,
which shows up in profiling but is folded into the class label):

* CPU intensive   -- HPL Linpack, FFTW
* memory intensive -- sysbench
* I/O intensive   -- b_eff_io (MPI-I/O), bonnie++

Each synthetic benchmark is described by its solo reference runtime,
its demand vector over the four subsystems, its resident RAM footprint
and its phase structure: a serial initialization phase (FFTW is noted
in the paper as "single thread, with long initialization phase")
followed by the contended work phase.  Only these signatures matter to
the allocation model; the actual numerical kernels are irrelevant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.common.errors import ConfigurationError
from repro.testbed.spec import SUBSYSTEMS, Subsystem


class WorkloadClass(str, enum.Enum):
    """Application profile classes -- the model database dimensions.

    The database key is the triple (Ncpu, Nmem, Nio); these are the
    three values a VM's profile can take after classification.
    """

    CPU = "cpu"
    MEM = "mem"
    IO = "io"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Deterministic iteration order matching the database key order.
WORKLOAD_CLASSES: tuple[WorkloadClass, ...] = (
    WorkloadClass.CPU,
    WorkloadClass.MEM,
    WorkloadClass.IO,
)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Signature of one synthetic benchmark workload (one VM, one process).

    Parameters
    ----------
    name:
        Identifier, e.g. ``"fftw"``.
    workload_class:
        The profile class the benchmark canonically represents.
    t_ref_s:
        Solo execution time on an otherwise idle reference server, in
        seconds (the paper's TC/TM/TI when the benchmark is canonical).
    serial_fraction:
        Fraction of ``t_ref_s`` spent in the uncontended initialization
        phase.  During this phase the subsystem demands are scaled by
        ``init_demand_scale`` and progress is not slowed by co-tenants.
    demands:
        Peak subsystem demand in capacity units (1.0 CPU = one core).
    ram_gb:
        Resident set size in GiB; drives the thrashing penalty.
    init_demand_scale:
        Demand multiplier applied during the initialization phase.
    """

    name: str
    workload_class: WorkloadClass
    t_ref_s: float
    serial_fraction: float
    demands: Mapping[Subsystem, float]
    ram_gb: float
    init_demand_scale: float = 0.2

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("benchmark name must be non-empty")
        if self.t_ref_s <= 0:
            raise ConfigurationError(f"t_ref_s must be positive, got {self.t_ref_s}")
        if not 0.0 <= self.serial_fraction < 1.0:
            raise ConfigurationError(
                f"serial_fraction must lie in [0, 1), got {self.serial_fraction}"
            )
        if self.ram_gb <= 0:
            raise ConfigurationError(f"ram_gb must be positive, got {self.ram_gb}")
        if not 0.0 <= self.init_demand_scale <= 1.0:
            raise ConfigurationError(
                f"init_demand_scale must lie in [0, 1], got {self.init_demand_scale}"
            )
        demands = dict(self.demands)
        for subsystem in SUBSYSTEMS:
            demands.setdefault(subsystem, 0.0)
            if demands[subsystem] < 0:
                raise ConfigurationError(
                    f"demand for {subsystem} must be >= 0, got {demands[subsystem]}"
                )
        if all(demands[s] == 0.0 for s in SUBSYSTEMS):
            raise ConfigurationError("benchmark must demand at least one subsystem")
        object.__setattr__(self, "demands", MappingProxyType(demands))

    def __hash__(self) -> int:
        # The generated __eq__ compares ``demands`` as a mapping, so
        # hash its items as a set: equal specs hash equal whatever the
        # insertion order of their demands.
        return hash(
            (
                self.name,
                self.workload_class,
                self.t_ref_s,
                self.serial_fraction,
                frozenset(self.demands.items()),
                self.ram_gb,
                self.init_demand_scale,
            )
        )

    def __reduce__(self):
        # A mappingproxy cannot be pickled or deep-copied; rebuild from
        # a plain dict, which __post_init__ wraps again.
        return (
            type(self),
            (self.name, self.workload_class, self.t_ref_s, self.serial_fraction,
             dict(self.demands), self.ram_gb, self.init_demand_scale),
        )

    def demand(self, subsystem: Subsystem) -> float:
        return self.demands[subsystem]

    @property
    def serial_time_s(self) -> float:
        """Duration of the initialization phase when run solo."""
        return self.t_ref_s * self.serial_fraction

    @property
    def work_time_s(self) -> float:
        """Duration of the contended work phase when run solo."""
        return self.t_ref_s * (1.0 - self.serial_fraction)


def _spec(
    name: str,
    cls: WorkloadClass,
    t_ref: float,
    serial: float,
    cpu: float,
    mem: float,
    disk: float,
    net: float,
    ram: float,
    init_scale: float = 0.2,
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        workload_class=cls,
        t_ref_s=t_ref,
        serial_fraction=serial,
        demands={
            Subsystem.CPU: cpu,
            Subsystem.MEMORY: mem,
            Subsystem.DISK: disk,
            Subsystem.NETWORK: net,
        },
        ram_gb=ram,
        init_demand_scale=init_scale,
    )


#: The synthetic benchmark suite, keyed by name.
#:
#: The canonical benchmarks per class (used for TC/TM/TI and the base
#: tests) are ``fftw`` (CPU), ``sysbench`` (MEM) and ``b_eff_io`` (IO);
#: the rest exist for profiling demonstrations and richer workloads.
BENCHMARKS: Mapping[str, BenchmarkSpec] = MappingProxyType(
    {
        # CPU intensive: FFTW "single thread, with long initialization
        # phase" -- the long serial phase is what creates the interior
        # optimum of Fig. 2.
        "fftw": _spec("fftw", WorkloadClass.CPU, 600.0, 0.35, 1.0, 0.25, 0.02, 0.0, 0.35),
        # CPU intensive: HPL Linpack, dense linear solve; short setup.
        "hpl": _spec("hpl", WorkloadClass.CPU, 900.0, 0.05, 1.0, 0.25, 0.02, 0.0, 0.50),
        # Memory intensive: sysbench database-style multi-threaded load.
        "sysbench": _spec("sysbench", WorkloadClass.MEM, 700.0, 0.05, 0.35, 0.85, 0.10, 0.0, 0.38),
        # I/O intensive: b_eff_io, an MPI-I/O benchmark (disk + some net).
        "b_eff_io": _spec("b_eff_io", WorkloadClass.IO, 800.0, 0.05, 0.15, 0.10, 0.90, 0.30, 0.22),
        # I/O intensive: bonnie++, hard-drive/file-system focused.
        "bonnie": _spec("bonnie", WorkloadClass.IO, 750.0, 0.03, 0.10, 0.08, 0.95, 0.0, 0.20),
        # CPU- cum network-intensive workload of Fig. 1 (right): an MPI
        # compute kernel exchanging boundary data.
        "mpi_compute": _spec("mpi_compute", WorkloadClass.CPU, 850.0, 0.08, 0.90, 0.20, 0.02, 0.60, 0.40),
    }
)

_CANONICAL: Mapping[WorkloadClass, str] = MappingProxyType(
    {
        WorkloadClass.CPU: "fftw",
        WorkloadClass.MEM: "sysbench",
        WorkloadClass.IO: "b_eff_io",
    }
)


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look a benchmark up by name.

    Raises
    ------
    KeyError
        With the list of known names, if ``name`` is unknown.
    """
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


def canonical_benchmark(workload_class: WorkloadClass) -> BenchmarkSpec:
    """The representative benchmark used for a class in base/combined tests."""
    if type(workload_class) is not WorkloadClass:
        workload_class = WorkloadClass(workload_class)
    return BENCHMARKS[_CANONICAL[workload_class]]
