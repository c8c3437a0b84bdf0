"""Table II records: the rows of the model database.

| Field     | Description                                        |
|-----------|----------------------------------------------------|
| Ncpu      | #VMs running a CPU-intensive benchmark             |
| Nmem      | #VMs running a Memory-intensive benchmark          |
| Nio       | #VMs running an I/O-intensive benchmark            |
| Time      | Total execution time of the outcome (seconds)      |
| avgTimeVM | Average execution time for each VM (Time / N)      |
| Energy    | Energy consumed to run the outcome (Joules)        |
| MaxPower  | Maximum power dissipation measured (Watts)         |
| EDP       | Energy Delay Product (Joules x seconds)            |
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.quantities import energy_delay_product
from repro.testbed.benchmarks import WorkloadClass

#: The database search key: (Ncpu, Nmem, Nio).  The paper sorts the
#: registers ascending by this composite key and binary-searches it.
MixKey = tuple[int, int, int]


def total_vms(key: MixKey) -> int:
    """Ncpu + Nmem + Nio."""
    return key[0] + key[1] + key[2]


def key_of_counts(ncpu: int, nmem: int, nio: int) -> MixKey:
    """Validate and build a mix key."""
    for name, value in (("ncpu", ncpu), ("nmem", nmem), ("nio", nio)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if ncpu + nmem + nio == 0:
        raise ValueError("a mix must contain at least one VM")
    return (ncpu, nmem, nio)


def key_for_classes(classes: "list[WorkloadClass]") -> MixKey:
    """Count workload classes into a mix key (at least one VM)."""
    ncpu = nmem = nio = 0
    for c in classes:
        if c is WorkloadClass.CPU:
            ncpu += 1
        elif c is WorkloadClass.MEM:
            nmem += 1
        elif c is WorkloadClass.IO:
            nio += 1
    if ncpu + nmem + nio == 0:
        raise ValueError("a mix must contain at least one VM")
    return (ncpu, nmem, nio)


@dataclass(frozen=True, order=True)
class BenchmarkRecord:
    """One measured (or estimated) row of the model database.

    Ordered by the (ncpu, nmem, nio) key first, which gives the sorted
    layout the binary search relies on for free.
    """

    ncpu: int
    nmem: int
    nio: int
    time_s: float
    avg_time_vm_s: float
    energy_j: float
    max_power_w: float
    edp: float

    def __post_init__(self) -> None:
        key_of_counts(self.ncpu, self.nmem, self.nio)
        for name in ("time_s", "avg_time_vm_s", "energy_j", "max_power_w", "edp"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    @property
    def key(self) -> MixKey:
        return (self.ncpu, self.nmem, self.nio)

    @property
    def n_vms(self) -> int:
        return self.ncpu + self.nmem + self.nio

    @property
    def avg_power_w(self) -> float:
        """Mean power over the run; what the simulator charges per second."""
        if self.time_s == 0:
            return 0.0
        return self.energy_j / self.time_s

    @classmethod
    def from_measurement(
        cls,
        key: MixKey,
        time_s: float,
        energy_j: float,
        max_power_w: float,
    ) -> "BenchmarkRecord":
        """Build a record from raw measurements, deriving the two
        computed columns (avgTimeVM and EDP) the way Table II defines
        them."""
        n = total_vms(key)
        if n == 0:
            raise ValueError("record must describe at least one VM")
        return cls(
            ncpu=key[0],
            nmem=key[1],
            nio=key[2],
            time_s=float(time_s),
            avg_time_vm_s=float(time_s) / n,
            energy_j=float(energy_j),
            max_power_w=float(max_power_w),
            edp=energy_delay_product(energy_j, time_s),
        )
