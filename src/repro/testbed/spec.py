"""Server, subsystem and power specifications for the emulated testbed.

The reference configuration mirrors the paper's benchmarking hardware:
a general-purpose rack server with one quad-core Intel Xeon X3220,
4 GB of memory, two hard disks and two 1 Gb Ethernet interfaces, and a
fixed 125 W power draw for a powered-on server (the figure the paper's
simulation assumes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.common.errors import ConfigurationError


class Subsystem(str, enum.Enum):
    """The four server subsystems the paper profiles along.

    "...the application's resource utilization requirements along
    multiple dimensions, i.e., CPU, memory, disk I/O, and network
    subsystems."
    """

    CPU = "cpu"
    MEMORY = "memory"
    DISK = "disk"
    NETWORK = "network"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Deterministic iteration order used throughout the library.
SUBSYSTEMS: tuple[Subsystem, ...] = (
    Subsystem.CPU,
    Subsystem.MEMORY,
    Subsystem.DISK,
    Subsystem.NETWORK,
)


@dataclass(frozen=True)
class PowerSpec:
    """Power model parameters for one server.

    ``P(t) = idle_w + sum_s dynamic_w[s] * min(1, load_s(t)) + per_vm_w * n_active``

    The idle draw matches the paper's fixed 125 W assumption for a
    powered-on server; the dynamic terms are utilization-proportional
    per subsystem (CPU dominating, as on the Xeon X3220 class of
    hardware), and ``per_vm_w`` models the small per-guest hypervisor
    overhead draw.
    """

    idle_w: float = 125.0
    dynamic_w: Mapping[Subsystem, float] = field(
        default_factory=lambda: {
            Subsystem.CPU: 80.0,
            Subsystem.MEMORY: 25.0,
            Subsystem.DISK: 15.0,
            Subsystem.NETWORK: 10.0,
        }
    )
    per_vm_w: float = 1.0

    def __post_init__(self) -> None:
        if self.idle_w < 0:
            raise ConfigurationError(f"idle_w must be >= 0, got {self.idle_w}")
        if self.per_vm_w < 0:
            raise ConfigurationError(f"per_vm_w must be >= 0, got {self.per_vm_w}")
        for subsystem in SUBSYSTEMS:
            if subsystem not in self.dynamic_w:
                raise ConfigurationError(f"dynamic_w missing subsystem {subsystem!r}")
            if self.dynamic_w[subsystem] < 0:
                raise ConfigurationError(
                    f"dynamic_w[{subsystem}] must be >= 0, got {self.dynamic_w[subsystem]}"
                )


@dataclass(frozen=True)
class ServerSpec:
    """Capacity description of one emulated physical server.

    Capacities are expressed in "demand units": a CPU capacity of 4.0
    means four cores, and a single-threaded CPU-bound benchmark demands
    1.0; memory/disk/network capacities are normalized so that 1.0 is
    the bandwidth one fully intensive workload of that class consumes.

    ``ram_gb`` is the physical memory; ``reserved_ram_gb`` is what the
    hypervisor and dom0 keep for themselves (Xen dom0 on the paper's
    testbed), so the thrashing threshold of the contention model is
    ``ram_gb - reserved_ram_gb``.
    """

    name: str = "dell-x3220"
    capacities: Mapping[Subsystem, float] = field(
        default_factory=lambda: {
            Subsystem.CPU: 4.0,  # quad-core Xeon X3220
            Subsystem.MEMORY: 2.0,  # aggregate memory bandwidth headroom
            Subsystem.DISK: 2.0,  # two hard disks
            Subsystem.NETWORK: 2.0,  # two 1 GbE interfaces
        }
    )
    ram_gb: float = 4.0
    reserved_ram_gb: float = 0.7
    #: Hypervisor guest limit.  The paper's *base tests* sweep up to 16
    #: VMs, but the combined-test grid corner OSC+OSM+OSI can exceed
    #: that, and Xen happily hosts more guests (they just thrash).
    max_vms: int = 24
    power: PowerSpec = field(default_factory=PowerSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("server name must be non-empty")
        for subsystem in SUBSYSTEMS:
            if subsystem not in self.capacities:
                raise ConfigurationError(f"capacities missing subsystem {subsystem!r}")
            if self.capacities[subsystem] <= 0:
                raise ConfigurationError(
                    f"capacity for {subsystem} must be positive, "
                    f"got {self.capacities[subsystem]}"
                )
        if self.ram_gb <= 0:
            raise ConfigurationError(f"ram_gb must be positive, got {self.ram_gb}")
        if not 0 <= self.reserved_ram_gb < self.ram_gb:
            raise ConfigurationError(
                f"reserved_ram_gb must lie in [0, ram_gb), got {self.reserved_ram_gb}"
            )
        if self.max_vms < 1:
            raise ConfigurationError(f"max_vms must be >= 1, got {self.max_vms}")

    @property
    def usable_ram_gb(self) -> float:
        """RAM available to guests before swap thrashing sets in."""
        return self.ram_gb - self.reserved_ram_gb

    def capacity(self, subsystem: Subsystem) -> float:
        return self.capacities[subsystem]


def default_server(name: str = "dell-x3220") -> ServerSpec:
    """The reference testbed server (paper Sect. III-B)."""
    return ServerSpec(name=name)
