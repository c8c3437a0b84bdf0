"""Extraction of the optimal-scenario parameters (paper Table I).

From the base-test curves we obtain, per workload class X in
{C(PU), M(emory), I(/O)}:

* ``OSPx`` -- #VMs minimizing the *average execution time per VM*
  (the performance-optimal scenario),
* ``OSEx`` -- #VMs minimizing the *energy per VM* (the energy-optimal
  scenario),
* ``Tx``   -- the reference runtime of a single VM of class X,

and the combined-test grid bound ``OSx = max(OSPx, OSEx)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import WORKLOAD_CLASSES, WorkloadClass

if TYPE_CHECKING:
    from repro.campaign.base_tests import BaseTestPoint


@dataclass(frozen=True)
class ClassOptima:
    """Table I column for one workload class."""

    workload_class: WorkloadClass
    osp: int  # #VMs that optimize performance
    ose: int  # #VMs that optimize energy
    t_single_s: float  # run time of a single test on 1 VM

    def __post_init__(self) -> None:
        if self.osp < 1:
            raise ConfigurationError(f"osp must be >= 1, got {self.osp}")
        if self.ose < 1:
            raise ConfigurationError(f"ose must be >= 1, got {self.ose}")
        if self.t_single_s <= 0:
            raise ConfigurationError(f"t_single_s must be positive, got {self.t_single_s}")

    @property
    def os_bound(self) -> int:
        """OSx = max(OSPx, OSEx), the combined-test grid limit."""
        return max(self.osp, self.ose)


@dataclass(frozen=True)
class OptimalScenarios:
    """The full Table I: per-class optima plus convenience accessors."""

    per_class: Mapping[WorkloadClass, ClassOptima]

    def __post_init__(self) -> None:
        for workload_class in WORKLOAD_CLASSES:
            if workload_class not in self.per_class:
                raise ConfigurationError(f"missing optima for class {workload_class!r}")

    def optima(self, workload_class: WorkloadClass) -> ClassOptima:
        return self.per_class[WorkloadClass(workload_class)]

    @property
    def osc(self) -> int:
        return self.per_class[WorkloadClass.CPU].os_bound

    @property
    def osm(self) -> int:
        return self.per_class[WorkloadClass.MEM].os_bound

    @property
    def osi(self) -> int:
        return self.per_class[WorkloadClass.IO].os_bound

    @property
    def tc(self) -> float:
        return self.per_class[WorkloadClass.CPU].t_single_s

    @property
    def tm(self) -> float:
        return self.per_class[WorkloadClass.MEM].t_single_s

    @property
    def ti(self) -> float:
        return self.per_class[WorkloadClass.IO].t_single_s

    @property
    def grid_bounds(self) -> tuple[int, int, int]:
        """(OSC, OSM, OSI) -- the per-dimension DB key bounds."""
        return (self.osc, self.osm, self.osi)

    def reference_time(self, workload_class: WorkloadClass) -> float:
        return self.per_class[WorkloadClass(workload_class)].t_single_s

    def table_rows(self) -> list[tuple[str, int, int, float]]:
        """Rows of (class, OSP, OSE, T) in Table I column order."""
        return [
            (
                wc.value,
                self.per_class[wc].osp,
                self.per_class[wc].ose,
                self.per_class[wc].t_single_s,
            )
            for wc in WORKLOAD_CLASSES
        ]


def extract_optima(
    curves: Mapping[WorkloadClass, Sequence[BaseTestPoint]],
) -> OptimalScenarios:
    """Compute Table I from base-test curves.

    OSPx minimizes ``avgTimeVM``; OSEx minimizes energy per VM.  Ties
    break toward the *smaller* VM count (a conservative consolidation
    level costs nothing when the metric is flat).

    Raises
    ------
    ConfigurationError
        If a class curve is empty or does not start at n = 1 (Tx is
        defined as the single-VM runtime).
    """
    per_class: dict[WorkloadClass, ClassOptima] = {}
    for workload_class, curve in curves.items():
        workload_class = WorkloadClass(workload_class)
        if not curve:
            raise ConfigurationError(f"empty base-test curve for {workload_class!r}")
        by_n = sorted(curve, key=lambda p: p.n_vms)
        if by_n[0].n_vms != 1:
            raise ConfigurationError(
                f"base-test curve for {workload_class!r} must include n=1 "
                f"(got minimum n={by_n[0].n_vms})"
            )
        osp = min(by_n, key=lambda p: (p.avg_time_vm_s, p.n_vms)).n_vms
        ose = min(by_n, key=lambda p: (p.energy_per_vm_j, p.n_vms)).n_vms
        per_class[workload_class] = ClassOptima(
            workload_class=workload_class,
            osp=osp,
            ose=ose,
            t_single_s=by_n[0].record.time_s,
        )
    return OptimalScenarios(per_class=per_class)
