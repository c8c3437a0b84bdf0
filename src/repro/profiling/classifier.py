"""Intensity classification of profiled applications.

Paper Sect. III-A: "An application usually demands the services of a
given subsystem in discrete time windows.  However, if the average
demand for a subsystem X is significant, we consider the application to
be X-intensive. ... an application can also be deemed to be intensive
along multiple dimensions."

The classifier turns a utilization trace into an
:class:`IntensityProfile` -- the set of subsystems whose mean demand
crosses a significance threshold -- and maps that onto the single
:class:`~repro.testbed.benchmarks.WorkloadClass` label the model
database is keyed by (CPU / MEM / IO), with a deterministic precedence
for multi-intensive applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.profiling.traces import UtilizationTrace
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import SUBSYSTEMS, Subsystem


@dataclass(frozen=True)
class ClassifierThresholds:
    """Per-subsystem significance thresholds on mean utilization.

    CPU uses a higher bar (every program consumes some CPU); the I/O
    subsystems use a lower one (sustained 25 % disk utilization on
    HDD-era hardware is already a heavily I/O-bound program).
    """

    thresholds: Mapping[Subsystem, float] = field(
        default_factory=lambda: MappingProxyType(
            {
                Subsystem.CPU: 0.50,
                Subsystem.MEMORY: 0.35,
                Subsystem.DISK: 0.25,
                Subsystem.NETWORK: 0.20,
            }
        )
    )

    def __post_init__(self) -> None:
        for subsystem in SUBSYSTEMS:
            if subsystem not in self.thresholds:
                raise ValueError(f"thresholds missing subsystem {subsystem!r}")
            value = self.thresholds[subsystem]
            if not 0.0 < value <= 1.0:
                raise ValueError(
                    f"threshold for {subsystem} must lie in (0, 1], got {value}"
                )

    def threshold(self, subsystem: Subsystem) -> float:
        return self.thresholds[subsystem]


@dataclass(frozen=True)
class IntensityProfile:
    """The multi-dimensional intensity labeling of one application.

    ``intensive`` is the subset of subsystems whose mean utilization is
    significant; ``mean_utilization`` retains the underlying averages
    so downstream consumers can rank dimensions.
    """

    intensive: frozenset[Subsystem]
    mean_utilization: Mapping[Subsystem, float]

    def is_intensive(self, subsystem: Subsystem) -> bool:
        return subsystem in self.intensive

    def workload_class(self) -> WorkloadClass:
        """Collapse the profile to the single database class label.

        Precedence for multi-intensive applications follows the
        contention cost on the testbed: disk I/O dominates (an
        I/O-intensive application is bottlenecked by the HDDs no matter
        its CPU appetite), then memory, then CPU.  Network-intensive
        applications without disk intensity are treated as CPU class
        (the paper's CPU-cum-network example), since the database has
        no network dimension.  Applications with no significant
        dimension default to CPU class: they still need cycles.
        """
        if Subsystem.DISK in self.intensive:
            return WorkloadClass.IO
        if Subsystem.MEMORY in self.intensive:
            return WorkloadClass.MEM
        return WorkloadClass.CPU


def classify_trace(
    trace: UtilizationTrace,
    thresholds: ClassifierThresholds | None = None,
) -> IntensityProfile:
    """Classify a utilization trace into an intensity profile.

    Parameters
    ----------
    trace:
        A sampled utilization trace (typically from a solo profiling
        run of the application on an idle server).
    thresholds:
        Significance thresholds; defaults to the calibrated ones.
    """
    thresholds = thresholds or ClassifierThresholds()
    means = {s: trace.mean_utilization(s) for s in SUBSYSTEMS}
    intensive = frozenset(
        s for s in SUBSYSTEMS if means[s] >= thresholds.threshold(s)
    )
    return IntensityProfile(
        intensive=intensive,
        mean_utilization=MappingProxyType(means),
    )
