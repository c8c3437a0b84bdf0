"""QoS (maximum response time) policy per application type.

"...we defined the QoS requirements (maximum in response time) per
application type and not for each specific request."

A deadline is a multiple of the class's reference solo runtime Tx: a
job submitted at t must have all of its VMs finished by
``t + factor * Tx``.  The response time includes queueing delay, so the
factor leaves room both for waiting and for consolidation slowdown.
SLA accounting ("summing the number of missed deadlines of all
applications") lives in :mod:`repro.sim.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.campaign.optimal import OptimalScenarios
from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import WORKLOAD_CLASSES, WorkloadClass


@dataclass(frozen=True)
class QoSPolicy:
    """Per-class maximum response times, in seconds."""

    max_response_s: Mapping[WorkloadClass, float]

    def __post_init__(self) -> None:
        normalized: dict[WorkloadClass, float] = {}
        for workload_class in WORKLOAD_CLASSES:
            if workload_class not in self.max_response_s:
                raise ConfigurationError(f"QoS policy missing class {workload_class!r}")
            value = self.max_response_s[workload_class]
            if value <= 0:
                raise ConfigurationError(
                    f"max response for {workload_class} must be positive, got {value}"
                )
            normalized[workload_class] = float(value)
        object.__setattr__(self, "max_response_s", MappingProxyType(normalized))

    def __reduce__(self):
        # The read-only MappingProxyType view cannot pickle; rebuild
        # from a plain dict so policies can ship to worker processes
        # (repro.exec) and land bit-identical.
        return (type(self), (dict(self.max_response_s),))

    def deadline_for(self, workload_class: WorkloadClass, submit_time_s: float) -> float:
        """Absolute completion deadline of a job submitted at the given time."""
        return submit_time_s + self.max_response_s[WorkloadClass(workload_class)]

    def max_response(self, workload_class: WorkloadClass) -> float:
        return self.max_response_s[WorkloadClass(workload_class)]

    @classmethod
    def from_optima(cls, optima: OptimalScenarios, factor: float = 6.0) -> "QoSPolicy":
        """Derive the policy from Table I: deadline = factor * Tx.

        The factor must exceed 1 (a deadline below the solo runtime is
        unsatisfiable even on an idle server).
        """
        if not factor > 1.0:  # NaN too
            raise ConfigurationError(f"factor must be > 1, got {factor}")
        return cls(
            max_response_s={
                workload_class: factor * optima.reference_time(workload_class)
                for workload_class in WORKLOAD_CLASSES
            }
        )

    @classmethod
    def unlimited(cls) -> "QoSPolicy":
        """A policy that never binds (for experiments ignoring QoS)."""
        return cls(
            max_response_s={workload_class: float("inf") for workload_class in WORKLOAD_CLASSES}
        )
