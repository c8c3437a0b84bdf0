"""Datacenter discrete-event simulation (paper Sect. IV-A).

The paper evaluates allocation strategies "through extensive
simulations" over a system model "composed of several servers with the
same characteristics of our real testbed", with estimated execution
times and energy computed from the allocation model per time interval
(the Fig. 4 weighted accounting) and a fixed 125 W draw for powered-on
servers.

This package provides:

* :mod:`~repro.sim.engine` -- a generic event queue / clock,
* :mod:`~repro.sim.accounting` -- the paper's interval-weighted
  execution-time and energy estimation (Fig. 4 semantics, unit-tested
  against the worked example: 1380 s / 14.25 kJ),
* :mod:`~repro.sim.vm` and :mod:`~repro.sim.server` -- VM lifecycle
  and per-server runtime state driven by the testbed contention model
  (the simulation's ground truth),
* :mod:`~repro.sim.metrics` -- makespan, energy, % SLA violations,
* :mod:`~repro.sim.datacenter` -- the top-level simulator binding a
  workload trace to an allocation strategy.
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "EventQueue",
    "IntervalWeights",
    "weighted_execution_time",
    "weighted_energy",
    "SimVM",
    "VMState",
    "ServerRuntime",
    "JobOutcome",
    "SimulationMetrics",
    "DatacenterConfig",
    "DatacenterSimulator",
    "SimulationResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.engine": ("EventQueue",),
        "repro.sim.accounting": (
            "IntervalWeights",
            "weighted_execution_time",
            "weighted_energy",
        ),
        "repro.sim.vm": ("SimVM", "VMState"),
        "repro.sim.server": ("ServerRuntime",),
        "repro.sim.metrics": ("JobOutcome", "SimulationMetrics"),
        "repro.sim.datacenter": (
            "DatacenterConfig",
            "DatacenterSimulator",
            "SimulationResult",
        ),
    },
)
