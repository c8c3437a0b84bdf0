"""Deterministic fault injection for the simulator and exec engine.

Consolidation-heavy energy-aware placement makes single-server
failures strictly more damaging -- a packed server takes more VMs down
with it -- so the reproduction's resilience is tested, not assumed.
This package defines the declarative fault taxonomy
(:mod:`repro.faults.spec`), materializes specs into deterministic
timelines (:mod:`repro.faults.schedule`), and names the counters the
injection points record (``faults.injected``, ``faults.reallocations``,
``faults.retries``).

The injection points themselves live in the layers they perturb:
:mod:`repro.sim.datacenter` consumes a :class:`FaultSchedule` (server
crash/recover, VM abort, transient slowdown) and
:mod:`repro.exec.engine` consumes a :class:`WorkerFaultPlan`
(worker-task failures with bounded retry).  Layering: ``sim`` and
``exec`` import these event types; ``faults`` itself reaches only
``common`` and ``obs``, never strategies or experiments.

Determinism rule: the same ``(spec, n_servers)`` pair always yields the
same timeline, and injected worker failures depend only on the task's
input index -- so a faulted run is bit-identical between ``--jobs 1``
and ``--jobs N`` (asserted in ``tests/faults/test_determinism.py``).
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSpec",
    "RandomFaults",
    "FaultRecord",
    "WorkerFaultPlan",
    "FaultAction",
    "ScheduledFault",
    "FaultSchedule",
    "materialize",
    "random_crash_spec",
    "FAULTS_INJECTED",
    "FAULTS_REALLOCATIONS",
    "FAULTS_RETRIES",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.schedule": (
            "FaultAction",
            "FaultSchedule",
            "ScheduledFault",
            "materialize",
            "random_crash_spec",
        ),
        "repro.faults.spec": (
            "FAULTS_INJECTED",
            "FAULTS_REALLOCATIONS",
            "FAULTS_RETRIES",
            "FaultEvent",
            "FaultKind",
            "FaultRecord",
            "FaultSpec",
            "RandomFaults",
            "WorkerFaultPlan",
        ),
    },
)
