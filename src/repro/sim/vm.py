"""VM lifecycle state for the datacenter simulation."""

from __future__ import annotations

import enum
from math import nan

from repro.common.errors import ConfigurationError, SimulationError
from repro.testbed.benchmarks import BenchmarkSpec, WorkloadClass, canonical_benchmark


class VMState(enum.Enum):
    """Lifecycle of a simulated VM."""

    PENDING = "pending"  # submitted, not yet placed
    RUNNING = "running"  # placed on a server, making progress
    FINISHED = "finished"


class SimVM:
    """One VM instance flowing through the simulation.

    Progress is tracked as remaining seconds-of-solo-work per stage
    (initialization, then work), exactly like the testbed runner; the
    hosting :class:`~repro.sim.server.ServerRuntime` integrates it
    under the current mix's slowdowns.

    An internal per-VM record, slotted: equality is identity, as
    nothing compares VMs by value.
    """

    __slots__ = (
        "vm_id",
        "job_id",
        "workload_class",
        "submit_time_s",
        "deadline_s",
        "benchmark",
        "state",
        "stage",
        "remaining",
        "placed_at_s",
        "finished_at_s",
        "server_id",
    )

    def __init__(
        self,
        vm_id: str,
        job_id: int,
        workload_class: WorkloadClass,
        submit_time_s: float,
        deadline_s: float = float("inf"),
        benchmark: BenchmarkSpec | None = None,
    ) -> None:
        if not vm_id:
            raise ConfigurationError("vm_id must be non-empty")
        if submit_time_s < 0:
            raise ConfigurationError(f"submit_time_s must be >= 0, got {submit_time_s}")
        if type(workload_class) is not WorkloadClass:
            workload_class = WorkloadClass(workload_class)
        if benchmark is None:
            benchmark = canonical_benchmark(workload_class)
        self.vm_id = vm_id
        self.job_id = job_id
        self.workload_class = workload_class
        self.submit_time_s = submit_time_s
        self.deadline_s = deadline_s
        self.benchmark: BenchmarkSpec = benchmark
        self.state = VMState.PENDING
        self.placed_at_s = nan
        self.finished_at_s = nan
        self.server_id: str | None = None
        self.remaining = remaining = [benchmark.serial_time_s, benchmark.work_time_s]
        stage = 0
        while stage < 2 and remaining[stage] <= 0.0:
            stage += 1
        self.stage = stage

    def __repr__(self) -> str:
        return (
            f"SimVM(vm_id={self.vm_id!r}, job_id={self.job_id!r}, "
            f"workload_class={self.workload_class!r}, state={self.state!r}, "
            f"stage={self.stage!r}, remaining={self.remaining!r}, "
            f"server_id={self.server_id!r})"
        )

    # -- lifecycle ----------------------------------------------------

    def place(self, server_id: str, now_s: float) -> None:
        if self.state is not VMState.PENDING:
            raise SimulationError(f"VM {self.vm_id} placed twice")
        self.state = VMState.RUNNING
        self.server_id = server_id
        self.placed_at_s = now_s

    def finish(self, now_s: float) -> None:
        if self.state is not VMState.RUNNING:
            raise SimulationError(f"VM {self.vm_id} finished while {self.state.value}")
        self.state = VMState.FINISHED
        self.finished_at_s = now_s

    # -- physics hooks ------------------------------------------------

    @property
    def done(self) -> bool:
        return self.stage >= 2

    def advance(self, dt_s: float, slowdown: float, epsilon_s: float = 1e-9) -> None:
        """Progress the current stage by ``dt_s`` wall seconds."""
        if self.done:
            raise SimulationError(f"advancing finished VM {self.vm_id}")
        self.remaining[self.stage] -= dt_s / slowdown
        if self.remaining[self.stage] <= epsilon_s:
            self.remaining[self.stage] = 0.0
            self.stage += 1
            while self.stage < 2 and self.remaining[self.stage] <= 0.0:
                self.stage += 1

    # -- reporting ----------------------------------------------------

    @property
    def response_time_s(self) -> float:
        """Completion minus submission (includes queueing)."""
        return self.finished_at_s - self.submit_time_s

    @property
    def missed_deadline(self) -> bool:
        return self.finished_at_s > self.deadline_s
