"""VM lifecycle state for the datacenter simulation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, SimulationError
from repro.testbed.benchmarks import BenchmarkSpec, WorkloadClass, canonical_benchmark
from repro.testbed.contention import ActiveVM


class VMState(enum.Enum):
    """Lifecycle of a simulated VM."""

    PENDING = "pending"  # submitted, not yet placed
    RUNNING = "running"  # placed on a server, making progress
    FINISHED = "finished"


@dataclass
class SimVM:
    """One VM instance flowing through the simulation.

    Progress is tracked as remaining seconds-of-solo-work per stage
    (initialization, then work), exactly like the testbed runner; the
    hosting :class:`~repro.sim.server.ServerRuntime` integrates it
    under the current mix's slowdowns.
    """

    vm_id: str
    job_id: int
    workload_class: WorkloadClass
    submit_time_s: float
    deadline_s: float = float("inf")
    benchmark: BenchmarkSpec | None = None

    state: VMState = field(default=VMState.PENDING, init=False)
    stage: int = field(default=0, init=False)
    remaining: "list[float]" = field(default_factory=list, init=False)
    placed_at_s: float = field(default=float("nan"), init=False)
    finished_at_s: float = field(default=float("nan"), init=False)
    server_id: str | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.vm_id:
            raise ConfigurationError("vm_id must be non-empty")
        if self.submit_time_s < 0:
            raise ConfigurationError(f"submit_time_s must be >= 0, got {self.submit_time_s}")
        if type(self.workload_class) is not WorkloadClass:
            self.workload_class = WorkloadClass(self.workload_class)
        if self.benchmark is None:
            self.benchmark = canonical_benchmark(self.workload_class)
        self.remaining = [self.benchmark.serial_time_s, self.benchmark.work_time_s]
        while self.stage < 2 and self.remaining[self.stage] <= 0.0:
            self.stage += 1

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

    def active_view(self) -> ActiveVM:
        """The contention model's view of this VM in its current stage."""
        assert self.benchmark is not None
        if self.stage == 0:
            return ActiveVM(
                self.benchmark,
                demand_scale=self.benchmark.init_demand_scale,
                contended=False,
            )
        return ActiveVM(self.benchmark, demand_scale=1.0, contended=True)

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
    def exec_time_s(self) -> float:
        """Completion minus placement (execution only)."""
        return self.finished_at_s - self.placed_at_s

    @property
    def missed_deadline(self) -> bool:
        return self.finished_at_s > self.deadline_s
