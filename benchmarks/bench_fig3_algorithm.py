"""Fig. 3: the allocation algorithm's control flow.

Fig. 3 is a block diagram, not a measurement; its reproducible content
is the algorithm's I/O contract (Sect. III-D):

inputs  (i) the database with the allocation model,
        (ii) the base-experiment values OSC/OSM/OSI (auxiliary file),
        (iii) a set of VMs with per-VM profile and maximum execution
        time (QoS), and
        (iv) the optimization goal alpha;
output  a set of partitions and allocations of the VMs in the servers
        that best matches the goal while satisfying the QoS
        constraints, searching brute-force over set partitions with
        first-server tie-breaking.

:func:`fig3_contract` walks that exact flow and returns a checkable
record of every stage.  This bench times one full pass and prints the
stage record; ``tests/experiments/test_fig3.py`` asserts on it.  No
command runs it, so it lives here rather than in ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.platformrunner import run_campaign
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.model import ModelDatabase
from repro.core.plan import AllocationPlan
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import ServerSpec
from tests.oracles.partitions import count_type_partitions


@dataclass(frozen=True)
class Fig3Result:
    """One pass through the Fig. 3 control flow."""

    database_size: int
    grid_bounds: tuple[int, int, int]
    n_requests: int
    n_candidate_partitions: int
    alpha: float
    plan: AllocationPlan

    @property
    def all_inputs_used(self) -> bool:
        """Inputs (i)-(iv) all materially entered the computation."""
        return (
            self.database_size > 0  # (i)
            and all(b > 0 for b in self.grid_bounds)  # (ii)
            and self.n_requests == self.plan.n_vms  # (iii)
            and 0.0 <= self.alpha <= 1.0  # (iv)
        )


def fig3_contract(
    server: ServerSpec | None = None,
    alpha: float = 0.5,
    campaign=None,
) -> Fig3Result:
    """Exercise the algorithm's documented inputs and outputs."""
    if campaign is None:
        campaign = run_campaign(server=server)
    database = ModelDatabase.from_campaign(campaign)

    requests = [
        VMRequest("c0", WorkloadClass.CPU, max_exec_time_s=4 * campaign.optima.tc),
        VMRequest("c1", WorkloadClass.CPU, max_exec_time_s=4 * campaign.optima.tc),
        VMRequest("m0", WorkloadClass.MEM, max_exec_time_s=4 * campaign.optima.tm),
        VMRequest("i0", WorkloadClass.IO, max_exec_time_s=4 * campaign.optima.ti),
    ]
    servers = [ServerState("s0", allocated=(1, 0, 0)), ServerState("s1"), ServerState("s2")]

    plan = ProactiveAllocator(database, alpha=alpha).allocate(requests, servers)
    n_partitions = count_type_partitions((2, 1, 1), database.grid_bounds)

    return Fig3Result(
        database_size=len(database),
        grid_bounds=database.grid_bounds,
        n_requests=len(requests),
        n_candidate_partitions=n_partitions,
        alpha=alpha,
        plan=plan,
    )


def test_fig3_algorithm_contract(benchmark, campaign):
    result = benchmark.pedantic(
        lambda: fig3_contract(campaign=campaign), rounds=3, iterations=1
    )

    print("\n=== Fig. 3: allocation algorithm control flow ===")
    print(f"(i)   model database        : {result.database_size} records")
    print(f"(ii)  auxiliary OSC/OSM/OSI : {result.grid_bounds}")
    print(f"(iii) VM set + QoS          : {result.n_requests} requests")
    print(f"(iv)  optimization goal     : alpha = {result.alpha}")
    print(f"search: {result.n_candidate_partitions} candidate partitions")
    print(
        f"output: {len(result.plan.assignments)} blocks on "
        f"{len(set(result.plan.servers_used))} servers, "
        f"QoS satisfied = {result.plan.qos_satisfied}"
    )

    assert result.all_inputs_used
    assert result.plan.qos_satisfied
