"""The naive simulation core: the identity oracle of the event loop.

:class:`NaiveDatacenterSimulator` runs :class:`DatacenterSimulator`'s
event loop with none of its incremental structures:

* every placement attempt gets a freshly built plain ``list`` of view
  snapshots (no :class:`~repro.sim.index.ServerViews`, hence no
  free-capacity or class-bucket hooks for strategies to take);
* the powered-on gauge and the idle-cluster check scan every server;
* every physics query recomputes the mix from fresh per-VM views with
  ``MixModel.slowdowns`` + ``MixModel.subsystem_loads`` (no per-server
  entry, no shared memo).

It reaches the loop through the simulator's ``_server_type`` /
``_cluster_type`` seam and nothing else.
``tests/properties/test_scale_prop.py`` and ``tests/sim/test_index.py``
assert that the production loop's results equal its results bit for
bit, and ``benchmarks/bench_sim_scale.py`` times it as the pre-index
baseline of its speedup gate.
"""

from __future__ import annotations

from repro.sim.datacenter import DatacenterSimulator
from repro.sim.server import ServerRuntime
from repro.testbed.power import instantaneous_power


class NaiveServerRuntime(ServerRuntime):
    """A server whose mix physics is recomputed at every query."""

    def _mix_physics(self) -> tuple:
        views = [vm.active_view() for vm in self._vms]
        slowdowns = self._model.slowdowns(views)
        loads = self._model.subsystem_loads(views)
        power = instantaneous_power(loads, len(views), self.spec.power)
        return slowdowns, loads, power


class NaiveClusterState:
    """The event loop's cluster queries, answered by full scans; binds
    no index to the servers."""

    def __init__(self, servers, make_view):
        self._servers = servers
        self._make_view = make_view

    def views(self) -> list:
        return [
            self._make_view(slot)
            for slot, server in enumerate(self._servers)
            if not server.failed
        ]

    def powered_count(self) -> int:
        return sum(1 for server in self._servers if server.powered_on)

    def idle(self) -> bool:
        return all(server.n_vms == 0 for server in self._servers) and not any(
            server.failed for server in self._servers
        )


class NaiveDatacenterSimulator(DatacenterSimulator):
    """:class:`DatacenterSimulator` on the naive server and cluster state."""

    _server_type = NaiveServerRuntime
    _cluster_type = NaiveClusterState
