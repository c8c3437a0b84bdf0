"""The naive simulation core: the identity oracle of the event loop.

:class:`NaiveDatacenterSimulator` runs :class:`DatacenterSimulator`'s
event loop with none of its incremental structures:

* every placement attempt gets a freshly built plain ``list`` of view
  snapshots (no :class:`~repro.sim.index.ServerViews`, hence no
  free-capacity or class-bucket hooks for strategies to take: the slot
  strategies' ``free_candidates`` scans the list, and PROACTIVE takes
  its class heads in one pass over it);
* the powered-on gauge and the idle-cluster check scan every server;
* every physics query recomputes the mix from fresh per-VM views with
  ``MixModel.slowdowns`` + ``MixModel.subsystem_loads`` (no per-server
  entry, no shared memo);
* every integration step takes ``min()`` over the VMs' boundaries and
  calls :meth:`~repro.sim.vm.SimVM.advance` once per VM (the production
  step advances a stage inline and calls it only when the stage ends).

It reaches the loop through the simulator's ``_server_type`` /
``_cluster_type`` seam and nothing else.
``tests/properties/test_scale_prop.py`` and ``tests/sim/test_index.py``
assert that the production loop's results equal its results bit for
bit, and ``benchmarks/bench_sim_scale.py`` times it as the pre-index
baseline of its speedup gate.

:func:`audit_index` re-derives a :class:`~repro.sim.index.ClusterIndex`'s
counters from the servers, for the property suite's event storms.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.sim.datacenter import DatacenterSimulator
from repro.sim.server import ServerRuntime
from repro.testbed.power import instantaneous_power
from tests.oracles.runner import view_of

_EPSILON_S = 1e-9


class NaiveServerRuntime(ServerRuntime):
    """A server whose mix physics is recomputed at every query and
    whose VMs advance through :meth:`SimVM.advance` at every step."""

    def _mix_physics(self) -> tuple:
        views = [view_of(vm.benchmark, vm.stage) for vm in self._vms]
        slowdowns = self._model.slowdowns(views)
        loads = self._model.subsystem_loads(views)
        power = instantaneous_power(loads, len(views), self.spec.power)
        return slowdowns, loads, power

    def sync(self, now_s: float) -> list:
        if now_s < self._last_sync_s - 1e-9:
            raise SimulationError(
                f"server {self.server_id}: sync to {now_s} before {self._last_sync_s}"
            )
        finished = []
        t = self._last_sync_s
        while now_s - t > _EPSILON_S:
            if not self._vms:
                if self.powered_on:
                    if self._power_off_when_empty:
                        self._set_power(None)
                    else:
                        idle_power = self._idle_power_w()
                        self._idle_energy_j += idle_power * (now_s - t)
                        if self._signals is not None:
                            carbon, cost = self._signals.accrue(idle_power, t, now_s)
                            self._carbon_g += carbon
                            self._cost += cost
                        if self.chronicle is not None:
                            self.chronicle.record(t, now_s, (0, 0, 0), idle_power, ())
                t = now_s
                break
            slowdowns, _, power = self._mix_physics()
            if self._slowed:
                slowdowns = [s * self._slowdown_factor for s in slowdowns]
            next_boundary = min(
                vm.remaining[vm.stage] * s for vm, s in zip(self._vms, slowdowns)
            )
            step = min(now_s - t, max(next_boundary, _EPSILON_S))
            self._busy_energy_j += power * step
            if self._signals is not None:
                carbon, cost = self._signals.accrue(power, t, t + step)
                self._carbon_g += carbon
                self._cost += cost
            if self.chronicle is not None:
                self.chronicle.record(
                    t, t + step, self.mix_key(), power, [vm.vm_id for vm in self._vms]
                )
            for vm, slowdown in zip(self._vms, slowdowns):
                vm.advance(step, slowdown, _EPSILON_S)
            for vm in [vm for vm in self._vms if vm.done]:
                finished.append(vm)
                self._unhost(vm)
            t += step
        if not self._vms and self._power_off_when_empty and self.powered_on:
            self._set_power(None)
        self._last_sync_s = now_s
        return finished


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


def audit_index(index, servers) -> list[str]:
    """Re-derive every counter of ``index`` from the servers and report drift.

    Returns human-readable mismatch descriptions (empty = sane).
    """
    problems: list[str] = []
    powered = sum(1 for s in servers if s.powered_on)
    active = sum(s.n_vms for s in servers)
    failed = sum(1 for s in servers if s.failed)
    if powered != index.powered:
        problems.append(f"powered: index {index.powered} != actual {powered}")
    if active != index.active_vms:
        problems.append(f"active_vms: index {index.active_vms} != actual {active}")
    if failed != index.failed:
        problems.append(f"failed: index {index.failed} != actual {failed}")
    return problems
