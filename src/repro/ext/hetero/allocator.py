"""Heterogeneity-aware proactive placement.

Same structure as the homogeneous allocator -- enumerate type
partitions, greedily place blocks by the alpha-weighted marginal score
-- but every server is evaluated through the model database of *its
own hardware class*: a CPU-heavy block may be cheaper (faster, or more
energy-frugal per VM) on the modern 8-core nodes while small mixes
amortize better on the legacy boxes.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.campaign.records import MixKey, key_for_classes, total_vms
from repro.common.errors import ConfigurationError, ModelLookupError
from repro.core.allocator import _block_deadline, bind_vm_ids
from repro.core.model import EstimatedOutcome, ModelDatabase
from repro.core.partitions import type_partitions
from repro.core.scoring import ScoreWeights
from repro.strategies.base import AllocationStrategy, ServerView, VMDescriptor
from repro.testbed.benchmarks import WorkloadClass


class HeteroProactiveStrategy(AllocationStrategy):
    """PROACTIVE over a cloud with multiple hardware classes.

    Parameters
    ----------
    databases:
        Per-class model databases (from
        :func:`repro.ext.hetero.classes.build_class_databases`).
    class_of_server:
        Maps each ``server_id`` to its class name.  Servers missing
        from the map are rejected at placement time (configuration
        error: every server must have a model).
    alpha:
        The usual optimization-goal knob.
    """

    def __init__(
        self,
        databases: Mapping[str, ModelDatabase],
        class_of_server: Mapping[str, str],
        alpha: float = 0.5,
    ):
        if not databases:
            raise ConfigurationError("at least one class database is required")
        for name, class_name in class_of_server.items():
            if class_name not in databases:
                raise ConfigurationError(
                    f"server {name!r} maps to unknown class {class_name!r}"
                )
        self._dbs = dict(databases)
        self._class_of = dict(class_of_server)
        self._weights = ScoreWeights(alpha)
        # Global normalization scales across classes, so scores are
        # comparable regardless of which database produced them.
        self._max_time = max(db.time_range_s[1] for db in self._dbs.values())
        self._max_energy = max(db.energy_range_j[1] for db in self._dbs.values())
        # The partition bounds must cover every class's grid; blocks
        # too big for a particular server are filtered per-server.
        self._bounds = tuple(
            max(db.grid_bounds[i] for db in self._dbs.values()) for i in range(3)
        )
        self.name = f"PA-{alpha:g}-hetero"

    @property
    def alpha(self) -> float:
        return self._weights.alpha

    def database_for(self, server_id: str) -> ModelDatabase:
        try:
            return self._dbs[self._class_of[server_id]]
        except KeyError:
            raise ConfigurationError(f"no class mapping for server {server_id!r}") from None

    def place(
        self,
        vms: Sequence[VMDescriptor],
        servers: Sequence[ServerView],
    ) -> Optional[Mapping[str, str]]:
        counts = key_for_classes([vm.workload_class for vm in vms])
        deadlines = self._deadlines(vms)
        best_compliant: tuple[float, list[tuple[str, MixKey]]] | None = None
        best_any: tuple[float, list[tuple[str, MixKey]]] | None = None

        for partition in type_partitions(counts, self._bounds):
            assignment = self._assign(partition, servers, deadlines)
            if assignment is None:
                continue
            score, picks, qos_ok = assignment
            if qos_ok and (best_compliant is None or score < best_compliant[0] - 1e-12):
                best_compliant = (score, picks)
            if best_any is None or score < best_any[0] - 1e-12:
                best_any = (score, picks)
        if best_compliant is not None:
            return self._bind_vm_ids(best_compliant[1], vms)
        if best_any is None:
            return None
        if self._hopeless(vms):
            # The deadline can no longer be met anywhere; place
            # best-effort rather than blocking the queue forever.
            return self._bind_vm_ids(best_any[1], vms)
        return None  # wait for capacity that can honor the deadline

    # -- internals -----------------------------------------------------

    def _deadlines(self, vms: Sequence[VMDescriptor]) -> dict[WorkloadClass, float]:
        deadlines: dict[WorkloadClass, float] = {}
        for vm in vms:
            if vm.remaining_deadline_s is None or vm.remaining_deadline_s <= 0:
                continue
            current = deadlines.get(vm.workload_class)
            if current is None or vm.remaining_deadline_s < current:
                deadlines[vm.workload_class] = vm.remaining_deadline_s
        return deadlines

    def _hopeless(self, vms: Sequence[VMDescriptor]) -> bool:
        """No future placement can meet some VM's deadline: the budget
        fell below the fastest class's solo runtime across all
        hardware classes."""
        for vm in vms:
            if vm.remaining_deadline_s is None:
                continue
            fastest_solo = min(
                db.reference_time(vm.workload_class) for db in self._dbs.values()
            )
            if vm.remaining_deadline_s < fastest_solo:
                return True
        return False

    def _assign(
        self,
        partition: tuple[MixKey, ...],
        servers: Sequence[ServerView],
        deadlines: dict[WorkloadClass, float],
    ) -> tuple[float, list[tuple[str, MixKey]], bool] | None:
        residual: dict[str, MixKey] = {s.server_id: s.mix for s in servers}
        base_energy: dict[str, float | None] = {s.server_id: None for s in servers}
        picks: list[tuple[str, MixKey]] = []
        makespan = 0.0
        energy = 0.0
        qos_ok = True

        for block in sorted(partition, key=total_vms, reverse=True):
            block_deadline = _block_deadline(block, deadlines)
            best_id: str | None = None
            best_score = float("inf")
            best_estimate: EstimatedOutcome | None = None
            best_compliant = False
            for server in servers:
                db = self.database_for(server.server_id)
                current = residual[server.server_id]
                combined = (
                    current[0] + block[0],
                    current[1] + block[1],
                    current[2] + block[2],
                )
                if not db.within_bounds(combined):
                    continue
                if total_vms(combined) > server.max_vms:
                    continue
                try:
                    estimate = db.estimate(combined)
                except ModelLookupError:
                    continue
                if base_energy[server.server_id] is None:
                    base_energy[server.server_id] = self._existing_energy(db, current)
                marginal = max(0.0, estimate.energy_j - base_energy[server.server_id])
                score = (
                    self._weights.energy_weight * (marginal / self._max_energy)
                    + self._weights.time_weight * (estimate.time_s / self._max_time)
                )
                compliant = block_deadline is None or estimate.time_s <= block_deadline
                better = (compliant, -score) > (best_compliant, -best_score)
                if best_id is None or better:
                    best_score = score
                    best_id = server.server_id
                    best_estimate = estimate
                    best_compliant = compliant
            if best_id is None:
                return None
            assert best_estimate is not None
            qos_ok = qos_ok and best_compliant
            previous = base_energy[best_id] or 0.0
            energy += max(0.0, best_estimate.energy_j - previous)
            base_energy[best_id] = best_estimate.energy_j
            residual[best_id] = best_estimate.key
            makespan = max(makespan, best_estimate.time_s)
            picks.append((best_id, block))

        score = (
            self._weights.energy_weight * (energy / self._max_energy)
            + self._weights.time_weight * (makespan / self._max_time)
        )
        return score, picks, qos_ok

    @staticmethod
    def _existing_energy(db: ModelDatabase, mix: MixKey) -> float:
        if total_vms(mix) == 0:
            return 0.0
        try:
            return db.estimate(mix).energy_j
        except ModelLookupError:
            return 0.0

    @staticmethod
    def _bind_vm_ids(
        picks: list[tuple[str, MixKey]],
        vms: Sequence[VMDescriptor],
    ) -> dict[str, str]:
        bound = bind_vm_ids([block for _, block in picks], vms)
        return {
            vm_id: server_id
            for (server_id, _), vm_ids in zip(picks, bound)
            for vm_id in vm_ids
        }
