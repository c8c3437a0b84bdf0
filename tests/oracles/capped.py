"""A power-capped view of a model database: the duck-typed stand-in.

:class:`PowerCappedDatabase` exposes the parts of
:class:`~repro.core.model.ModelDatabase` the allocator and the PROACTIVE
strategy read, but vetoes every mix whose average draw exceeds a power
budget through ``within_bounds`` and ``estimate``.  It is not a
``ModelDatabase`` and carries no ``estimate_grid``, so
:func:`~repro.core.estimatecache.grid_for` wraps it by replaying its
``estimate`` over the grid.  The equivalence suites use it to check
that the wrapped grid keeps the veto: cells the cap rejects are grid
misses, and busy servers whose residual it rejects are
``energy_fallbacks``.
"""

from __future__ import annotations

from repro.campaign.records import MixKey, total_vms
from repro.common.errors import ConfigurationError, ModelLookupError
from repro.core.model import EstimatedOutcome, ModelDatabase


class PowerCappedDatabase:
    """A ModelDatabase proxy that rejects mixes above a power budget."""

    def __init__(self, database: ModelDatabase, power_cap_w: float):
        if power_cap_w <= 0:
            raise ConfigurationError(f"power cap must be positive, got {power_cap_w}")
        self._db = database
        self._cap_w = float(power_cap_w)

    @property
    def grid_bounds(self) -> tuple[int, int, int]:
        return self._db.grid_bounds

    @property
    def time_range_s(self) -> tuple[float, float]:
        return self._db.time_range_s

    @property
    def energy_range_j(self) -> tuple[float, float]:
        return self._db.energy_range_j

    def reference_time(self, workload_class) -> float:
        return self._db.reference_time(workload_class)

    def within_bounds(self, key: MixKey) -> bool:
        """In the grid *and* below the power budget."""
        if not self._db.within_bounds(key):
            return False
        if total_vms(key) == 0:
            return True
        try:
            estimate = self._db.estimate(key)
        except ModelLookupError:
            return False
        return estimate.avg_power_w <= self._cap_w

    def estimate(self, key: MixKey) -> EstimatedOutcome:
        estimate = self._db.estimate(key)
        if estimate.avg_power_w > self._cap_w:
            raise ModelLookupError(key, f"mix {key} exceeds power cap {self._cap_w:.0f}W")
        return estimate
