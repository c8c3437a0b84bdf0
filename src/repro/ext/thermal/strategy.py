"""Thermal-aware proactive placement.

Composes :class:`~repro.ext.thermal.capped.PowerCappedDatabase` with
the stock PROACTIVE strategy: the allocator simply never sees a mix the
cooling cannot sustain, so no server placed by this strategy can reach
its redline at steady state.
"""

from __future__ import annotations

from repro.core.model import ModelDatabase
from repro.ext.thermal.capped import PowerCappedDatabase, thermal_power_cap_w
from repro.ext.thermal.model import ThermalParams, steady_state_temp_c
from repro.strategies.proactive import ProactiveStrategy


class ThermalAwareProactiveStrategy(ProactiveStrategy):
    """PROACTIVE under a per-server thermal power budget."""

    def __init__(
        self,
        database: ModelDatabase,
        thermal: ThermalParams | None = None,
        alpha: float = 0.5,
        margin_c: float = 3.0,
    ):
        thermal = thermal or ThermalParams()
        cap_w = thermal_power_cap_w(thermal, margin_c)
        capped = PowerCappedDatabase(database, cap_w)
        super().__init__(capped, alpha=alpha)  # type: ignore[arg-type]
        self._thermal = thermal
        self._cap_w = cap_w
        self.name = f"PA-{alpha:g}-thermal"

    @property
    def thermal(self) -> ThermalParams:
        return self._thermal

    @property
    def power_cap_w(self) -> float:
        return self._cap_w

    def worst_case_steady_temp_c(self) -> float:
        """Steady-state temperature of the hottest placeable mix."""
        hottest = max(
            (r.avg_power_w for r in self.database.records),
            default=0.0,
        )
        return steady_state_temp_c(hottest, self._thermal)
