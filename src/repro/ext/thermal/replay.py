"""Thermal replay: temperature trajectories from simulation chronicles.

Runs the RC model over each server's recorded (power, duration)
intervals, yielding per-server peak temperatures, redline-exceedance
statistics, and the evidence that the thermal-aware strategy's power
cap actually holds in closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.ext.thermal.model import ThermalParams, ThermalState
from repro.sim.chronicle import Chronicle
from repro.sim.datacenter import SimulationResult


@dataclass(frozen=True)
class ServerThermalSummary:
    """Thermal outcome of one server over one simulation."""

    server_id: str
    peak_c: float
    final_c: float
    seconds_over_redline: float

    @property
    def stayed_cool(self) -> bool:
        return self.seconds_over_redline == 0.0


@dataclass(frozen=True)
class ThermalReplayResult:
    """Cluster-wide thermal outcome."""

    per_server: tuple[ServerThermalSummary, ...]
    params: ThermalParams

    @property
    def hottest_peak_c(self) -> float:
        return max((s.peak_c for s in self.per_server), default=self.params.ambient_c)

    @property
    def total_redline_seconds(self) -> float:
        return sum(s.seconds_over_redline for s in self.per_server)

    @property
    def all_cool(self) -> bool:
        return self.total_redline_seconds == 0.0

    def summary(self) -> str:
        return (
            f"hottest peak {self.hottest_peak_c:.1f} degC "
            f"(redline {self.params.redline_c:.0f}); "
            f"{self.total_redline_seconds:.0f}s over redline cluster-wide"
        )


def replay_chronicle(chronicle: Chronicle, params: ThermalParams) -> ServerThermalSummary:
    """Integrate one server's power history through the RC model.

    Gaps between recorded intervals (server powered off) cool toward
    ambient at zero draw.  The whole log is replayed, spilled intervals
    included; a bounded chronicle that evicted without a spill raises
    :class:`~repro.common.errors.SimulationError`.
    """
    state = ThermalState(params)
    over_redline_s = 0.0
    cursor = 0.0
    for interval in chronicle.iter_all():
        if interval.t0_s > cursor:
            state.step(0.0, interval.t0_s - cursor)  # powered-off gap
        # Within the interval, track redline crossing time.
        before = state.temperature_c
        crossing = state.time_to_redline_s(interval.power_w)
        state.step(interval.power_w, interval.duration_s)
        if before > params.redline_c:
            # Started hot: count until it cools below (approximate by
            # whole interval if it never does).
            over_redline_s += (
                interval.duration_s
                if state.temperature_c > params.redline_c
                else interval.duration_s / 2.0
            )
        elif crossing < interval.duration_s:
            over_redline_s += interval.duration_s - crossing
        cursor = interval.t1_s
    return ServerThermalSummary(
        server_id=chronicle.server_id,
        peak_c=state.peak_c,
        final_c=state.temperature_c,
        seconds_over_redline=over_redline_s,
    )


def replay_thermal(
    result: SimulationResult,
    params: ThermalParams | None = None,
) -> ThermalReplayResult:
    """Thermal replay of a whole simulation.

    Raises
    ------
    ConfigurationError
        If the simulation was run without chronicle recording
        (``DatacenterConfig(record_chronicles=True)`` is required).
    """
    if not result.chronicles:
        raise ConfigurationError(
            "thermal replay needs chronicles; run the simulation with "
            "DatacenterConfig(record_chronicles=True)"
        )
    params = params or ThermalParams()
    return ThermalReplayResult(
        per_server=tuple(replay_chronicle(c, params) for c in result.chronicles),
        params=params,
    )
