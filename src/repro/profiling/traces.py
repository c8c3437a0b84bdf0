"""Subsystem-utilization time series.

The mix runner records a piecewise-constant load profile; the paper's
collectors (mpstat/iostat/netstat at some sampling interval) see that
profile through periodic sampling.  :class:`UtilizationTrace` is the
sampled view: one row per sample instant, one column per subsystem,
utilizations clamped to [0, 1] (a saturated subsystem reads 100 %
regardless of queued demand -- which is what mpstat/iostat report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.testbed.spec import SUBSYSTEMS, Subsystem

#: The piecewise-constant profile produced by the runner:
#: (t_start, t_end, {subsystem: load factor}).
LoadSegment = tuple[float, float, Mapping[Subsystem, float]]


@dataclass(frozen=True)
class UtilizationTrace:
    """A sampled utilization time series for one run.

    Attributes
    ----------
    times_s:
        Sample instants, uniformly spaced.
    utilization:
        Per-subsystem arrays aligned with ``times_s``; values in [0, 1].
    """

    times_s: np.ndarray
    utilization: Mapping[Subsystem, np.ndarray]

    def __post_init__(self) -> None:
        for subsystem in SUBSYSTEMS:
            if subsystem not in self.utilization:
                raise ValueError(f"trace missing subsystem {subsystem!r}")
            if len(self.utilization[subsystem]) != len(self.times_s):
                raise ValueError(
                    f"trace for {subsystem} has {len(self.utilization[subsystem])} "
                    f"samples, expected {len(self.times_s)}"
                )

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def duration_s(self) -> float:
        if len(self.times_s) == 0:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    def mean_utilization(self, subsystem: Subsystem) -> float:
        """Time-averaged utilization of one subsystem over the trace."""
        values = self.utilization[subsystem]
        if len(values) == 0:
            return 0.0
        return float(np.mean(values))

    def as_rows(self) -> list[tuple[float, float, float, float, float]]:
        """Rows of (t, cpu, memory, disk, network), e.g. for CSV export."""
        rows = []
        for i, t in enumerate(self.times_s):
            rows.append(
                (
                    float(t),
                    float(self.utilization[Subsystem.CPU][i]),
                    float(self.utilization[Subsystem.MEMORY][i]),
                    float(self.utilization[Subsystem.DISK][i]),
                    float(self.utilization[Subsystem.NETWORK][i]),
                )
            )
        return rows


def sample_load_profile(
    segments: Sequence[LoadSegment],
    period_s: float = 1.0,
    scale: Mapping[Subsystem, float] | None = None,
) -> UtilizationTrace:
    """Sample a piecewise-constant load profile into a utilization trace.

    Load factors are clamped to [0, 1]: OS collectors report busy
    percentages, not queue depths.

    Parameters
    ----------
    segments:
        Contiguous (t0, t1, loads) segments from
        :attr:`repro.testbed.runner.MixRunResult.load_profile`.
    period_s:
        Sampling period (1 s matches mpstat/iostat default cadence).
    scale:
        Optional per-subsystem multiplier applied to the raw load
        factors before clamping.  The application profiler passes the
        server capacities here to convert whole-server load factors
        back into single-unit utilizations (a one-core job pinning its
        core reads 100 %, not 25 % of a quad-core box), matching what
        the paper's per-process collectors report in Fig. 1.
    """
    if period_s <= 0:
        raise ValueError(f"period_s must be positive, got {period_s}")
    if scale is not None:
        for subsystem, factor in scale.items():
            if factor <= 0:
                raise ValueError(f"scale for {subsystem} must be positive, got {factor}")
    if not segments:
        empty = np.empty(0)
        return UtilizationTrace(
            times_s=empty, utilization={s: np.empty(0) for s in SUBSYSTEMS}
        )
    t_end = segments[-1][1]
    times = np.arange(0.0, t_end, period_s)
    if len(times) == 0 or times[-1] < t_end:
        times = np.append(times, t_end)

    columns: dict[Subsystem, list[float]] = {s: [] for s in SUBSYSTEMS}
    seg_index = 0
    for t in times:
        while seg_index < len(segments) - 1 and t >= segments[seg_index][1]:
            seg_index += 1
        loads = segments[seg_index][2]
        for subsystem in SUBSYSTEMS:
            value = loads.get(subsystem, 0.0)
            if scale is not None:
                value *= scale.get(subsystem, 1.0)
            columns[subsystem].append(min(1.0, max(0.0, value)))
    return UtilizationTrace(
        times_s=times,
        utilization={s: np.asarray(columns[s]) for s in SUBSYSTEMS},
    )
