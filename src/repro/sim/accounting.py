"""Interval-weighted estimation of execution time and energy (Fig. 4).

"As VM allocations may vary over time, we compute the estimated
execution time and energy consumption with the weighted average of the
values associated to each interval of time."

Worked example from the paper, reproduced verbatim by the tests: a VM
spending 70 % of its execution under an allocation estimated at 1200 s
and 30 % under one estimated at 1800 s has::

    ExecTime_VM1 = 0.7 * 1200 + 0.3 * 1800 = 1380 s

and a server whose outcome splits 35 % / 15 % / 50 % across intervals
estimated at 15 kJ / 20 kJ / 12 kJ consumes::

    Energy = 0.35 * 15 + 0.15 * 20 + 0.5 * 12 = 14.25 kJ
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntervalWeights:
    """A sequence of (weight, value) pairs with weights summing to 1.

    Weights are the fractions of the VM's execution (or the outcome's
    span) covered by each allocation interval.
    """

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("at least one interval is required")
        total = 0.0
        for weight, value in self.pairs:
            if weight < 0:
                raise ValueError(f"interval weight must be >= 0, got {weight}")
            if value < 0:
                raise ValueError(f"interval value must be >= 0, got {value}")
            total += weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"interval weights must sum to 1, got {total}")

    @property
    def weighted_value(self) -> float:
        return sum(weight * value for weight, value in self.pairs)


def weighted_execution_time(intervals: Sequence[tuple[float, float]]) -> float:
    """Estimated execution time over allocation intervals.

    Parameters
    ----------
    intervals:
        (weight, estimated_time_s) pairs; weights are the fractions of
        the VM's execution spent under each allocation and must sum
        to 1.
    """
    return IntervalWeights(tuple(intervals)).weighted_value


def weighted_energy(intervals: Sequence[tuple[float, float]]) -> float:
    """Estimated energy over allocation intervals.

    Parameters
    ----------
    intervals:
        (weight, estimated_energy_j) pairs; weights are the fractions
        of the outcome's span covered by each allocation and must sum
        to 1.
    """
    return IntervalWeights(tuple(intervals)).weighted_value
