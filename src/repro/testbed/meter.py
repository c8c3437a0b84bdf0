"""Watts Up? .NET power-meter emulation.

The paper: "To empirically measure the instantaneous power consumption
of the servers we used a Watts Up? .NET power meter.  This power meter
has an accuracy of 1.5% of the measured power with sampling rate of
1Hz. ... We estimate the consumed energy by integrating the actual
power measures over time."

The emulator takes the piecewise-constant power profile produced by the
mix runner, samples it at 1 Hz, perturbs each sample with seeded
multiplicative Gaussian noise scaled to the meter's accuracy class, and
integrates the samples trapezoidally into energy.  With
``accuracy=0.0`` the meter is exact, which is what the deterministic
model-building campaign uses by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.quantities import Joules, Watts, integrate_power_samples
from repro.common.rng import RngLike, derive_rng
from repro.common.validation import check_non_negative, check_positive

#: Piecewise-constant power profile: (t_start, t_end, watts) segments,
#: contiguous and sorted by time.
PowerSegment = tuple[float, float, float]


@dataclass(frozen=True)
class MeterReading:
    """Result of measuring one run with the emulated meter."""

    energy_j: Joules
    max_power_w: Watts
    samples_w: tuple[float, ...]
    period_s: float

    @property
    def duration_s(self) -> float:
        return (len(self.samples_w) - 1) * self.period_s if len(self.samples_w) > 1 else self.period_s


class PowerMeter:
    """1 Hz sampling wall-power meter with a configurable accuracy class.

    Parameters
    ----------
    period_s:
        Sampling period (default 1.0 s, the Watts Up? rate).
    accuracy:
        Relative accuracy of the meter, e.g. 0.015 for the paper's
        1.5 % class.  Samples are perturbed by multiplicative Gaussian
        noise with sigma = accuracy / 3 so that ~99.7 % of samples fall
        within the stated accuracy band.  0.0 disables noise.
    rng:
        Seed or generator for the noise stream.
    """

    def __init__(self, period_s: float = 1.0, accuracy: float = 0.0, rng: RngLike = None):
        self._period_s = check_positive("period_s", period_s)
        self._accuracy = check_non_negative("accuracy", accuracy)
        self._rng = derive_rng(rng)

    @property
    def period_s(self) -> float:
        return self._period_s

    @property
    def accuracy(self) -> float:
        return self._accuracy

    def sample(self, segments: Sequence[PowerSegment]) -> list[float]:
        """Sample a piecewise-constant power profile at the meter rate.

        Samples are taken at t = 0, period, 2*period, ... up to and
        including the profile end (the final partial period yields one
        last sample at the end time so short tails are not lost).
        """
        _check_segments(segments)
        if not segments:
            return []
        t_end = segments[-1][1]
        times = list(np.arange(0.0, t_end, self._period_s))
        if not times or times[-1] < t_end:
            times.append(t_end)
        values = [_power_at(segments, min(t, t_end)) for t in times]
        if self._accuracy > 0.0:
            sigma = self._accuracy / 3.0
            noise = self._rng.normal(loc=1.0, scale=sigma, size=len(values))
            values = [max(0.0, v * n) for v, n in zip(values, noise)]
        return values

    def measure(self, segments: Sequence[PowerSegment]) -> MeterReading:
        """Sample a power profile and integrate it into a reading."""
        samples = self.sample(segments)
        energy = integrate_power_samples(samples, self._period_s)
        max_power = Watts(max(samples) if samples else 0.0)
        return MeterReading(
            energy_j=energy,
            max_power_w=max_power,
            samples_w=tuple(samples),
            period_s=self._period_s,
        )


def exact_energy(segments: Sequence[PowerSegment]) -> Joules:
    """Closed-form energy of a piecewise-constant profile (no sampling).

    Used by the model-building campaign: the emulated ground truth,
    free of the 1 Hz discretization the meter introduces.
    """
    _check_segments(segments)
    return Joules(sum((t1 - t0) * w for t0, t1, w in segments))


def exact_max_power(segments: Sequence[PowerSegment]) -> Watts:
    """Peak power of a piecewise-constant profile."""
    _check_segments(segments)
    return Watts(max((w for _, _, w in segments), default=0.0))


def _power_at(segments: Sequence[PowerSegment], t: float) -> float:
    """Power at time ``t`` within a contiguous segment list."""
    for t0, t1, w in segments:
        if t0 <= t < t1:
            return w
    # t equals the end of the profile: report the final segment's power.
    if segments and abs(t - segments[-1][1]) < 1e-12:
        return segments[-1][2]
    raise ValueError(f"time {t} outside the profile [0, {segments[-1][1] if segments else 0})")


def _check_segments(segments: Sequence[PowerSegment]) -> None:
    prev_end = None
    for i, (t0, t1, w) in enumerate(segments):
        if t1 <= t0:
            raise ValueError(f"segment {i} has non-positive duration: ({t0}, {t1})")
        if w < 0:
            raise ValueError(f"segment {i} has negative power: {w}")
        if prev_end is not None and abs(t0 - prev_end) > 1e-9:
            raise ValueError(f"segment {i} is not contiguous: starts at {t0}, previous ended {prev_end}")
        prev_end = t1
