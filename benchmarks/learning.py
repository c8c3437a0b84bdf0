"""Learned surrogate for the model database (paper Sect. V, future work).

"Our current research efforts are geared towards using machine
learning techniques to extract on-the-fly a model out of the
sub-system utilization data collected from offline experiments..."

The two ablation benches (``bench_ablation_learned_model.py``,
``bench_ablation_learning_curve.py``) and ``tests/ext`` import this
module; no command of the package runs it.

Polynomial ridge-regression surrogate for the model database.

Features are a degree-2 polynomial basis over the mix key plus the
total VM count and the RAM-pressure hinge (the physics' dominant
nonlinearity); targets are log-time and log-energy, which makes the
multiplicative structure of the contention model approximately linear
and guarantees positive predictions.

Learning curves: surrogate accuracy vs measurement budget.

The paper's campaign "took several days to be completed"; its future
work proposes machine learning precisely to avoid exhaustive
measurement.  :func:`learning_curve` quantifies the trade: fit the
surrogate on increasing fractions of the measured grid and report its
error over the full grid -- the answer to "how many combined tests do
you actually need?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.campaign.optimal import OptimalScenarios
from repro.campaign.records import BenchmarkRecord, MixKey, total_vms
from repro.common.errors import ConfigurationError
from repro.common.rng import RngLike, derive_rng
from repro.core.model import EstimatedOutcome, ModelDatabase


def _features(key: MixKey) -> np.ndarray:
    ncpu, nmem, nio = key
    n = ncpu + nmem + nio
    return np.array(
        [
            1.0,
            ncpu,
            nmem,
            nio,
            n,
            ncpu * ncpu,
            nmem * nmem,
            nio * nio,
            ncpu * nmem,
            ncpu * nio,
            nmem * nio,
            n * n,
            max(0.0, n - 8.0) ** 2,  # RAM-pressure hinge
        ]
    )


@dataclass(frozen=True)
class _Fit:
    weights_time: np.ndarray
    weights_energy: np.ndarray
    rmse_log_time: float
    rmse_log_energy: float


class LearnedModel:
    """A learned stand-in for :class:`~repro.core.model.ModelDatabase`.

    Duck-types the consumer-facing interface (``estimate``,
    ``within_bounds``, ``grid_bounds``, normalization ranges, Table I
    access) so :class:`~repro.strategies.proactive.ProactiveStrategy`
    runs on it unmodified.  Estimates always carry ``exact=False``.
    """

    def __init__(self, fit: _Fit, optima: OptimalScenarios, ranges: tuple):
        self._fit = fit
        self._optima = optima
        self._time_range, self._energy_range = ranges

    # -- quality ------------------------------------------------------

    @property
    def rmse_log_time(self) -> float:
        return self._fit.rmse_log_time

    @property
    def rmse_log_energy(self) -> float:
        return self._fit.rmse_log_energy

    def relative_error(self, record: BenchmarkRecord) -> tuple[float, float]:
        """(time, energy) relative errors against one measured record."""
        estimate = self.estimate(record.key)
        return (
            abs(estimate.time_s - record.time_s) / record.time_s,
            abs(estimate.energy_j - record.energy_j) / record.energy_j,
        )

    # -- ModelDatabase interface ---------------------------------------

    @property
    def optima(self) -> OptimalScenarios:
        return self._optima

    @property
    def grid_bounds(self) -> tuple[int, int, int]:
        return self._optima.grid_bounds

    @property
    def time_range_s(self) -> tuple[float, float]:
        return self._time_range

    @property
    def energy_range_j(self) -> tuple[float, float]:
        return self._energy_range

    def reference_time(self, workload_class) -> float:
        return self._optima.reference_time(workload_class)

    def within_bounds(self, key: MixKey) -> bool:
        osc, osm, osi = self.grid_bounds
        return 0 <= key[0] <= osc and 0 <= key[1] <= osm and 0 <= key[2] <= osi

    def estimate(self, key: MixKey) -> EstimatedOutcome:
        if total_vms(key) == 0:
            raise ValueError("cannot estimate the empty mix")
        x = _features(key)
        time_s = float(np.exp(x @ self._fit.weights_time))
        energy_j = float(np.exp(x @ self._fit.weights_energy))
        return EstimatedOutcome(key=key, time_s=time_s, energy_j=energy_j, exact=False)


def fit_learned_model(
    database: ModelDatabase,
    sample_fraction: float = 0.5,
    ridge: float = 1e-3,
    rng: RngLike = None,
) -> LearnedModel:
    """Fit a surrogate from a random subset of the database's records.

    Parameters
    ----------
    database:
        The measured model (provides records and Table I).
    sample_fraction:
        Fraction of records used for training (the point of the
        learned model is to need *fewer* measurements than the
        exhaustive campaign).
    ridge:
        L2 regularization strength.
    rng:
        Seed for the training-subset draw.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ConfigurationError(
            f"sample_fraction must lie in (0, 1], got {sample_fraction}"
        )
    if ridge < 0:
        raise ConfigurationError(f"ridge must be >= 0, got {ridge}")
    records: Sequence[BenchmarkRecord] = database.records
    rng = derive_rng(rng)
    n_train = max(len(_features((1, 0, 0))), int(round(len(records) * sample_fraction)))
    n_train = min(n_train, len(records))
    indices = rng.choice(len(records), size=n_train, replace=False)
    train = [records[i] for i in indices]

    x = np.stack([_features(r.key) for r in train])
    y_time = np.log([r.time_s for r in train])
    y_energy = np.log([r.energy_j for r in train])

    gram = x.T @ x + ridge * np.eye(x.shape[1])
    weights_time = np.linalg.solve(gram, x.T @ y_time)
    weights_energy = np.linalg.solve(gram, x.T @ y_energy)

    fit = _Fit(
        weights_time=weights_time,
        weights_energy=weights_energy,
        rmse_log_time=float(np.sqrt(np.mean((x @ weights_time - y_time) ** 2))),
        rmse_log_energy=float(np.sqrt(np.mean((x @ weights_energy - y_energy) ** 2))),
    )
    return LearnedModel(
        fit,
        database.optima,
        (database.time_range_s, database.energy_range_j),
    )


@dataclass(frozen=True)
class LearningCurvePoint:
    """Surrogate quality at one training budget."""

    fraction: float
    n_train: int
    median_time_error: float
    p90_time_error: float
    median_energy_error: float
    p90_energy_error: float


@dataclass(frozen=True)
class LearningCurve:
    """Accuracy as a function of the measurement budget."""

    points: tuple[LearningCurvePoint, ...]

    def smallest_fraction_below(self, error: float) -> float | None:
        """Smallest training fraction whose median time error is below
        ``error``; None when no budget achieves it."""
        for point in self.points:
            if point.median_time_error < error:
                return point.fraction
        return None

    def rows(self) -> list[tuple[float, int, float, float]]:
        """(fraction, n_train, median time err, median energy err)."""
        return [
            (p.fraction, p.n_train, p.median_time_error, p.median_energy_error)
            for p in self.points
        ]


def _errors(model: LearnedModel, database: ModelDatabase) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.array([model.relative_error(r) for r in database.records])
    return pairs[:, 0], pairs[:, 1]


def learning_curve(
    database: ModelDatabase,
    fractions: Sequence[float] = (0.1, 0.2, 0.35, 0.5, 0.75, 1.0),
    rng: RngLike = None,
) -> LearningCurve:
    """Fit surrogates across training budgets and score them.

    Fractions must be increasing in (0, 1]; each fit draws its own
    subset from a child seed so points are independent.
    """
    if not fractions:
        raise ConfigurationError("at least one fraction is required")
    previous = 0.0
    for fraction in fractions:
        if not previous < fraction <= 1.0:
            raise ConfigurationError(
                f"fractions must be strictly increasing in (0, 1], got {fractions}"
            )
        previous = fraction
    rng = derive_rng(rng)
    points: list[LearningCurvePoint] = []
    for fraction in fractions:
        model = fit_learned_model(
            database,
            sample_fraction=fraction,
            rng=int(rng.integers(0, 2**31 - 1)),
        )
        time_errors, energy_errors = _errors(model, database)
        points.append(
            LearningCurvePoint(
                fraction=fraction,
                n_train=max(13, int(round(len(database) * fraction))),
                median_time_error=float(np.median(time_errors)),
                p90_time_error=float(np.percentile(time_errors, 90)),
                median_energy_error=float(np.median(energy_errors)),
                p90_energy_error=float(np.percentile(energy_errors, 90)),
            )
        )
    return LearningCurve(points=tuple(points))
