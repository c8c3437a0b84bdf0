"""Tests for the surrogate learning curve."""

import pytest

from benchmarks.learning import learning_curve
from repro.common.errors import ConfigurationError


@pytest.fixture(scope="module")
def curve(database):
    return learning_curve(database, fractions=(0.2, 0.5, 1.0), rng=9)


class TestLearningCurve:
    def test_point_per_fraction(self, curve):
        assert [p.fraction for p in curve.points] == [0.2, 0.5, 1.0]

    def test_errors_decrease_overall(self, curve):
        first, last = curve.points[0], curve.points[-1]
        assert last.median_time_error <= first.median_time_error + 0.02
        assert last.median_energy_error <= first.median_energy_error + 0.02

    def test_full_budget_accuracy(self, curve):
        full = curve.points[-1]
        assert full.median_time_error < 0.12
        assert full.p90_time_error < 0.30

    def test_threshold_query(self, curve):
        fraction = curve.smallest_fraction_below(0.12)
        assert fraction is not None
        assert curve.smallest_fraction_below(0.0) is None

    def test_rows_shape(self, curve):
        rows = curve.rows()
        assert len(rows) == 3
        assert all(len(r) == 4 for r in rows)

    def test_fraction_validation(self, database):
        with pytest.raises(ConfigurationError):
            learning_curve(database, fractions=())
        with pytest.raises(ConfigurationError):
            learning_curve(database, fractions=(0.5, 0.2))
        with pytest.raises(ConfigurationError):
            learning_curve(database, fractions=(0.5, 1.5))

    def test_deterministic(self, database):
        a = learning_curve(database, fractions=(0.3,), rng=5)
        b = learning_curve(database, fractions=(0.3,), rng=5)
        assert a.points[0].median_time_error == b.points[0].median_time_error
