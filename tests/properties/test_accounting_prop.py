"""Property-based tests for interval-weighted accounting and power
integration."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.quantities import integrate_power_samples
from repro.sim.accounting import weighted_energy, weighted_execution_time
from tests.oracles.chronicle import fractions_from_durations

values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
durations = st.lists(
    st.floats(min_value=0.01, max_value=1e5, allow_nan=False), min_size=1, max_size=10
)


class TestWeightedAverages:
    @given(durations, st.data())
    @settings(max_examples=60)
    def test_result_bounded_by_extremes(self, durs, data):
        weights = fractions_from_durations(durs)
        vals = data.draw(
            st.lists(values, min_size=len(weights), max_size=len(weights))
        )
        result = weighted_execution_time(list(zip(weights, vals)))
        assert min(vals) - 1e-6 <= result <= max(vals) + 1e-6

    @given(durations, values)
    @settings(max_examples=60)
    def test_constant_value_is_identity(self, durs, value):
        weights = fractions_from_durations(durs)
        result = weighted_energy([(w, value) for w in weights])
        assert abs(result - value) < max(1e-6, value * 1e-9)

    @given(durations)
    @settings(max_examples=60)
    def test_fractions_sum_to_one(self, durs):
        assert abs(sum(fractions_from_durations(durs)) - 1.0) < 1e-9

    @given(durations, st.data())
    @settings(max_examples=60)
    def test_scaling_values_scales_result(self, durs, data):
        weights = fractions_from_durations(durs)
        vals = data.draw(st.lists(values, min_size=len(weights), max_size=len(weights)))
        base = weighted_execution_time(list(zip(weights, vals)))
        doubled = weighted_execution_time([(w, 2 * v) for w, v in zip(weights, vals)])
        assert abs(doubled - 2 * base) < max(1e-6, base * 1e-9)


class TestPowerIntegration:
    @given(st.lists(st.floats(min_value=0, max_value=500), min_size=2, max_size=100))
    @settings(max_examples=60)
    def test_energy_bounded_by_peak_power(self, samples):
        duration = len(samples) - 1
        energy = integrate_power_samples(samples, 1.0)
        assert 0 <= energy <= max(samples) * duration + 1e-9

    @given(
        st.lists(st.floats(min_value=0, max_value=500), min_size=2, max_size=50),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60)
    def test_linear_in_period(self, samples, period):
        base = integrate_power_samples(samples, 1.0)
        scaled = integrate_power_samples(samples, period)
        assert abs(scaled - base * period) < 1e-6 * max(1.0, base)
