"""Property-based tests for the testbed physics.

These pin the emulator's qualitative laws -- the properties the
paper's empirical observations rely on -- rather than calibrated
numbers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testbed.benchmarks import BENCHMARKS, get_benchmark
from repro.testbed.contention import ActiveVM, MixModel
from repro.testbed.runner import VMInstance, run_mix
from repro.testbed.spec import SUBSYSTEMS, default_server
from tests.oracles.runner import mix_power

bench_names = st.sampled_from(sorted(BENCHMARKS))
small_mixes = st.lists(bench_names, min_size=1, max_size=8)


def active(names):
    return [ActiveVM(get_benchmark(n)) for n in names]


class TestContentionLaws:
    @given(small_mixes)
    @settings(max_examples=60)
    def test_slowdowns_at_least_one(self, names):
        model = MixModel(default_server())
        for value in model.slowdowns(active(names)):
            assert value >= 1.0 - 1e-12

    @given(small_mixes, bench_names)
    @settings(max_examples=60)
    def test_adding_a_vm_never_speeds_up_others(self, names, extra):
        model = MixModel(default_server())
        mix = active(names)
        bigger = mix + [ActiveVM(get_benchmark(extra))]
        before = model.slowdowns(mix)
        after = model.slowdowns(bigger)[: len(mix)]
        for b, a in zip(before, after):
            assert a >= b - 1e-12

    @given(small_mixes)
    @settings(max_examples=60)
    def test_power_monotone_in_mix(self, names):
        model = MixModel(default_server())
        mix = active(names)
        assert mix_power(model, mix) >= mix_power(model, mix[:-1] if len(mix) > 1 else [])

    @given(small_mixes)
    @settings(max_examples=60)
    def test_power_bounded(self, names):
        model = MixModel(default_server())
        spec = default_server()
        draw = mix_power(model, active(names))
        saturated = spec.power.idle_w + sum(spec.power.dynamic_w[s] for s in SUBSYSTEMS)
        assert spec.power.idle_w <= draw <= saturated + spec.power.per_vm_w * len(names)


class TestRunnerLaws:
    @given(st.lists(bench_names, min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_run_invariants(self, names):
        server = default_server()
        vms = [VMInstance(f"v{i}", get_benchmark(n)) for i, n in enumerate(names)]
        result = run_mix(server, vms)
        # Each VM takes at least its solo reference time.
        for outcome in result.outcomes:
            t_ref = get_benchmark(outcome.benchmark_name).t_ref_s
            assert outcome.finish_s - outcome.start_s >= t_ref * 0.999
        # Energy equals the piecewise integral of the power profile.
        integral = sum((t1 - t0) * w for t0, t1, w in result.segments)
        assert abs(result.energy_j - integral) < 1e-6
        # Total time is the slowest VM.
        assert result.total_time_s == max(o.finish_s for o in result.outcomes)
        # Energy at least idle draw over the whole run.
        assert result.energy_j >= server.power.idle_w * result.total_time_s * 0.999

    @given(st.lists(bench_names, min_size=1, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, names):
        server = default_server()
        vms = [VMInstance(f"v{i}", get_benchmark(n)) for i, n in enumerate(names)]
        a = run_mix(server, vms)
        b = run_mix(server, vms)
        assert a.total_time_s == b.total_time_s
        assert a.energy_j == b.energy_j

    @given(bench_names, st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_total_time_monotone_in_count(self, name, n):
        server = default_server()
        bench = get_benchmark(name)
        smaller = run_mix(server, [VMInstance(f"v{i}", bench) for i in range(n - 1)])
        bigger = run_mix(server, [VMInstance(f"v{i}", bench) for i in range(n)])
        assert bigger.total_time_s >= smaller.total_time_s - 1e-9
