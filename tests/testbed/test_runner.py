"""Unit tests for the mix runner."""

import pytest

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import get_benchmark
from repro.testbed.contention import MixModel
from repro.testbed.meter import PowerMeter
from repro.testbed.runner import MixRunResult, VMInstance, run_mix
from repro.testbed.spec import Subsystem, default_server


@pytest.fixture
def server():
    return default_server()


def instances(name, n, **kwargs):
    return [VMInstance(f"{name}-{i}", get_benchmark(name), **kwargs) for i in range(n)]


class TestValidation:
    def test_empty_mix_rejected(self, server):
        with pytest.raises(ConfigurationError):
            run_mix(server, [])

    def test_duplicate_ids_rejected(self, server):
        fftw = get_benchmark("fftw")
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_mix(server, [VMInstance("a", fftw), VMInstance("a", fftw)])

    def test_over_capacity_rejected(self, server):
        with pytest.raises(ConfigurationError, match="exceeds"):
            run_mix(server, instances("fftw", server.max_vms + 1))

    def test_negative_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            VMInstance("x", get_benchmark("fftw"), start_offset_s=-1.0)

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            VMInstance("", get_benchmark("fftw"))


class TestSoloRun:
    def test_solo_time_equals_t_ref(self, server):
        result = run_mix(server, instances("fftw", 1))
        assert result.total_time_s == pytest.approx(600.0, rel=1e-6)

    def test_solo_energy_positive(self, server):
        result = run_mix(server, instances("fftw", 1))
        assert result.energy_j > 0
        assert result.max_power_w > 125.0

    def test_avg_time_vm(self, server):
        result = run_mix(server, instances("fftw", 4))
        assert result.avg_time_vm_s == pytest.approx(result.total_time_s / 4)

    def test_edp(self, server):
        result = run_mix(server, instances("fftw", 1))
        assert result.edp == pytest.approx(result.energy_j * result.total_time_s)


class TestMixDynamics:
    def test_heterogeneous_mix_finishes_at_different_times(self, server):
        vms = instances("fftw", 2) + instances("b_eff_io", 2)
        result = run_mix(server, vms)
        finishes = {o.finish_s for o in result.outcomes}
        assert len(finishes) >= 2  # classes complete at distinct times

    def test_total_time_is_max_finish(self, server):
        vms = instances("fftw", 2) + instances("sysbench", 1)
        result = run_mix(server, vms)
        assert result.total_time_s == max(o.finish_s for o in result.outcomes)

    def test_contention_stretches_time(self, server):
        solo = run_mix(server, instances("fftw", 1)).total_time_s
        crowded = run_mix(server, instances("fftw", 8)).total_time_s
        assert crowded > solo * 1.5

    def test_survivors_speed_up_after_finish(self, server):
        # fftw alongside a shorter benchmark: the fftw VM should finish
        # faster than in a full-duration 2-fftw mix.
        fftw = get_benchmark("fftw")
        short = get_benchmark("sysbench")
        paired = run_mix(
            server, [VMInstance("f", fftw), VMInstance("s", short)]
        ).exec_time_of("f")
        full = run_mix(
            server, [VMInstance("f", fftw), VMInstance("f2", fftw)]
        ).exec_time_of("f")
        assert paired <= full * 1.01

    def test_segments_are_contiguous(self, server):
        result = run_mix(server, instances("fftw", 3))
        for (t0, t1, _), (n0, _, _) in zip(result.segments, result.segments[1:]):
            assert n0 == pytest.approx(t1)
        assert result.segments[0][0] == 0.0

    def test_energy_equals_segment_integral(self, server):
        result = run_mix(server, instances("fftw", 3))
        total = sum((t1 - t0) * w for t0, t1, w in result.segments)
        assert result.energy_j == pytest.approx(total)


class TestStaggeredStart:
    def test_offset_delays_start(self, server):
        fftw = get_benchmark("fftw")
        result = run_mix(
            server,
            [VMInstance("a", fftw), VMInstance("b", fftw, start_offset_s=100.0)],
        )
        assert result.exec_time_of("a") < result.exec_time_of("b") + 100.0
        b = next(o for o in result.outcomes if o.vm_id == "b")
        assert b.start_s == 100.0
        assert b.finish_s > 100.0

    def test_idle_gap_before_first_arrival(self, server):
        fftw = get_benchmark("fftw")
        result = run_mix(server, [VMInstance("a", fftw, start_offset_s=50.0)])
        # The first segment is the idle wait at idle power.
        t0, t1, w = result.segments[0]
        assert (t0, t1) == (0.0, 50.0)
        assert w == pytest.approx(server.power.idle_w)


class TestMeterAttachment:
    def test_meter_reading_attached(self, server):
        result = run_mix(server, instances("fftw", 2), meter=PowerMeter())
        assert result.meter_reading is not None
        assert result.meter_reading.energy_j == pytest.approx(result.energy_j, rel=0.05)

    def test_no_meter_no_reading(self, server):
        assert run_mix(server, instances("fftw", 1)).meter_reading is None


class TestResultAccessors:
    def test_exec_time_of_unknown_vm(self, server):
        result = run_mix(server, instances("fftw", 1))
        with pytest.raises(KeyError):
            result.exec_time_of("nope")

    def test_n_vms(self, server):
        assert run_mix(server, instances("fftw", 3)).n_vms == 3


class TestFusedPhysics:
    """``run_mix`` prices each step with ``MixModel.slowdowns_and_loads``;
    with the naive ``slowdowns`` + ``subsystem_loads`` pair patched in
    its place, every run must come out equal, float for float."""

    NAMES = ("fftw", "sysbench", "bonnie")

    @classmethod
    def mixes(cls, server):
        import dataclasses
        import random

        rng = random.Random(20110516)
        # Staggered arrivals: idle gaps, joins mid-stage, ties.
        yield [
            VMInstance(f"s{i}", get_benchmark(rng.choice(cls.NAMES)), rng.choice([0.0, 40.0, 40.0, 300.0]))
            for i in range(6)
        ]
        # A crowd deep into thrashing territory.
        crowd = [VMInstance(f"c{i}", get_benchmark(rng.choice(cls.NAMES))) for i in range(14)]
        assert sum(vm.benchmark.ram_gb for vm in crowd) > server.usable_ram_gb
        yield crowd
        # Two distinct specs sharing a name, with different demands.
        fftw = get_benchmark("fftw")
        twin = dataclasses.replace(
            fftw, demands={Subsystem.CPU: 0.4, Subsystem.MEMORY: 0.9, Subsystem.DISK: 0.3}
        )
        yield [VMInstance(f"t{i}", spec) for i, spec in enumerate((fftw, twin, fftw, twin, twin))]

    def test_equals_naive_pair(self, server, monkeypatch):
        fused = [run_mix(server, mix) for mix in self.mixes(server)]
        calls = []

        def naive_pair(model, mix):
            calls.append(len(mix))
            return model.slowdowns(mix), model.subsystem_loads(mix)

        monkeypatch.setattr(MixModel, "slowdowns_and_loads", naive_pair)
        naive = [run_mix(server, mix) for mix in self.mixes(server)]
        assert max(calls) >= 12
        for fast, slow in zip(fused, naive):
            assert fast.segments == slow.segments
            assert fast.load_profile == slow.load_profile
            assert fast.outcomes == slow.outcomes
            assert fast.energy_j == slow.energy_j
            assert fast == slow
