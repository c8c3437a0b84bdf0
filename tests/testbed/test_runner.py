"""Unit tests for the mix runner."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import get_benchmark
from repro.testbed.meter import PowerMeter
from repro.testbed.runner import MixRunResult, VMInstance, run_mix
from repro.testbed.spec import Subsystem, default_server
from tests.oracles.runner import reference_run_mix


@pytest.fixture
def server():
    return default_server()


def instances(name, n, **kwargs):
    return [VMInstance(f"{name}-{i}", get_benchmark(name), **kwargs) for i in range(n)]


def exec_time(result, vm_id):
    """Placement to finish of one VM of a run."""
    outcome = next(o for o in result.outcomes if o.vm_id == vm_id)
    return outcome.finish_s - outcome.start_s


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

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_non_finite_offset_rejected_at_construction(self, offset):
        with pytest.raises(ConfigurationError, match=f"start_offset_s must be finite and >= 0, got {offset}"):
            VMInstance("x", get_benchmark("fftw"), start_offset_s=offset)

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
        paired = exec_time(run_mix(server, [VMInstance("f", fftw), VMInstance("s", short)]), "f")
        full = exec_time(run_mix(server, [VMInstance("f", fftw), VMInstance("f2", fftw)]), "f")
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
        assert exec_time(result, "a") < exec_time(result, "b") + 100.0
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
    def test_n_vms(self, server):
        assert run_mix(server, instances("fftw", 3)).n_vms == 3


class TestOracle:
    """``run_mix`` advances groups of identical VMs on interned kind
    records; the per-VM oracle (``tests/oracles/runner.py``) builds a
    view per VM per step and prices it with the naive ``slowdowns`` +
    ``subsystem_loads`` pair.  Every run must come out equal, float
    for float: segments, load profile, outcomes, energy, max power and
    the meter reading."""

    @staticmethod
    def twin():
        """A spec sharing fftw's name, with different demands."""
        twin = dataclasses.replace(
            get_benchmark("fftw"),
            demands={Subsystem.CPU: 0.4, Subsystem.MEMORY: 0.9, Subsystem.DISK: 0.3},
        )
        assert twin.name == "fftw" and twin != get_benchmark("fftw")
        return twin

    @classmethod
    def pool(cls):
        no_init = dataclasses.replace(get_benchmark("sysbench"), serial_fraction=0.0)
        return [get_benchmark(name) for name in ("fftw", "sysbench", "b_eff_io", "bonnie")] + [
            cls.twin(),
            no_init,
        ]

    @staticmethod
    def check(server, vms, meter_seed=None):
        def meter():
            if meter_seed is None:
                return None
            return PowerMeter(period_s=25.0, accuracy=0.015, rng=meter_seed)

        fast = run_mix(server, vms, meter=meter())
        slow = reference_run_mix(server, vms, meter=meter())
        assert fast.segments == slow.segments
        assert fast.load_profile == slow.load_profile
        assert fast.outcomes == slow.outcomes
        assert fast.energy_j == slow.energy_j
        assert fast.max_power_w == slow.max_power_w
        assert fast.meter_reading == slow.meter_reading
        assert fast == slow
        return fast

    @st.composite
    def mixes(draw):
        pool = TestOracle.pool()
        n = draw(st.integers(min_value=1, max_value=default_server().max_vms))
        specs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        # Few distinct offsets: ties, idle gaps and joins mid-stage.
        offsets = draw(
            st.lists(st.sampled_from([0.0, 0.0, 40.0, 300.0, 2500.0]), min_size=n, max_size=n)
        )
        ids = draw(st.permutations(range(n)))
        vms = [VMInstance(f"v{i}", spec, offset) for i, spec, offset in zip(ids, specs, offsets)]
        meter_seed = draw(st.none() | st.integers(min_value=0, max_value=2**16))
        return vms, meter_seed

    @settings(max_examples=60, deadline=None)
    @given(mixes())
    def test_equals_per_vm_oracle(self, mix):
        vms, meter_seed = mix
        self.check(default_server(), vms, meter_seed)

    def test_staggered_offsets_with_ties_and_idle_gaps(self, server):
        fftw, sysbench = get_benchmark("fftw"), get_benchmark("sysbench")
        vms = [
            VMInstance("a", fftw, 40.0),
            VMInstance("b", sysbench, 40.0),
            VMInstance("c", fftw, 40.0),
            VMInstance("d", fftw, 5000.0),
            VMInstance("e", sysbench, 300.0),
        ]
        result = self.check(server, vms)
        idle = [w for t0, t1, w in result.segments if w == server.power.idle_w]
        assert len(idle) == 2  # before the first arrival and before "d"

    def test_twin_specs_sharing_a_name(self, server):
        fftw, twin = get_benchmark("fftw"), self.twin()
        vms = [VMInstance(f"t{i}", spec) for i, spec in enumerate((fftw, twin, fftw, twin, twin))]
        result = self.check(server, vms)
        assert exec_time(result, "t0") == exec_time(result, "t2")
        assert exec_time(result, "t0") != exec_time(result, "t1")

    def test_thrashing_crowd(self, server):
        crowd = instances("fftw", 8) + instances("sysbench", 6)
        assert sum(vm.benchmark.ram_gb for vm in crowd) > server.usable_ram_gb
        self.check(server, crowd)

    def test_single_vm(self, server):
        self.check(server, instances("bonnie", 1))

    def test_metered_path(self, server):
        result = self.check(server, instances("fftw", 3) + instances("b_eff_io", 2), meter_seed=7)
        assert result.meter_reading is not None
