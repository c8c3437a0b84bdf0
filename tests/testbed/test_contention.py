"""Unit tests for the contention model."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import BENCHMARKS, get_benchmark
from repro.testbed.contention import ActiveVM, ContentionParams, MixModel, stage_kinds
from repro.testbed.spec import Subsystem, default_server
from tests.oracles.runner import view_of, view_record


@pytest.fixture
def model():
    return MixModel(default_server())


def vm(name="fftw", scale=1.0, contended=True):
    return ActiveVM(get_benchmark(name), demand_scale=scale, contended=contended)


class TestParams:
    def test_defaults_valid(self):
        ContentionParams()

    def test_negative_coeff_rejected(self):
        with pytest.raises(ConfigurationError):
            ContentionParams(thrash_coeff=-1.0)

    def test_sublinear_thrash_rejected(self):
        with pytest.raises(ConfigurationError):
            ContentionParams(thrash_exponent=0.5)


class TestLoads:
    def test_single_cpu_vm(self, model):
        loads = model.subsystem_loads([vm()])
        assert loads[Subsystem.CPU] == pytest.approx(1.0 / 4.0)

    def test_loads_additive(self, model):
        one = model.subsystem_loads([vm()])
        two = model.subsystem_loads([vm(), vm()])
        assert two[Subsystem.CPU] == pytest.approx(2 * one[Subsystem.CPU])

    def test_demand_scale_applies(self, model):
        init = model.subsystem_loads([vm(scale=0.2)])
        work = model.subsystem_loads([vm(scale=1.0)])
        assert init[Subsystem.CPU] == pytest.approx(0.2 * work[Subsystem.CPU])

    def test_loads_can_exceed_one(self, model):
        loads = model.subsystem_loads([vm() for _ in range(8)])
        assert loads[Subsystem.CPU] == pytest.approx(2.0)


class TestSlowdown:
    def test_solo_vm_no_slowdown(self, model):
        solo = vm()
        assert model.slowdown(solo, [solo]) == pytest.approx(1.0)

    def test_uncontended_phase_only_pays_virt(self, model):
        init = vm(contended=False, scale=0.2)
        mix = [init] + [vm() for _ in range(5)]
        assert model.slowdown(init, mix) == pytest.approx(model.virt_factor(mix))

    def test_oversubscription_stretches(self, model):
        mix = [vm() for _ in range(8)]  # rho_cpu = 2
        assert model.slowdown(mix[0], mix) > 1.5

    def test_complementary_classes_contend_less(self, model):
        cpu_mix = [vm("fftw") for _ in range(4)]
        mixed = [vm("fftw"), vm("fftw"), vm("b_eff_io"), vm("b_eff_io")]
        assert model.slowdown(mixed[0], mixed) < model.slowdown(cpu_mix[0], cpu_mix)

    def test_slowdowns_bulk_matches_scalar(self, model):
        mix = [vm("fftw"), vm("sysbench"), vm("b_eff_io"), vm("fftw")]
        bulk = model.slowdowns(mix)
        for one_vm, value in zip(mix, bulk):
            assert value == pytest.approx(model.slowdown(one_vm, mix))

    def test_empty_mix(self, model):
        assert model.slowdowns([]) == []


class TestThrash:
    def test_no_thrash_within_ram(self, model):
        assert model.thrash_factor([vm() for _ in range(4)]) == 1.0

    def test_thrash_beyond_ram(self, model):
        mix = [vm() for _ in range(12)]  # 12 * 0.35 GB > 3.3 GB usable
        assert model.thrash_factor(mix) > 1.0

    def test_thrash_monotone_in_occupancy(self, model):
        f12 = model.thrash_factor([vm() for _ in range(12)])
        f14 = model.thrash_factor([vm() for _ in range(14)])
        assert f14 > f12


class TestInterference:
    def test_same_class_hurts_more(self, model):
        same = [vm("fftw"), vm("fftw")]
        cross = [vm("fftw"), vm("b_eff_io")]
        assert model.interference_factor(same[0], same) > model.interference_factor(
            cross[0], cross
        )

    def test_vm_must_be_member(self, model):
        outsider = vm()
        with pytest.raises(ValueError):
            model.interference_factor(outsider, [vm(), vm()])

    def test_duplicate_instances_counted_once_for_self(self, model):
        a = vm()
        mix = [a, a]  # same object twice: self excluded exactly once
        assert model.interference_factor(a, mix) == pytest.approx(
            1.0 + model.params.same_class_interference
        )


class TestBottleneck:
    def test_weighted_blend_ignores_unused_subsystems(self, model):
        # A saturated disk barely slows a CPU-bound code with a 2% disk demand.
        mix = [vm("fftw")] + [vm("bonnie") for _ in range(4)]
        loads = model.subsystem_loads(mix)
        assert loads[Subsystem.DISK] > 1.5
        stretch = model.bottleneck_factor(mix[0], loads)
        assert stretch < 1.2

    def test_virt_factor_grows_linearly(self, model):
        f2 = model.virt_factor([vm(), vm()])
        f3 = model.virt_factor([vm(), vm(), vm()])
        assert f3 - f2 == pytest.approx(model.params.virt_overhead_per_vm)

    def test_virt_factor_solo_is_one(self, model):
        assert model.virt_factor([vm()]) == 1.0


class TestSlowdownsAndLoads:
    """The fused fast path must equal the naive pair bit for bit.

    The simulator's mix-physics memo caches what this method returns
    (see ServerRuntime._mix_physics), so any last-bit divergence here
    would break the indexed-vs-naive identity contract.
    """

    NAMES = ("fftw", "sysbench", "bonnie")

    def mixes(self):
        import itertools
        import random

        rng = random.Random(20110516)
        yield []
        for n in range(1, 5):
            for names in itertools.product(self.NAMES, repeat=n):
                # A contended 0.0 scale has zero total demand, the
                # bottleneck-factor-is-1.0 branch.
                yield [
                    vm(
                        name,
                        scale=rng.choice([0.0, 0.2, 1.0]),
                        contended=rng.choice([True, False]),
                    )
                    for name in names
                ]
        # A crowd deep into thrashing territory, duplicates included.
        yield [vm(rng.choice(self.NAMES)) for _ in range(14)]
        yield self.twin_mix()

    @staticmethod
    def twin_mix():
        """Two distinct specs sharing a name, with different demands."""
        fftw = get_benchmark("fftw")
        twin = dataclasses.replace(
            fftw, demands={Subsystem.CPU: 0.4, Subsystem.MEMORY: 0.9, Subsystem.DISK: 0.3}
        )
        assert twin.name == fftw.name
        return [ActiveVM(spec) for spec in (fftw, twin, fftw, twin, fftw, twin, twin)]

    @staticmethod
    def interned(mix):
        """The mix's records, one shared record per kind, as a kind
        registry or the testbed runner hands them over."""
        records = {}
        return [
            records.setdefault(
                (id(view.benchmark), view.demand_scale, view.contended), view_record(view)
            )
            for view in mix
        ]

    def test_bit_identical_to_naive_pair(self, model):
        for mix in self.mixes():
            fast_slowdowns, fast_loads = model.slowdowns_and_loads(self.interned(mix))
            assert fast_slowdowns == model.slowdowns(mix)
            assert dict(fast_loads) == dict(model.subsystem_loads(mix))

    def test_kind_records_equal_views(self, model):
        # Fresh records per VM skip the shared-kind reuse.
        for mix in self.mixes():
            records = [view_record(view) for view in mix]
            slowdowns, loads = model.slowdowns_and_loads(records)
            assert slowdowns == model.slowdowns(mix)
            assert dict(loads) == dict(model.subsystem_loads(mix))

    def test_stage_kinds_are_the_stage_views_records(self):
        no_init = dataclasses.replace(get_benchmark("sysbench"), serial_fraction=0.0)
        for spec in [*BENCHMARKS.values(), self.twin_mix()[1].benchmark, no_init]:
            init, work = stage_kinds(spec)
            assert init == view_record(view_of(spec, 0))
            assert work == view_record(view_of(spec, 1))
            assert init.benchmark is spec and work.benchmark is spec

    def test_same_name_specs_are_not_conflated(self, model):
        mix = self.twin_mix()
        slowdowns, loads = model.slowdowns_and_loads(self.interned(mix))
        assert slowdowns == model.slowdowns(mix)
        assert dict(loads) == dict(model.subsystem_loads(mix))
        assert slowdowns[0] != slowdowns[1]
        assert slowdowns[0] == slowdowns[2] and slowdowns[1] == slowdowns[3]

    def test_duplicate_kinds_share_exact_floats(self, model):
        mix = [vm("sysbench"), vm("sysbench"), vm("sysbench")]
        slowdowns, _loads = model.slowdowns_and_loads(self.interned(mix))
        assert slowdowns[0] == slowdowns[1] == slowdowns[2]
        assert slowdowns == model.slowdowns(mix)
