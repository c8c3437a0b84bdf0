"""Combined tests: all cross-class mixes (paper Sect. III-B).

"The second part of the benchmarking consists of running all the
possible combinations of workload types with different number of VMs.
Considering the limitations introduced previously, the following number
of experiments were required:
``(OSC+1)*(OSM+1)*(OSI+1) - (1+OSC+OSM+OSI)``.
The combinations excluded are those that do not require any VM of each
workload type [the all-zero combination] and the base tests
[single-class combinations]."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.campaign.optimal import OptimalScenarios
from repro.campaign.records import BenchmarkRecord, MixKey
from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import (
    WORKLOAD_CLASSES,
    BenchmarkSpec,
    WorkloadClass,
    canonical_benchmark,
)
from repro.testbed.contention import ContentionParams
from repro.testbed.meter import PowerMeter
from repro.testbed.runner import VMInstance, run_mix
from repro.testbed.spec import ServerSpec


def expected_combination_count(osc: int, osm: int, osi: int) -> int:
    """The paper's experiment-count formula for the combined tests."""
    for name, value in (("osc", osc), ("osm", osm), ("osi", osi)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return (osc + 1) * (osm + 1) * (osi + 1) - (1 + osc + osm + osi)


def combination_grid(osc: int, osm: int, osi: int) -> Iterator[MixKey]:
    """Yield the combined-test keys in ascending (Ncpu, Nmem, Nio) order.

    Excludes the all-zero key and the pure single-class keys (base
    tests); yields exactly :func:`expected_combination_count` keys.
    """
    for ncpu in range(osc + 1):
        for nmem in range(osm + 1):
            for nio in range(osi + 1):
                nonzero_dims = (ncpu > 0) + (nmem > 0) + (nio > 0)
                if nonzero_dims >= 2:
                    yield (ncpu, nmem, nio)


def _instance_pools(
    bounds: MixKey,
    benchmarks: Mapping[WorkloadClass, BenchmarkSpec] | None,
) -> list[list[VMInstance]]:
    """Per class (CPU, MEM, IO), the VM instances of the ``bounds`` mix.

    Instances are immutable and named by class and index, so every mix
    within the bounds is made of prefixes of these lists.
    """
    pools = []
    for workload_class, count in zip(WORKLOAD_CLASSES, bounds):
        benchmark = (
            benchmarks[workload_class]
            if benchmarks is not None
            else canonical_benchmark(workload_class)
        )
        prefix = workload_class.value
        pools.append([VMInstance(f"{prefix}-{i}", benchmark) for i in range(count)])
    return pools


def build_mix_instances(
    key: MixKey,
    benchmarks: Mapping[WorkloadClass, BenchmarkSpec] | None = None,
) -> list[VMInstance]:
    """Materialize the VM instances of a (Ncpu, Nmem, Nio) mix."""
    cpu, mem, io = _instance_pools(key, benchmarks)
    return cpu + mem + io


@dataclass(frozen=True)
class _MixPayload:
    """Read-only state every combined-test mix needs (mapper path)."""

    server: ServerSpec
    params: ContentionParams | None
    benchmarks: Mapping[WorkloadClass, BenchmarkSpec] | None


def _measure_mix(payload: _MixPayload, key: MixKey) -> BenchmarkRecord:
    """Measure one mix; the mapper path never carries a meter (its
    noise stream is sequential by contract, so metered campaigns stay
    on the serial loop)."""
    instances = build_mix_instances(key, payload.benchmarks)
    result = run_mix(payload.server, instances, params=payload.params)
    return BenchmarkRecord.from_measurement(
        key,
        time_s=float(result.total_time_s),
        energy_j=float(result.energy_j),
        max_power_w=float(result.max_power_w),
    )


def run_combined_tests(
    server: ServerSpec,
    optima: OptimalScenarios,
    params: ContentionParams | None = None,
    benchmarks: Mapping[WorkloadClass, BenchmarkSpec] | None = None,
    meter: PowerMeter | None = None,
    progress: Callable[[MixKey], None] | None = None,
    mapper: Callable[[Callable, Sequence, object], list] | None = None,
) -> list[BenchmarkRecord]:
    """Run every combined-test mix and return its Table II records.

    The grid bounds come from the base tests' Table I via
    ``optima.grid_bounds``; mixes larger than the server's VM limit are
    rejected up front (a configuration problem: the base tests should
    have bounded OSx below it).

    ``mapper`` optionally fans the grid out: a ``mapper(fn, items,
    payload)`` callable (e.g. one bound by :func:`repro.exec.mapper`)
    receives the per-mix worker and the grid keys and must return the
    records in key order.  This layer cannot import the engine (it
    sits below it), hence the injection.  A metered campaign ignores
    the mapper: the Watts Up? noise stream draws sequentially from one
    generator, which only the serial loop preserves.
    """
    osc, osm, osi = optima.grid_bounds
    worst_case = osc + osm + osi
    if worst_case > server.max_vms:
        raise ConfigurationError(
            f"grid corner ({osc},{osm},{osi}) needs {worst_case} VMs but the "
            f"server supports {server.max_vms}; re-run base tests with a "
            f"tighter max or a larger server"
        )
    keys = list(combination_grid(osc, osm, osi))
    if mapper is not None and meter is None:
        if progress is not None:
            for key in keys:
                progress(key)
        payload = _MixPayload(server=server, params=params, benchmarks=benchmarks)
        return list(mapper(_measure_mix, keys, payload))
    cpu, mem, io = _instance_pools((osc, osm, osi), benchmarks)
    records: list[BenchmarkRecord] = []
    for key in keys:
        if progress is not None:
            progress(key)
        ncpu, nmem, nio = key
        instances = cpu[:ncpu] + mem[:nmem] + io[:nio]
        result = run_mix(server, instances, params=params, meter=meter)
        if meter is not None and result.meter_reading is not None:
            energy = float(result.meter_reading.energy_j)
            max_power = float(result.meter_reading.max_power_w)
        else:
            energy = float(result.energy_j)
            max_power = float(result.max_power_w)
        records.append(
            BenchmarkRecord.from_measurement(
                key,
                time_s=float(result.total_time_s),
                energy_j=energy,
                max_power_w=max_power,
            )
        )
    return records
