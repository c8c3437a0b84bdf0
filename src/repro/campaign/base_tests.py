"""Base tests: same-class consolidation curves (paper Sect. III-B).

"...firstly, we conducted a set of base tests that consolidate
different VM instances running applications of the same type in a
single server. ... We ran the base experiments with different number of
VMs (up to 16) running the same application type for each of the
application's profiles."

The output per class is the curve of Fig. 2: total time, average
execution time per VM, energy and max power as a function of the VM
count, from which :mod:`repro.campaign.optimal` extracts Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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


@dataclass(frozen=True)
class BaseTestPoint:
    """One point of a base-test curve."""

    workload_class: WorkloadClass
    n_vms: int
    record: BenchmarkRecord

    @property
    def avg_time_vm_s(self) -> float:
        return self.record.avg_time_vm_s

    @property
    def energy_per_vm_j(self) -> float:
        return self.record.energy_j / self.n_vms


def _key_for(workload_class: WorkloadClass, n: int) -> MixKey:
    if workload_class is WorkloadClass.CPU:
        return (n, 0, 0)
    if workload_class is WorkloadClass.MEM:
        return (0, n, 0)
    return (0, 0, n)


def run_base_tests(
    server: ServerSpec,
    params: ContentionParams | None = None,
    max_vms: int = 16,
    classes: Sequence[WorkloadClass] = WORKLOAD_CLASSES,
    benchmarks: Mapping[WorkloadClass, BenchmarkSpec] | None = None,
    meter: PowerMeter | None = None,
    progress: Callable[[WorkloadClass, int], None] | None = None,
) -> dict[WorkloadClass, list[BaseTestPoint]]:
    """Run the base-test sweep for each workload class.

    Parameters
    ----------
    server:
        The (emulated) benchmarking server.
    params:
        Contention-model coefficients.
    max_vms:
        Upper end of the sweep; the paper used 16.
    classes:
        Which classes to sweep (all three by default).
    benchmarks:
        Representative benchmark per class; defaults to the canonical
        suite (fftw / sysbench / b_eff_io).
    meter:
        Optional power-meter emulation.  When given, the recorded
        energy and max power come from the sampled, noisy meter
        reading (as on the real testbed) instead of the exact profile
        integral.
    progress:
        Optional callback invoked as ``progress(workload_class, n)``
        before each run; the paper's campaign "took several days", ours
        takes seconds, but long sweeps still deserve a progress hook.

    Returns
    -------
    dict mapping each class to its curve, ordered by VM count.
    """
    if max_vms < 1:
        raise ConfigurationError(f"max_vms must be >= 1, got {max_vms}")
    if max_vms > server.max_vms:
        raise ConfigurationError(
            f"max_vms={max_vms} exceeds server limit of {server.max_vms}"
        )
    curves: dict[WorkloadClass, list[BaseTestPoint]] = {}
    for workload_class in classes:
        workload_class = WorkloadClass(workload_class)
        benchmark = (
            benchmarks[workload_class]
            if benchmarks is not None
            else canonical_benchmark(workload_class)
        )
        # Each run's VMs are a prefix of the largest run's.
        pool = [VMInstance(f"{workload_class.value}-{i}", benchmark) for i in range(max_vms)]
        curve: list[BaseTestPoint] = []
        for n in range(1, max_vms + 1):
            if progress is not None:
                progress(workload_class, n)
            result = run_mix(server, pool[:n], params=params, meter=meter)
            if meter is not None and result.meter_reading is not None:
                energy = float(result.meter_reading.energy_j)
                max_power = float(result.meter_reading.max_power_w)
            else:
                energy = float(result.energy_j)
                max_power = float(result.max_power_w)
            record = BenchmarkRecord.from_measurement(
                _key_for(workload_class, n),
                time_s=float(result.total_time_s),
                energy_j=energy,
                max_power_w=max_power,
            )
            curve.append(BaseTestPoint(workload_class, n, record))
        curves[workload_class] = curve
    return curves
