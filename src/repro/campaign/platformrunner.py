"""The campaign automation platform.

"The experiments took several days to be completed and they were
conducted using a platform that we developed to automatically run the
benchmarks and process the data."

:func:`run_campaign` chains the full pipeline -- base tests, Table I
extraction, combined tests, record consolidation -- and returns a
:class:`CampaignResult` that can be persisted to the CSV database and
auxiliary file or fed straight into
:class:`repro.core.model.ModelDatabase`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.campaign.base_tests import BaseTestPoint, run_base_tests
from repro.campaign.combined_tests import run_combined_tests
from repro.campaign.csvdb import write_auxiliary_file, write_records_csv
from repro.campaign.optimal import OptimalScenarios, extract_optima
from repro.campaign.records import BenchmarkRecord
from repro.common.rng import RngLike, derive_rng
from repro.common.validation import check_non_negative
from repro.obs.runtime import Observability, get_observability
from repro.testbed.benchmarks import BenchmarkSpec, WorkloadClass
from repro.testbed.contention import ContentionParams
from repro.testbed.meter import PowerMeter
from repro.testbed.spec import ServerSpec, default_server


@dataclass(frozen=True)
class CampaignResult:
    """Everything one full benchmarking campaign produces.

    ``records`` contains the base-test rows *and* the combined-test
    rows ("the information collected from the benchmarking (base and
    combined tests) was stored in a database"), sorted by key.
    """

    server: ServerSpec
    base_curves: Mapping[WorkloadClass, "list[BaseTestPoint]"]
    optima: OptimalScenarios
    records: tuple[BenchmarkRecord, ...]

    @property
    def n_base_tests(self) -> int:
        return sum(len(curve) for curve in self.base_curves.values())

    @property
    def n_combined_tests(self) -> int:
        return len(self.records) - sum(
            1
            for curve in self.base_curves.values()
            for point in curve
            if point.n_vms <= self.optima.optima(point.workload_class).os_bound
        )

    def save(self, directory: str | os.PathLike) -> tuple[str, str]:
        """Persist the database CSV and auxiliary file into a directory.

        Returns the (database_path, auxiliary_path) pair.
        """
        os.makedirs(directory, exist_ok=True)
        db_path = os.path.join(str(directory), "model_database.csv")
        aux_path = os.path.join(str(directory), "auxiliary.csv")
        write_records_csv(self.records, db_path)
        write_auxiliary_file(self.optima, aux_path)
        return db_path, aux_path


def run_campaign(
    server: ServerSpec | None = None,
    params: ContentionParams | None = None,
    max_base_vms: int = 16,
    benchmarks: Mapping[WorkloadClass, BenchmarkSpec] | None = None,
    meter_accuracy: float = 0.0,
    meter_rng: RngLike = None,
    progress: Callable[[str], None] | None = None,
    obs: Observability | None = None,
    mapper: Callable | None = None,
) -> CampaignResult:
    """Run the full benchmarking campaign on an emulated server.

    Parameters
    ----------
    server:
        Benchmarking server; defaults to the reference testbed box.
    params:
        Contention-model coefficients.
    max_base_vms:
        Base-test sweep bound (paper: 16).
    benchmarks:
        Per-class representative benchmarks (defaults to the canonical
        suite).
    meter_accuracy:
        If > 0, measure through the Watts Up? emulation with this
        relative accuracy class (the paper's meter: 0.015); 0 keeps
        the exact integrals, which the deterministic experiments use.
    meter_rng:
        Seed/generator for the meter noise.
    progress:
        Optional ``progress(message)`` callback.
    obs:
        Observability bundle; when enabled, the base-test and
        combined-test phases run under ``campaign.*`` spans and record
        their record counts as ``campaign.*`` counters.
    mapper:
        Optional ``mapper(fn, items, payload)`` fanning the combined
        tests out (see :func:`repro.exec.mapper`); ignored by metered
        campaigns, whose noise stream must stay sequential.  Injected
        rather than imported because the campaign layer sits below the
        execution engine.

    Notes
    -----
    The database keeps the base-test rows only up to the grid bound
    OSx of each class: rows beyond the bound (e.g. the thrashing tail
    of Fig. 2) are measured to *find* the optimum but are useless for
    allocation, since the allocator never considers mixes outside the
    grid.
    """
    server = server or default_server()
    meter = None
    if check_non_negative("meter_accuracy", meter_accuracy) > 0.0:
        meter = PowerMeter(accuracy=meter_accuracy, rng=derive_rng(meter_rng))

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    obs = obs if obs is not None else get_observability()
    tracer = obs.tracer

    say(f"base tests: sweeping 1..{max_base_vms} VMs per class")
    with tracer.span("campaign.base_tests", max_vms=max_base_vms):
        base_curves = run_base_tests(
            server,
            params=params,
            max_vms=max_base_vms,
            benchmarks=benchmarks,
            meter=meter,
        )
        optima = extract_optima(base_curves)
    osc, osm, osi = optima.grid_bounds
    say(f"Table I extracted: OSC={osc} OSM={osm} OSI={osi}")

    say("combined tests: sweeping the (Ncpu, Nmem, Nio) grid")
    with tracer.span("campaign.combined_tests", osc=osc, osm=osm, osi=osi):
        combined = run_combined_tests(
            server,
            optima,
            params=params,
            benchmarks=benchmarks,
            meter=meter,
            mapper=mapper,
        )

    records: list[BenchmarkRecord] = list(combined)
    for workload_class, curve in base_curves.items():
        bound = optima.optima(workload_class).os_bound
        records.extend(point.record for point in curve if point.n_vms <= bound)
    records.sort()
    say(f"campaign complete: {len(records)} database records")
    if obs.enabled:
        registry = obs.registry
        registry.counter("campaign.runs").inc()
        registry.counter("campaign.combined_records").inc(len(combined))
        registry.counter("campaign.base_points").inc(
            sum(len(curve) for curve in base_curves.values())
        )
        registry.counter("campaign.records").inc(len(records))

    return CampaignResult(
        server=server,
        base_curves=dict(base_curves),
        optima=optima,
        records=tuple(records),
    )
