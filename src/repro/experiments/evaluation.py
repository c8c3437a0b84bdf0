"""Figs. 5-7: the full strategy evaluation over both cloud sizes.

One call to :func:`run_evaluation` produces the makespan (Fig. 5),
energy (Fig. 6) and %-SLA-violation (Fig. 7) series for every strategy
on both the SMALLER and LARGER clouds, from a single shared workload
trace requesting (about) 10,000 VMs.

The (cloud, strategy) cells are independent simulations, so with
``jobs > 1`` they fan out over :func:`repro.exec.pmap` -- results,
metrics snapshots and deterministic traces stay bit-identical to the
serial run (see DESIGN.md, "Parallel execution").
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.campaign.platformrunner import CampaignResult, run_campaign
from repro.common.rng import SeedSequenceFactory
from repro.core.model import ModelDatabase
from repro.exec import mapper as exec_mapper
from repro.exec import pmap
from repro.faults import FaultSpec, materialize
from repro.obs.runtime import Observability, get_observability
from repro.experiments.config import LARGER, SMALLER, EvaluationConfig
from repro.experiments.outcomes import EvaluationResult, StrategyOutcome
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator, SimulationResult
from repro.strategies import paper_strategies
from repro.strategies.base import AllocationStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.contention import ContentionParams
from repro.testbed.spec import ServerSpec, default_server
from repro.workloads.assignment import (
    PreparedJob,
    assign_profiles_and_vms,
    total_vms_requested,
    truncate_to_vm_budget,
)
from repro.workloads.cleaning import clean_trace
from repro.workloads.qos import QoSPolicy
from repro.workloads.synthetic import EGEETraceConfig, generate_egee_like_trace


def prepare_workload(
    config: EvaluationConfig,
) -> tuple[list[PreparedJob], int]:
    """Generate, convert, clean, complete and budget the trace.

    Returns (prepared jobs, total VMs requested).  Fully deterministic
    given ``config.seed``.
    """
    seeds = SeedSequenceFactory(config.seed)
    raw = generate_egee_like_trace(
        EGEETraceConfig(
            n_jobs=config.raw_jobs,
            mean_burst_gap_s=config.mean_burst_gap_s,
        ),
        rng=seeds.child("trace"),
    )
    cleaned, _report = clean_trace(raw)
    prepared = assign_profiles_and_vms(cleaned, rng=seeds.child("profiles"))
    prepared = truncate_to_vm_budget(prepared, config.vm_budget)
    return prepared, total_vms_requested(prepared)


@dataclass(frozen=True)
class _CloudSetup:
    """Per-config invariants, built once outside the strategy loop."""

    label: str
    datacenter: DatacenterConfig
    qos: QoSPolicy


@dataclass(frozen=True)
class _EvalPayload:
    """Read-only state shipped to every cell (once per worker)."""

    database: ModelDatabase
    prepared: tuple[PreparedJob, ...]
    clouds: tuple[_CloudSetup, ...]
    strategies: Callable[[ModelDatabase], "list[AllocationStrategy]"]
    #: Declarative fault spec applied to every cell (None = fault-free).
    faults: FaultSpec | None = None


@dataclass(frozen=True)
class _EvalCell:
    """One task: the (config, strategy) coordinates of a cell."""

    config_index: int
    strategy_index: int


def _run_cell(
    payload: _EvalPayload, cell: _EvalCell
) -> tuple[SimulationResult, float]:
    """Simulate one (cloud, strategy) cell; runs serial or in a worker.

    Observability resolves the process default, which inside a
    ``pmap`` task is the private capture bundle -- everything recorded
    here merges back into the parent in input order.
    """
    setup = payload.clouds[cell.config_index]
    strategy = payload.strategies(payload.database)[cell.strategy_index]
    obs = get_observability()
    simulator = DatacenterSimulator(setup.datacenter, obs=obs)
    span = obs.tracer.start("eval.cell", cloud=setup.label, strategy=strategy.name)
    started = time.perf_counter()
    if payload.faults is not None and not payload.faults.is_empty():
        # Materialized per cell: the timeline depends on the cloud's
        # server count but only on the spec's seed, never on the cell's
        # execution order.
        schedule = materialize(payload.faults, setup.datacenter.n_servers)
        result = simulator.run(payload.prepared, strategy, setup.qos, faults=schedule)
    else:
        result = simulator.run(payload.prepared, strategy, setup.qos)
    elapsed = time.perf_counter() - started
    span.end(makespan_s=result.metrics.makespan_s)
    if obs.enabled:
        obs.registry.counter("eval.cells").inc()
        obs.registry.histogram(
            "eval.cell_wall_s",
            unit="s",
            volatile=True,
            cloud=setup.label,
            strategy=strategy.name,
        ).observe(elapsed)
    return result, elapsed


def run_evaluation(
    configs: Sequence[EvaluationConfig] = (SMALLER, LARGER),
    server: ServerSpec | None = None,
    params: ContentionParams | None = None,
    strategies: Callable[[ModelDatabase], "list[AllocationStrategy]"] = paper_strategies,
    campaign: CampaignResult | None = None,
    progress: Callable[[str], None] | None = None,
    obs: Observability | None = None,
    jobs: int = 1,
    faults: FaultSpec | None = None,
    time_budget_s: float | None = None,
    carbon=None,
) -> EvaluationResult:
    """Run the full Figs. 5-7 evaluation.

    Both clouds replay the *same* trace (the paper controls load
    pressure via cloud size, not the trace), produced from the first
    config's trace parameters.

    Parameters
    ----------
    configs:
        The cloud scenarios; default (SMALLER, LARGER).
    server / params:
        Testbed configuration shared by the campaign and the clouds.
    strategies:
        Factory from a model database to the strategy lineup.  For
        ``jobs > 1`` it must be picklable (a module-level function);
        otherwise the evaluation silently falls back to serial with
        the ``exec.fallback_serial`` counter recording the deviation.
    campaign:
        Reuse a previously run campaign (saves rebuilding the model).
    progress:
        Optional ``progress(message)`` callback.
    obs:
        Observability bundle; ``None`` resolves the process-local
        default.  When enabled, the campaign / trace-prep / per-cell
        phases run under ``eval.*`` spans, each (cloud, strategy) cell
        records a volatile ``eval.cell_wall_s`` timing, and the
        simulators inherit the bundle.  Strategies built by the
        ``strategies`` factory resolve the *global* default, so
        install the bundle via :func:`repro.obs.set_observability` (or
        ``repro.obs.observed``) to capture their counters too.
    jobs:
        Worker processes for the (cloud, strategy) cells (and, when the
        campaign is rebuilt here, its combined tests).  ``1`` runs
        serial in-process; any value produces bit-identical outcomes,
        metrics snapshots and deterministic traces (see DESIGN.md,
        "Parallel execution").
    faults:
        Optional :class:`~repro.faults.FaultSpec` injected into every
        (cloud, strategy) cell -- the same declarative schedule,
        materialized per cloud size -- plus the spec's worker-failure
        plan injected into the cell fan-out itself (exercising the
        bounded-retry path).  ``None`` or an empty spec is byte-for-byte
        the fault-free evaluation.
    time_budget_s:
        Optional wall-clock deadline per proactive allocation (forces
        the allocator's anytime search mode; see
        :mod:`repro.core.anytime`).  Only honored when ``strategies``
        accepts the keyword (the default :func:`paper_strategies`
        does); supplying both a budget and a factory that does not is
        a :class:`TypeError` at lineup-construction time.
    carbon:
        Optional carbon scenario (duck-typed
        :class:`repro.ext.carbon.CarbonOptions`): attaches the temporal
        signals to every cloud for per-interval carbon/cost accounting,
        optionally folds the carbon axis into the proactive score
        (``alpha_carbon > 0``, forwarded to the ``strategies`` factory
        like ``time_budget_s``), and optionally shifts deferrable jobs
        toward cheap/green windows before the simulation.  ``None`` is
        byte-for-byte the signal-free evaluation.
    """
    if time_budget_s is not None:
        strategies = functools.partial(strategies, time_budget_s=time_budget_s)
    if carbon is not None:
        context = carbon.allocator_context()
        if context is not None:
            strategies = functools.partial(strategies, carbon=context)
    server = server or default_server()
    obs = obs if obs is not None else get_observability()
    tracer = obs.tracer

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    if campaign is None:
        say("running benchmarking campaign")
        with tracer.span("eval.campaign"):
            # The combined-test mapper routes through the same engine
            # at every worker count, keeping the jobs=1 and jobs=N
            # snapshots key-for-key identical.
            campaign = run_campaign(
                server=server,
                params=params,
                obs=obs,
                mapper=exec_mapper(jobs, obs),
            )
    database = ModelDatabase.from_campaign(campaign)

    say("preparing workload trace")
    with tracer.span("eval.prepare_workload", seed=configs[0].seed):
        prepared, n_vms = prepare_workload(configs[0])
    say(f"trace: {len(prepared)} jobs, {n_vms} VMs")
    if obs.enabled:
        obs.registry.counter("eval.jobs").inc(len(prepared))
        obs.registry.counter("eval.vms").inc(n_vms)

    if carbon is not None:
        # One shift for the shared trace (both clouds replay the same
        # jobs), bounded by the first config's QoS budget -- identical
        # to the per-cloud budget whenever qos_factor matches.
        prepared, moved = carbon.apply_shift(
            prepared,
            QoSPolicy.from_optima(campaign.optima, factor=configs[0].qos_factor),
            {cls: campaign.optima.reference_time(cls) for cls in WorkloadClass},
        )
        if moved:
            say(f"shifted {moved} deferrable jobs toward cheap/green windows")
        if obs.enabled:
            obs.registry.counter("shift.moved_jobs").inc(moved)

    # Per-config invariants (QoS policy, datacenter config) are built
    # once here, not once per strategy: the strategy loop only varies
    # the allocator.
    clouds = tuple(
        _CloudSetup(
            label=config.label,
            datacenter=DatacenterConfig(
                n_servers=config.n_servers,
                server_spec=server,
                params=params,
                signals=carbon.signals if carbon is not None else None,
            ),
            qos=QoSPolicy.from_optima(campaign.optima, factor=config.qos_factor),
        )
        for config in configs
    )
    n_strategies = len(strategies(database))
    payload = _EvalPayload(
        database=database,
        prepared=tuple(prepared),
        clouds=clouds,
        strategies=strategies,
        faults=faults if faults is not None and not faults.is_empty() else None,
    )
    cells = [
        _EvalCell(config_index=ci, strategy_index=si)
        for ci in range(len(configs))
        for si in range(n_strategies)
    ]

    def announce(index: int, value: "tuple[SimulationResult, float]") -> None:
        result, elapsed = value
        metrics = result.metrics
        say(
            f"{clouds[index // n_strategies].label:8s} {result.strategy_name:8s} "
            f"makespan={metrics.makespan_s:.0f}s "
            f"energy={metrics.energy_j / 1e3:.0f}kJ "
            f"SLA={metrics.sla_violation_pct:.1f}% [{elapsed:.1f}s]"
        )

    worker_failures = faults.worker_failures if faults is not None else {}
    values = pmap(
        _run_cell,
        cells,
        jobs=jobs,
        payload=payload,
        obs=obs,
        on_result=announce,
        fault_plan=worker_failures or None,
    )
    outcomes = tuple(
        StrategyOutcome.from_result(
            clouds[cell.config_index].label, result, elapsed
        )
        for cell, (result, elapsed) in zip(cells, values)
    )

    return EvaluationResult(
        outcomes=outcomes,
        n_jobs=len(prepared),
        n_vms=n_vms,
        campaign=campaign,
    )
