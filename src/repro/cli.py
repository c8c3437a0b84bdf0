"""Command-line interface.

``python -m repro <command>`` drives the reproduction end to end:

* ``profile``   -- profile benchmarks, print Fig. 1-style summaries,
* ``campaign``  -- run the benchmarking campaign and write the CSV
  database + auxiliary file,
* ``allocate``  -- load a model from disk and place a described batch,
* ``evaluate``  -- the Figs. 5-7 evaluation at a chosen VM budget,
  optionally under a deterministic fault schedule (``--faults``),
* ``fig2``      -- print the FFTW base curve as an ASCII chart,
* ``serve``     -- run the long-lived allocation service (HTTP, see
  :mod:`repro.service` and README "Allocation as a service"),
* ``lint``      -- run the repo invariant linter (see
  :mod:`repro.analysis` and DESIGN.md "Enforced invariants").

Observability (``allocate``/``evaluate``/``reproduce``): ``--trace
PATH`` captures a JSONL span trace, ``--metrics PATH`` writes the
deterministic metrics snapshot, and ``--format json`` prints the
command's result (including the snapshot) as one JSON document -- see
README "Observability".

Every ``--format json`` document is built on the versioned wire schema
(:mod:`repro.service.schema`, ``schema_version: "1"``): the plan the
CLI prints is byte-identical to the one the service returns for the
same inputs, modulo the surrounding envelope.  Typed-flag validation
routes through :mod:`repro.common.validation`, the same parsers the
service applies to request bodies -- one bad value, one message, on
both surfaces.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import (
    AllocationError,
    ConfigurationError,
    FaultSpecError,
    ReproError,
    TraceFormatError,
    UnplaceableJobError,
)
from repro.common.lazy import lazy_exports
from repro.common.validation import (
    parse_alpha,
    parse_alpha_carbon,
    parse_format,
    parse_jobs,
    parse_meter_accuracy,
    parse_port,
    parse_shards,
    parse_time_budget,
    typed_flag,
)
from repro.experiments.config import LARGER, SMALLER, EvaluationConfig
from repro.ext.carbon.signal import (
    TemporalSignals,
    parse_carbon_signal,
    parse_price_signal,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import Observability, get_observability, set_observability
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.testbed.benchmarks import BENCHMARKS, WorkloadClass, get_benchmark

if TYPE_CHECKING:
    from repro.core.allocator import VMRequest
    from repro.core.model import ModelDatabase
    from repro.ext.carbon.options import CarbonOptions
    from repro.faults import FaultSpec

# Layers only one command runs are imported inside its handler, so a
# command's set-up loads what it runs and ``repro --help`` loads none
# of them (DESIGN.md "Set-up").  ``run_sharded`` is the exception: it
# stays a module attribute, resolved on first read, because
# measurement hooks patch it here (perfbench's launcher replaces it to
# mark its measured phase); ``_cmd_simulate`` reads it before the call.
__getattr__, __dir__ = lazy_exports(__name__, {"repro.exec.sharded": ("run_sharded",)})


def _parse_faults(text: str) -> FaultSpec:
    """--faults, a JSON fault-injection spec loaded and validated here.

    :class:`~repro.common.errors.FaultSpecError` derives from
    ValueError, so an unreadable file, malformed JSON, an unknown fault
    kind or a negative time all exit 2 through the shared typed-flag
    path -- same as a bad --jobs or --alpha.
    """
    from repro.faults import FaultSpec

    return FaultSpec.from_path(text)


_alpha_arg = typed_flag(parse_alpha)
_alpha_carbon_arg = typed_flag(parse_alpha_carbon)
_carbon_signal_arg = typed_flag(parse_carbon_signal)
_price_signal_arg = typed_flag(parse_price_signal)
_jobs_arg = typed_flag(parse_jobs)
_meter_accuracy_arg = typed_flag(parse_meter_accuracy)
_format_arg = typed_flag(parse_format)
_faults_arg = typed_flag(_parse_faults)
_shards_arg = typed_flag(parse_shards)
_time_budget_arg = typed_flag(parse_time_budget)
_port_arg = typed_flag(parse_port)


def _add_time_budget_argument(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--time-budget",
        type=_time_budget_arg,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per proactive allocation; forces the "
        "anytime search mode (see README 'Anytime allocation')",
    )


def _add_obs_arguments(command: argparse.ArgumentParser, formats: bool = True) -> None:
    command.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL span trace (see README 'Observability')",
    )
    command.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the deterministic metrics snapshot as JSON",
    )
    if formats:
        # One validator for every reporting subcommand (allocate/
        # evaluate; the linter's adds sarif): unknown values exit 2 with
        # the same message, matching the --vms/--alpha validation style.
        command.add_argument(
            "--format",
            type=_format_arg,
            default="text",
            metavar="{text,json}",
            help="output style: human text (default) or one JSON document",
        )


def _add_carbon_arguments(
    command: argparse.ArgumentParser, shifting: bool = True
) -> None:
    command.add_argument(
        "--carbon-signal",
        type=_carbon_signal_arg,
        default=None,
        metavar="SPEC",
        help="grid carbon-intensity signal: 'synthetic', 'synthetic:<seed>' "
        "or a JSON signal file (see README 'Carbon- and price-aware "
        "allocation')",
    )
    command.add_argument(
        "--price-signal",
        type=_price_signal_arg,
        default=None,
        metavar="SPEC",
        help="energy-price signal: 'synthetic', 'synthetic:<seed>' or a "
        "JSON signal file",
    )
    command.add_argument(
        "--alpha-carbon",
        type=_alpha_carbon_arg,
        default=0.0,
        metavar="F",
        help="weight of the carbon/cost axis in the proactive score, in "
        "[0, 1]; 0 accounts without steering (default: 0)",
    )
    if shifting:
        command.add_argument(
            "--shift-deferrable",
            action="store_true",
            help="slide deferrable jobs toward cheap/green signal windows "
            "within their QoS slack before simulating",
        )


def _usage_error(command: str, message: str) -> "SystemExit":
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _unplaceable(command: str, error: UnplaceableJobError, remedy: str) -> int:
    """Report a job too large for the simulated cluster; exit code 2."""
    print(
        f"repro {command}: error: job {error.job_id} can never be placed: "
        f"strategy {error.strategy} rejects it on an idle cluster; {remedy}",
        file=sys.stderr,
    )
    return 2


#: What ``evaluate`` and ``reproduce`` suggest for an unplaceable job:
#: their clouds are sized from the VM budget.
_LARGER_BUDGET = "pass a larger --vm-budget (the clouds scale with it)"


def _carbon_options(args: argparse.Namespace, command: str) -> CarbonOptions | None:
    """Fold the carbon flags into one ``CarbonOptions``; exit 2 on misuse.

    Cross-flag constraints live here because argparse validates flags in
    isolation: the weighting and shifting knobs are meaningless without
    at least one signal, and carbon-aware scoring keeps the exact
    enumerator so it cannot honor a wall-clock budget.
    """
    carbon_signal = getattr(args, "carbon_signal", None)
    price_signal = getattr(args, "price_signal", None)
    alpha_carbon = getattr(args, "alpha_carbon", 0.0)
    shift = getattr(args, "shift_deferrable", False)
    if carbon_signal is None and price_signal is None:
        if alpha_carbon:
            raise _usage_error(
                command,
                "--alpha-carbon requires --carbon-signal and/or --price-signal",
            )
        if shift:
            raise _usage_error(
                command,
                "--shift-deferrable requires --carbon-signal and/or --price-signal",
            )
        return None
    if alpha_carbon and getattr(args, "time_budget", None) is not None:
        raise _usage_error(
            command,
            "--alpha-carbon cannot be combined with --time-budget: "
            "carbon-aware scoring keeps the exact enumerator",
        )
    from repro.ext.carbon.options import CarbonOptions

    return CarbonOptions(
        signals=TemporalSignals(carbon=carbon_signal, price=price_signal),
        alpha_carbon=alpha_carbon,
        shift_deferrable=shift,
    )


def _carbon_document(carbon: CarbonOptions) -> dict:
    signals = carbon.signals
    return {
        "alpha_carbon": carbon.alpha_carbon,
        "shift_deferrable": carbon.shift_deferrable,
        "carbon_signal": None if signals.carbon is None else signals.carbon.document(),
        "price_signal": None if signals.price is None else signals.price.document(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware application-centric VM allocation (IPDPS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help="profile benchmark workloads")
    profile.add_argument("benchmarks", nargs="*", default=[], metavar="NAME")

    campaign = sub.add_parser("campaign", help="run the benchmarking campaign")
    campaign.add_argument("--output", "-o", required=True, help="directory for the CSV files")
    campaign.add_argument("--meter-accuracy", type=_meter_accuracy_arg, default=0.0)
    campaign.add_argument("--quiet", action="store_true")

    allocate = sub.add_parser("allocate", help="allocate a VM batch through a stored model")
    allocate.add_argument("--model", required=True, help="directory holding model_database.csv")
    allocate.add_argument("--alpha", type=_alpha_arg, default=0.5)
    allocate.add_argument("--servers", type=int, default=4)
    allocate.add_argument(
        "--vms",
        default="4cpu,2mem,2io",
        help="batch spec, e.g. '4cpu,2mem,1io'",
    )
    _add_time_budget_argument(allocate)
    _add_carbon_arguments(allocate, shifting=False)
    _add_obs_arguments(allocate)

    evaluate = sub.add_parser("evaluate", help="run the Figs. 5-7 evaluation")
    evaluate.add_argument("--vm-budget", type=int, default=2500)
    evaluate.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker processes for the (cloud, strategy) cells; results "
        "are bit-identical to serial at any value (default: 1)",
    )
    evaluate.add_argument(
        "--faults",
        type=_faults_arg,
        default=None,
        metavar="SPEC.json",
        help="inject a deterministic fault schedule (server crashes, VM "
        "aborts, slowdowns, worker failures) from a JSON spec; see "
        "README 'Fault injection'",
    )
    evaluate.add_argument("--quiet", action="store_true")
    _add_time_budget_argument(evaluate)
    _add_carbon_arguments(evaluate)
    _add_obs_arguments(evaluate)

    simulate = sub.add_parser(
        "simulate",
        help="run one large-scale campaign (synthetic or SWF trace), "
        "optionally sharded across server groups",
    )
    simulate.add_argument(
        "--swf",
        default=None,
        metavar="TRACE.swf",
        help="simulate this Standard Workload Format trace (cleaned and "
        "completed with deterministic profiles); omitted: generate the "
        "synthetic EGEE-like trace",
    )
    simulate.add_argument(
        "--vm-budget",
        type=int,
        default=10_000,
        metavar="N",
        help="truncate the trace at this many VMs (default: 10000)",
    )
    simulate.add_argument(
        "--servers",
        type=int,
        default=None,
        metavar="N",
        help="cluster size; default scales the paper's SMALLER cloud "
        "density (65 servers per 10k VMs) to the trace",
    )
    simulate.add_argument(
        "--strategy",
        default="FF-2",
        metavar="NAME",
        help="allocation strategy (FF[-k], BF[-k], WF[-k], RAND[-k], "
        "PA-<alpha>; default: FF-2)",
    )
    simulate.add_argument(
        "--shards",
        type=_shards_arg,
        default=1,
        metavar="N",
        help="partition the cluster into N server groups simulated "
        "independently and merged deterministically (default: 1)",
    )
    simulate.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker processes for the shards; results are bit-identical "
        "to serial at any value (default: 1)",
    )
    simulate.add_argument(
        "--seed",
        type=int,
        default=20110516,
        metavar="N",
        help="root seed for trace generation and profile assignment",
    )
    simulate.add_argument(
        "--qos-factor",
        type=float,
        default=None,
        metavar="F",
        help="derive per-class deadlines from the campaign optima times "
        "this factor (> 1); omitted: no deadlines",
    )
    simulate.add_argument(
        "--chronicle-capacity",
        type=int,
        default=None,
        metavar="N",
        help="record per-server chronicles bounded to N resident "
        "intervals each (the streaming ring; omitted: no chronicles)",
    )
    simulate.add_argument(
        "--chronicle-spill",
        default=None,
        metavar="PATH",
        help="JSONL spill file for intervals evicted from the chronicle "
        "rings (requires --chronicle-capacity; sharded runs write "
        "PATH.shardNNN per shard)",
    )
    simulate.add_argument(
        "--spool-dir",
        default=None,
        metavar="DIR",
        help="spool the partitioned per-shard job lists to this existing "
        "directory so only the shard currently simulating holds its jobs "
        "in RAM; results are bit-identical with and without (files are "
        "left in place)",
    )
    simulate.add_argument(
        "--faults",
        type=_faults_arg,
        default=None,
        metavar="SPEC.json",
        help="inject a deterministic fault schedule from a JSON spec; "
        "see README 'Fault injection'",
    )
    _add_carbon_arguments(simulate)
    _add_obs_arguments(simulate)

    fig2 = sub.add_parser("fig2", help="print the FFTW base-test curve")

    serve = sub.add_parser(
        "serve",
        help="run the allocation service (long-lived HTTP front end)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=_port_arg,
        default=8765,
        help="TCP port (0 binds an ephemeral port; default: 8765)",
    )
    serve.add_argument(
        "--model",
        default=None,
        help="directory holding model_database.csv + auxiliary.csv (as "
        "written by 'repro campaign'); omitted: run the campaign once "
        "at startup",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="concurrent session ceiling (default: 64)",
    )

    # The linter defines its own command line (repro.analysis.cli):
    # main() hands it everything after ``lint``, unparsed.
    sub.add_parser(
        "lint",
        add_help=False,
        help="run the invariant linter (determinism, layering, API surface)",
    )

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every paper artifact and print the summary"
    )
    reproduce.add_argument("--vm-budget", type=int, default=2500)
    reproduce.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker processes for the campaign grid and evaluation "
        "cells; results are bit-identical to serial (default: 1)",
    )
    reproduce.add_argument("--quiet", action="store_true")
    _add_obs_arguments(reproduce, formats=False)
    return parser


def _batch_error(message: str) -> "SystemExit":
    return _usage_error("allocate", message)


def _parse_batch(spec: str) -> list[VMRequest]:
    from repro.core.allocator import VMRequest

    requests: list[VMRequest] = []
    for part in spec.split(","):
        part = part.strip().lower()
        if not part:
            continue
        for class_name in ("cpu", "mem", "io"):
            if part.endswith(class_name):
                prefix = part[: -len(class_name)]
                if prefix and not prefix.isdigit():
                    raise _batch_error(
                        f"bad batch component {part!r}: the count before "
                        f"{class_name!r} must be a plain integer (e.g. "
                        f"'4{class_name}')"
                    )
                count = int(prefix or "1")
                for i in range(count):
                    requests.append(
                        VMRequest(f"{class_name}-{len(requests)}", WorkloadClass(class_name))
                    )
                break
        else:
            raise _batch_error(
                f"bad batch component {part!r}: expected an optional count "
                f"followed by a workload class, one of 'cpu', 'mem' or 'io' "
                f"(e.g. '4cpu,2mem,1io')"
            )
    if not requests:
        raise _batch_error(f"batch spec {spec!r} describes no VMs")
    return requests


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiling.profiler import ApplicationProfiler

    names = args.benchmarks or list(BENCHMARKS)
    profiler = ApplicationProfiler()
    for name in names:
        report = profiler.profile(get_benchmark(name))
        print(report.summary())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.platformrunner import run_campaign

    progress = None if args.quiet else print
    campaign = run_campaign(meter_accuracy=args.meter_accuracy, progress=progress)
    db_path, aux_path = campaign.save(args.output)
    print(f"wrote {db_path}")
    print(f"wrote {aux_path}")
    return 0


def _metrics_snapshot() -> dict:
    return get_observability().registry.snapshot()


def _print_json(document: dict) -> None:
    from repro.service.schema import encode_document

    print(encode_document(document))


def _load_model(command: str, model_dir: str) -> ModelDatabase:
    """The model saved in ``model_dir`` by ``repro campaign``; exit 2 if unreadable."""
    import os

    from repro.core.model import ModelDatabase

    try:
        return ModelDatabase.from_files(
            os.path.join(model_dir, "model_database.csv"),
            os.path.join(model_dir, "auxiliary.csv"),
        )
    except (OSError, ReproError) as error:
        raise _usage_error(command, f"--model {model_dir}: {error}") from None


def _cmd_allocate(args: argparse.Namespace) -> int:
    from repro.core.allocator import ProactiveAllocator, ServerState

    requests = _parse_batch(args.vms)
    carbon = _carbon_options(args, "allocate")
    database = _load_model("allocate", args.model)
    servers = [ServerState(f"s{i}") for i in range(args.servers)]
    allocator = ProactiveAllocator(
        database,
        alpha=args.alpha,
        time_budget_s=args.time_budget,
        carbon=None if carbon is None else carbon.allocator_context(),
    )
    try:
        plan = allocator.allocate(requests, servers)
    except AllocationError as error:
        print(f"repro allocate: error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        from repro.service import schema

        # The embedded plan is the canonical schema document -- the same
        # bytes a service session returns for these requests.
        document = {
            "command": "allocate",
            "alpha": args.alpha,
            "time_budget_s": args.time_budget,
            "n_servers": args.servers,
            "n_vms": len(requests),
            "plan": schema.plan_document(plan),
            "metrics": _metrics_snapshot(),
        }
        if carbon is not None:
            document["carbon"] = _carbon_document(carbon)
        _print_json(schema.stamp(document))
        return 0
    for assignment in plan.assignments:
        print(
            f"{assignment.server_id}: {assignment.block} "
            f"(mix {assignment.combined_key}, est {assignment.estimate.time_s:.0f}s)"
        )
    print(
        f"makespan {plan.estimated_makespan_s:.0f}s, "
        f"energy {plan.estimated_energy_j / 1000:.0f}kJ, QoS ok: {plan.qos_satisfied}"
    )
    if plan.alpha_carbon and plan.estimated_carbon_g is not None:
        print(
            f"carbon {plan.estimated_carbon_g:.1f}g, "
            f"cost {plan.estimated_cost:.4f} (alpha-carbon {plan.alpha_carbon:g})"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.experiments.evaluation import run_evaluation
    from repro.experiments.report import headline_claims

    json_output = args.format == "json"
    if args.quiet:
        progress = None
    elif json_output:
        # Keep stdout a single JSON document; progress goes to stderr.
        progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    else:
        progress = print
    carbon = _carbon_options(args, "evaluate")
    configs = [SMALLER.scaled(args.vm_budget), LARGER.scaled(args.vm_budget)]
    try:
        result = run_evaluation(
            configs=configs,
            progress=progress,
            jobs=args.jobs,
            faults=args.faults,
            time_budget_s=args.time_budget,
            carbon=carbon,
        )
    except FaultSpecError as error:
        # Parse-time validation cannot know the cloud sizes; a server
        # index outside the simulated cluster surfaces here.
        print(f"repro evaluate: error: {error}", file=sys.stderr)
        return 2
    except UnplaceableJobError as error:
        return _unplaceable("evaluate", error, _LARGER_BUDGET)
    if json_output:
        from repro.service import schema

        result_document = schema.evaluation_document(result)
        document = {
            "command": "evaluate",
            "vm_budget": args.vm_budget,
            "time_budget_s": args.time_budget,
            "faults": (
                schema.fault_spec_document(args.faults)
                if args.faults is not None
                else None
            ),
            "n_jobs": result_document["n_jobs"],
            "n_vms": result_document["n_vms"],
            "outcomes": result_document["outcomes"],
            "headline": [
                {
                    "cloud": claims.cloud,
                    "max_makespan_improvement_pct": claims.max_makespan_improvement_pct,
                    "avg_energy_saving_pct": claims.avg_energy_saving_pct,
                }
                for claims in headline_claims(result)
            ],
            "metrics": _metrics_snapshot(),
        }
        if carbon is not None:
            document["carbon"] = _carbon_document(carbon)
        _print_json(schema.stamp(document))
        return 0
    from repro.experiments.ascii import bar_chart

    print()
    print(bar_chart(result.series("makespan_s"), title="Fig. 5: makespan (s)"))
    print()
    print(bar_chart(result.series("energy_j"), title="Fig. 6: energy (J)"))
    print()
    print(
        bar_chart(
            result.series("sla_violation_pct"),
            title="Fig. 7: SLA violations (%)",
            value_format="{:.1f}",
        )
    )
    if carbon is not None:
        # The two paper-style carbon charts (cost and gCO2 by strategy)
        # only exist when a signal was attached to the run.
        if carbon.signals.price is not None:
            print()
            print(
                bar_chart(
                    result.series("cost"),
                    title="Energy cost by strategy",
                    value_format="{:.2f}",
                )
            )
        if carbon.signals.carbon is not None:
            print()
            print(
                bar_chart(
                    result.series("carbon_g"),
                    title="Carbon mass by strategy (gCO2)",
                    value_format="{:.0f}",
                )
            )
    for claims in headline_claims(result):
        print(
            f"{claims.cloud}: makespan -{claims.max_makespan_improvement_pct:.1f}% "
            f"(vs worst FF), energy -{claims.avg_energy_saving_pct:.1f}% "
            f"(vs FF family average)"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.campaign.platformrunner import run_campaign
    from repro.common.rng import SeedSequenceFactory
    from repro.core.model import ModelDatabase
    from repro.experiments.evaluation import prepare_workload
    from repro.sim.datacenter import DatacenterConfig
    from repro.strategies.registry import make_strategy, proactive_alpha
    from repro.workloads.assignment import (
        assign_profiles_and_vms,
        total_vms_requested,
        truncate_to_vm_budget,
    )
    from repro.workloads.cleaning import clean_trace
    from repro.workloads.qos import QoSPolicy
    from repro.workloads.swf import read_swf

    run_sharded = sys.modules[__name__].run_sharded  # patched, or loaded now
    json_output = args.format == "json"
    say = (
        (lambda message: print(message, file=sys.stderr)) if json_output else print
    )
    carbon = _carbon_options(args, "simulate")
    if carbon is not None:
        if carbon.shift_deferrable and args.qos_factor is None:
            raise _usage_error(
                "simulate",
                "--shift-deferrable requires --qos-factor: shifting slack "
                "comes from the per-class QoS deadlines",
            )
        if carbon.alpha_carbon and not args.strategy.startswith("PA-"):
            raise _usage_error(
                "simulate",
                "--alpha-carbon steers the proactive score; it requires a "
                "PA-<alpha> strategy",
            )
    seeds = SeedSequenceFactory(args.seed)
    try:
        if args.strategy.startswith("PA-"):
            proactive_alpha(args.strategy)  # before the trace and the campaign
        if args.swf is not None:
            _comments, records = read_swf(args.swf)
            cleaned, report = clean_trace(records)
            if not cleaned:
                raise ConfigurationError(
                    f"{args.swf}: no jobs to simulate: {report.summary()}"
                )
            prepared = assign_profiles_and_vms(cleaned, rng=seeds.child("profiles"))
            jobs = truncate_to_vm_budget(prepared, args.vm_budget)
            if not jobs:
                raise ConfigurationError(
                    f"{args.swf}: no jobs to simulate: --vm-budget "
                    f"{args.vm_budget} is below the first job's "
                    f"{prepared[0].n_vms} VMs"
                )
            n_vms = total_vms_requested(jobs)
            # Same server density as the paper's SMALLER cloud unless
            # the user pins the cluster size.
            n_servers = args.servers if args.servers is not None else max(
                1, round(SMALLER.n_servers * n_vms / SMALLER.vm_budget)
            )
        else:
            scenario = EvaluationConfig(
                label="SIM", n_servers=SMALLER.n_servers, seed=args.seed
            ).scaled(args.vm_budget)
            jobs, n_vms = prepare_workload(scenario)
            if not jobs:
                raise ConfigurationError(
                    f"synthetic trace: no jobs to simulate: --vm-budget "
                    f"{args.vm_budget} is below the first job's VMs"
                )
            n_servers = scenario.n_servers if args.servers is None else args.servers

        say(f"trace: {len(jobs)} jobs, {n_vms} VMs on {n_servers} servers")

        qos = QoSPolicy.unlimited()
        database = None
        campaign = None
        if args.strategy.startswith("PA-") or args.qos_factor is not None:
            # Both the proactive strategy and QoS deadlines need the
            # campaign's profiled model; run it once (~seconds).
            say("running the benchmarking campaign for the model database")
            campaign = run_campaign()
            database = ModelDatabase.from_campaign(campaign)
            if args.qos_factor is not None:
                qos = QoSPolicy.from_optima(campaign.optima, factor=args.qos_factor)
        strategy = make_strategy(
            args.strategy,
            database=database,
            rng=seeds.child("strategy"),
            carbon=None if carbon is None else carbon.allocator_context(),
        )
        if carbon is not None and carbon.shift_deferrable:
            # The qos_factor guard above guarantees a campaign here.
            jobs, moved = carbon.apply_shift(
                jobs,
                qos,
                {cls: campaign.optima.reference_time(cls) for cls in WorkloadClass},
            )
            say(f"shifted {moved} deferrable jobs toward cheap/green windows")
            obs = get_observability()
            if obs.enabled:
                obs.registry.counter("shift.moved_jobs").inc(moved)

        config = DatacenterConfig(
            n_servers=n_servers,
            record_chronicles=args.chronicle_capacity is not None,
            chronicle_capacity=args.chronicle_capacity,
            chronicle_spill_path=args.chronicle_spill,
            signals=None if carbon is None else carbon.signals,
        )
        result = run_sharded(
            jobs,
            strategy,
            qos,
            config,
            shards=args.shards,
            workers=args.jobs,
            faults=args.faults,
            spool_dir=args.spool_dir,
        )
    except (
        ConfigurationError,
        FaultSpecError,
        TraceFormatError,
        OSError,
    ) as error:
        print(f"repro simulate: error: {error}", file=sys.stderr)
        return 2
    except UnplaceableJobError as error:
        return _unplaceable(
            "simulate", error, "pass more servers with --servers or a larger --vm-budget"
        )
    applied = sum(1 for record in result.fault_log if record.applied)
    if json_output:
        from repro.service import schema

        m = result.metrics
        result_payload = {
            "makespan_s": m.makespan_s,
            "energy_j": m.energy_j,
            "busy_energy_j": m.busy_energy_j,
            "idle_energy_j": m.idle_energy_j,
            "sla_violations": m.sla_violations,
            "sla_violation_pct": m.sla_violation_pct,
            "mean_response_s": m.mean_response_s,
            "p95_response_s": m.p95_response_s,
            "max_queue_length": m.max_queue_length,
            "faults_applied": applied,
            "faults_logged": len(result.fault_log),
        }
        document = {
            "command": "simulate",
            "swf": args.swf,
            "seed": args.seed,
            "strategy": result.strategy_name,
            "n_jobs": len(jobs),
            "n_vms": n_vms,
            "n_servers": n_servers,
            "shards": args.shards,
            "qos_factor": args.qos_factor,
            "faults": (
                schema.fault_spec_document(args.faults)
                if args.faults is not None
                else None
            ),
            "result": result_payload,
            "metrics": _metrics_snapshot(),
        }
        if carbon is not None:
            result_payload["carbon_g"] = m.carbon_g
            result_payload["cost"] = m.cost
            document["carbon"] = _carbon_document(carbon)
        _print_json(schema.stamp(document))
        return 0
    print(f"{result.strategy_name}: {result.metrics.summary()}")
    if carbon is not None:
        print(
            f"carbon {result.metrics.carbon_g:.1f}g, "
            f"cost {result.metrics.cost:.4f}"
        )
    print(
        f"max queue {result.metrics.max_queue_length}, "
        f"mean response {result.metrics.mean_response_s:.0f}s, "
        f"p95 {result.metrics.p95_response_s:.0f}s"
    )
    if result.fault_log:
        print(f"faults: {applied}/{len(result.fault_log)} applied")
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments.ascii import line_curve
    from repro.experiments.fig2_basecurve import fig2_basecurve

    result = fig2_basecurve()
    print(
        line_curve(
            [float(n) for n in result.n_vms],
            list(result.avg_time_vm_s),
            title="Fig. 2: FFTW average execution time per VM",
            x_label="#VMs",
            y_label="avgTimeVM (s)",
        )
    )
    print(f"optimum at {result.optimal_n} VMs (paper: 9)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import schema
    from repro.service.server import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
    )
    database = None
    if args.model is not None:
        database = _load_model("serve", args.model)
    else:
        print(
            "repro serve: no --model given; running the benchmarking "
            "campaign once at startup (~seconds)",
            file=sys.stderr,
        )
    serve(
        config,
        database=database,
        ready=lambda service: print(
            f"repro serve: listening on http://{config.host}:{service.port} "
            f"(schema v{schema.SCHEMA_VERSION}); try GET /v1/healthz",
            file=sys.stderr,
        ),
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    # The layers the reproduction imports load with the command, before
    # the reproduction starts.  Fig. 1 runs the profiler, which
    # fig1_profiles imports on first use.
    import repro.experiments.evaluation  # noqa: F401
    import repro.experiments.fig1_profiles  # noqa: F401
    import repro.experiments.fig2_basecurve  # noqa: F401
    import repro.experiments.fig4_accounting  # noqa: F401
    import repro.experiments.report  # noqa: F401
    import repro.profiling.profiler  # noqa: F401
    from repro.experiments.paper_summary import reproduce_paper

    progress = None if args.quiet else print
    try:
        reproduction = reproduce_paper(
            vm_budget=args.vm_budget, progress=progress, jobs=args.jobs
        )
    except UnplaceableJobError as error:
        return _unplaceable("reproduce", error, _LARGER_BUDGET)
    print()
    print(reproduction.report)
    return 0


_COMMANDS = {
    "profile": _cmd_profile,
    "campaign": _cmd_campaign,
    "allocate": _cmd_allocate,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "fig2": _cmd_fig2,
    "serve": _cmd_serve,
    "reproduce": _cmd_reproduce,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        # The linter is pure analysis; it never records into an
        # observability bundle.
        from repro.analysis.cli import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    wants_json = getattr(args, "format", "text") == "json"
    if not (trace_path or metrics_path or wants_json):
        return _COMMANDS[args.command](args)

    # Install an enabled observability bundle for the duration of the
    # command, so library code records into a fresh registry/trace.
    registry = MetricsRegistry()
    tracer = Tracer.to_path(trace_path) if trace_path else NULL_TRACER
    previous = set_observability(Observability(registry=registry, tracer=tracer))
    try:
        code = _COMMANDS[args.command](args)
    finally:
        set_observability(previous)
        tracer.close()
        if metrics_path:
            from repro.service import schema

            with open(metrics_path, "w", encoding="utf-8") as handle:
                document = schema.stamp(registry.snapshot())
                handle.write(schema.encode_document(document) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
