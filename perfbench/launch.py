"""Program-process launcher: runs one ``repro`` CLI command, unmodified.

    python3 perfbench/launch.py --out RESULT.json [--trace] -- simulate --swf ...

The launcher is the program process the benchmark measures.  It calls
:func:`repro.cli.main` with the given arguments and marks where the
measured phase starts and ends by wrapping the command's measured entry
point from outside:

* ``reproduce``: the whole :func:`reproduce_paper` call is measured;
  set-up is the interpreter, the imports and argument parsing.
* ``simulate``: the :func:`run_sharded` call is measured; set-up also
  covers trace read/clean/assign and the model build.
* ``serve``: the benchmark's client defines the phases and signals each
  change with ``SIGUSR1``; the launcher stops on ``SIGINT``.

From its first line the launcher also runs the host-speed sampler of
:mod:`speed` and files its samples by phase.

With ``--trace`` the layer spans of :mod:`spans` are installed before
the command runs.  The result file carries the phase boundaries on the
``time.perf_counter`` clock (system-wide ``CLOCK_MONOTONIC`` on Linux,
so the parent can subtract its own spawn time), the measured phase's
CPU time, the speed samples, the peak RSS, the command's outputs for
the correctness check, and the span aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("setup", "measured", "teardown")


def _paper_outputs(reproduction) -> dict:
    evaluation = reproduction.evaluation
    return {
        "fig2_optimal_n": reproduction.fig2.optimal_n,
        "fig4_matches": reproduction.fig4_matches,
        "n_jobs": evaluation.n_jobs,
        "n_vms": evaluation.n_vms,
        "outcomes": [
            [
                outcome.cloud,
                outcome.strategy,
                outcome.makespan_s,
                outcome.energy_j,
                outcome.sla_violation_pct,
                outcome.mean_response_s,
                outcome.max_queue_length,
            ]
            for outcome in evaluation.outcomes
        ],
    }


def _simulate_outputs(result) -> dict:
    m = result.metrics
    return {
        "makespan_s": m.makespan_s,
        "energy_j": m.energy_j,
        "busy_energy_j": m.busy_energy_j,
        "idle_energy_j": m.idle_energy_j,
        "n_jobs": m.n_jobs,
        "n_vms": m.n_vms,
        "sla_violations": m.sla_violations,
        "carbon_g": m.carbon_g,
        "cost": m.cost,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--trace", action="store_true", help="install layer spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- repro CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed

    sampler = speed.SpeedSampler()
    sampler.start()
    record: dict = {"speed": {}}
    phase = "setup"

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.cli
    import repro.experiments.paper_summary as paper_summary

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    def next_phase() -> None:
        nonlocal phase
        record["speed"][phase] = sampler.take()
        phase = PHASES[PHASES.index(phase) + 1]
        if tracer is not None:
            tracer.phase = phase

    def measured(fn, outputs):
        def hook(*hook_args, **hook_kwargs):
            next_phase()
            record["t_ready"] = time.perf_counter()
            cpu0 = time.process_time()
            result = fn(*hook_args, **hook_kwargs)
            record["cpu_s"] = time.process_time() - cpu0
            record["t_done"] = time.perf_counter()
            next_phase()
            record["outputs"] = outputs(result)
            return result

        return hook

    command = argv[0] if argv else ""
    if command == "reproduce":
        paper_summary.reproduce_paper = measured(
            paper_summary.reproduce_paper, _paper_outputs
        )
    elif command == "simulate":
        repro.cli.run_sharded = measured(repro.cli.run_sharded, _simulate_outputs)
    elif command == "serve":
        signal.signal(signal.SIGUSR1, lambda *_: next_phase())
    else:
        parser.error(f"unsupported command {command!r}")

    code = repro.cli.main(argv)
    sampler.stop()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["trace"] = tracer.document() if tracer is not None else None
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
