"""Performance benchmark: the parallel evaluation fan-out vs serial.

Times ``run_evaluation`` over the default two-cloud lineup (SMALLER +
LARGER at the quarter-scale 2500-VM budget) serially and at ``jobs``
in {2, 4}, three interleaved rounds, with observability disabled (the perf-relevant
configuration), then checks the engine's contract under a fully
enabled deterministic bundle: outcome tuples, merged metrics snapshots
and deterministic traces must be bit-identical between serial and
``jobs=4``.

Writes ``benchmarks/BENCH_parallel.json`` in the one BENCH format
(``benchmarks/benchfile.py``) with per-mode wall samples, speedups of
the medians over serial, and the identity verdicts.  The declared gates
require the identity checks to hold unconditionally and the jobs=4
speedup to reach 1.5x when the host has at least 4 CPUs
(``min_cpus``) -- a process pool cannot beat serial on a single-CPU
box, and pretending otherwise would just teach people to ignore the
gate.

Run:  PYTHONPATH=src python benchmarks/bench_perf_parallel.py [--quick]
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import time
from pathlib import Path

from repro.campaign.platformrunner import run_campaign
from repro.experiments.config import LARGER, SMALLER
from repro.experiments.evaluation import run_evaluation
from repro.obs.runtime import observed

import benchfile
from benchfile import identity, metric

OUTPUT = Path(__file__).resolve().parent / "BENCH_parallel.json"

SCALE = 2500
IDENTITY_SCALE = 400
QUICK_SCALE = 400
JOB_COUNTS = (2, 4)
ROUNDS = 3
#: the jobs=4 speedup over serial, enforced on hosts with the CPUs for it
SPEEDUP_GATE = {"min": 1.5, "min_cpus": 4}


def timed_run(campaign, configs, jobs):
    """One untraced evaluation run; returns (outcomes, wall seconds)."""
    started = time.perf_counter()
    result = run_evaluation(configs=configs, campaign=campaign, jobs=jobs)
    return result.outcomes, time.perf_counter() - started


def observed_run(campaign, configs, jobs):
    """One run under a deterministic bundle; returns everything the
    identity check compares."""
    sink = io.StringIO()
    with observed(trace_sink=sink, deterministic=True) as bundle:
        result = run_evaluation(configs=configs, campaign=campaign, jobs=jobs)
        snapshot = bundle.snapshot()
    return result.outcomes, snapshot, sink.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"time at the {QUICK_SCALE}-VM budget (smoke test; the "
        "committed numbers use the full quarter scale)",
    )
    args = parser.parse_args(argv)
    scale = QUICK_SCALE if args.quick else SCALE

    print("campaign (shared model) ...", flush=True)
    campaign = run_campaign()
    configs = [SMALLER.scaled(scale), LARGER.scaled(scale)]

    walls = {jobs: [] for jobs in (1, *JOB_COUNTS)}
    outcomes = None
    outcomes_identical = True
    for round_ in range(ROUNDS):
        # Interleave the modes so clock drift hits every mode equally.
        for jobs in walls:
            print(f"round {round_ + 1}/{ROUNDS}: jobs={jobs} at {scale} VMs ...", flush=True)
            run_outcomes, wall_s = timed_run(campaign, configs, jobs=jobs)
            if outcomes is None:
                outcomes = run_outcomes
            outcomes_identical &= run_outcomes == outcomes
            walls[jobs].append(wall_s)
            print(f"  {wall_s:.2f}s")

    serial_s = statistics.median(walls[1])
    metrics = [metric("serial", "s", "lower", walls[1])]
    for jobs in JOB_COUNTS:
        speedup = serial_s / statistics.median(walls[jobs])
        metrics += [
            metric(f"jobs/{jobs}", "s", "lower", walls[jobs]),
            metric(
                f"speedup/{jobs}", "x", "higher", [speedup],
                gate=SPEEDUP_GATE if jobs == 4 else None,
                inputs=["serial", f"jobs/{jobs}"],
            ),
        ]
        print(f"jobs={jobs}: median speedup {speedup:.2f}x")

    print(f"identity check at {IDENTITY_SCALE} VMs (deterministic obs) ...", flush=True)
    identity_configs = [SMALLER.scaled(IDENTITY_SCALE), LARGER.scaled(IDENTITY_SCALE)]
    ser_outcomes, ser_snapshot, ser_trace = observed_run(
        campaign, identity_configs, jobs=1
    )
    par_outcomes, par_snapshot, par_trace = observed_run(
        campaign, identity_configs, jobs=4
    )
    outcomes_identical &= ser_outcomes == par_outcomes
    snapshot_identical = json.dumps(ser_snapshot, sort_keys=True) == json.dumps(
        par_snapshot, sort_keys=True
    )
    trace_identical = ser_trace == par_trace

    metrics += [
        identity("identity/outcomes", [outcomes_identical]),
        identity("identity/snapshot", [snapshot_identical]),
        identity("identity/trace", [trace_identical]),
    ]
    config = {"scale": scale, "n_cells": len(outcomes), "rounds": ROUNDS,
              "identity_scale": IDENTITY_SCALE}
    benchfile.write(OUTPUT, "bench_perf_parallel", config, metrics, quick=args.quick)
    print(
        f"identity: outcomes={outcomes_identical} "
        f"snapshot={snapshot_identical} trace={trace_identical}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
