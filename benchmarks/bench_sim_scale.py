"""Scale benchmark: the sharded simulation core vs the naive oracle core.

Prepares an EGEE-like workload at each scale (10k and 100k VM budgets;
1M behind ``--full``), writes the prepared jobs to a CSV, and then
measures each campaign in a fresh subprocess: the child loads the jobs,
runs the sharded indexed simulator with a bounded chronicle ring
spilling to JSONL, and reports wall clock plus its own peak RSS
(``ru_maxrss``).  A separate child runs the 100k campaign on the naive
core to price the speedup: the test suite's oracle
``NaiveDatacenterSimulator`` (``tests/oracles/sim.py``), unsharded,
with every view and counter recomputed by scanning and the mix physics
recomputed at every step -- the pre-index code path, kept unoptimized
on purpose.

A third child leg runs the 100k campaign with PROACTIVE (PA-0.5) on the
same workload, shards, chronicle and QoS settings as the FF-2 leg.
Every timed leg runs :data:`REPEATS` times (interleaved at the gate
scale), and the derived values are taken over the medians.

``BENCH_sim.json`` (the one BENCH format, ``benchfile.py``) declares
three gates on those values:

* **speedup**: naive wall / sharded wall at the 100k scale (>= 5x).
  The gain is algorithmic -- O(candidates) placement views, memoized
  mix physics, shard-local event loops -- so it holds on a single-CPU
  host; all shards here run with ``workers=1``.
* **memory flatness**: peak RSS of the 100k campaign within 1.2x of
  the 10k campaign.  The measured child holds the prepared jobs
  (O(jobs), inherent to the workload) and the campaign itself; the
  chronicle ring + spill keep per-interval history out of RAM, and the
  per-shard event loop peaks at one shard's working set regardless of
  campaign length.  Workload *preparation* (trace generation, cleaning,
  profile assignment) is O(jobs) by construction and runs in the
  parent, unmeasured -- its cost is reported as ``prep/<scale>``.
* **PROACTIVE at scale**: PA-0.5 wall within 1.5x of FF-2's at 100k
  (class-indexed placement keeps the allocator off the critical path).
  The child builds the model database before its clock starts.

Identity verdicts (always required to hold): merged sharded results are
bit-identical across worker counts, with and without fault injection.

Run:  PYTHONPATH=src python benchmarks/bench_sim_scale.py [--quick|--full]
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The naive core is the test suite's oracle; make the repo root
# importable when this file runs as a script.
REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.campaign.platformrunner import run_campaign
from repro.core.model import ModelDatabase
from repro.exec.sharded import run_sharded
from repro.experiments.config import SMALLER, EvaluationConfig
from repro.experiments.evaluation import prepare_workload
from repro.faults import random_crash_spec
from repro.sim.datacenter import DatacenterConfig
from repro.strategies import make_strategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy
from tests.oracles.sim import NaiveDatacenterSimulator

import benchfile
from benchfile import identity, metric

OUTPUT = Path(__file__).resolve().parent / "BENCH_sim.json"

SEED = 20110516
STRATEGY = "FF-2"
PROACTIVE = "PA-0.5"
REPEATS = 3
#: One shard per 10k VMs of budget: the shard size the flatness claim
#: is calibrated for.
SHARD_UNIT = 10_000
CHRONICLE_CAPACITY = 8

SCALES = (10_000, 100_000)
QUICK_SCALES = (2_000, 10_000)
FULL_SCALES = (10_000, 100_000, 1_000_000)
IDENTITY_JOBS = 400
IDENTITY_SERVERS = 30

#: Gates on the medians at the gate scale.
SPEEDUP_FLOOR = 5.0
RSS_RATIO_CEILING = 1.2
PROACTIVE_RATIO_CEILING = 1.5


def write_jobs_csv(jobs, path: Path) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for job in jobs:
            writer.writerow(
                [job.job_id, job.submit_time_s, job.workload_class.value,
                 job.n_vms, job.burst_id]
            )


def iter_jobs_csv(path: Path):
    """Lazily yield jobs in file order (the canonical submit order)."""
    with path.open(newline="") as handle:
        for row in csv.reader(handle):
            yield PreparedJob(
                job_id=int(row[0]),
                submit_time_s=float(row[1]),
                workload_class=WorkloadClass(row[2]),
                n_vms=int(row[3]),
                burst_id=int(row[4]),
            )


def read_jobs_csv(path: Path) -> list[PreparedJob]:
    return list(iter_jobs_csv(path))


def child_main(args) -> int:
    """One measured campaign; prints a JSON line with wall and peak RSS."""
    chronicled = args.mode == "sharded"
    config = DatacenterConfig(
        n_servers=args.n_servers,
        record_chronicles=chronicled,
        chronicle_capacity=CHRONICLE_CAPACITY if chronicled else None,
        chronicle_spill_path=args.spill if chronicled else None,
    )
    database = None
    if args.strategy.startswith("PA-"):
        database = ModelDatabase.from_campaign(run_campaign())
    strategy = make_strategy(args.strategy, database=database)
    qos = QoSPolicy.unlimited()
    started = time.perf_counter()
    if args.mode == "naive":
        result = NaiveDatacenterSimulator(config).run(
            read_jobs_csv(Path(args.jobs_csv)), strategy, qos
        )
    else:
        # Jobs stream from the CSV straight into per-shard spool
        # files: the campaign's job list is never resident at once,
        # and only the shard currently simulating holds its jobs.
        with tempfile.TemporaryDirectory(prefix="bench_spool_") as spool:
            result = run_sharded(
                iter_jobs_csv(Path(args.jobs_csv)), strategy, qos, config,
                shards=args.shards, workers=1, spool_dir=spool,
            )
    wall_s = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "wall_s": wall_s,
                "peak_rss_mb": peak_mb,
                "makespan_s": result.metrics.makespan_s,
                "energy_j": result.metrics.energy_j,
                "n_jobs": result.metrics.n_jobs,
                "n_vms": result.metrics.n_vms,
            }
        )
    )
    return 0


def run_child(jobs_csv: Path, n_servers: int, mode: str, shards: int,
              spill: str | None, strategy: str = STRATEGY):
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--jobs-csv", str(jobs_csv), "--n-servers", str(n_servers),
        "--mode", mode, "--shards", str(shards), "--strategy", strategy,
    ]
    if spill is not None:
        argv += ["--spill", spill]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def identity_jobs() -> list[PreparedJob]:
    cfg = EvaluationConfig(label="IDY", n_servers=IDENTITY_SERVERS, seed=SEED)
    jobs, _ = prepare_workload(cfg)
    return jobs[:IDENTITY_JOBS]


def result_fingerprint(result) -> str:
    return json.dumps(
        {
            "outcomes": [
                [o.job_id, o.workload_class, o.n_vms, o.submit_time_s,
                 o.completion_time_s, o.deadline_s]
                for o in result.outcomes
            ],
            "busy": list(result.per_server_busy_j),
            "idle": list(result.per_server_idle_j),
            "faults": [repr(entry) for entry in result.fault_log],
        },
        sort_keys=True,
    )


def identity_checks() -> dict:
    jobs = identity_jobs()
    qos = QoSPolicy.unlimited()
    config = DatacenterConfig(n_servers=IDENTITY_SERVERS)
    verdicts = {}
    for label, faults in (
        ("workers", None),
        ("workers_faulted",
         random_crash_spec(seed=7, crash_rate_per_1000s=4.0, recover_after_s=120.0)),
    ):
        prints = []
        for workers in (1, 2, 3):
            result = run_sharded(
                jobs, make_strategy(STRATEGY), qos, config,
                shards=3, workers=workers, faults=faults,
            )
            prints.append(result_fingerprint(result))
        verdicts[label] = prints[0] == prints[1] == prints[2]
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scales (2k/10k); committed numbers "
                        "use the default 10k/100k")
    parser.add_argument("--full", action="store_true",
                        help="add the 1M-VM leg (several minutes)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--jobs-csv", help=argparse.SUPPRESS)
    parser.add_argument("--n-servers", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("sharded", "sharded-nochron", "naive"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--shards", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--spill", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--strategy", default=STRATEGY, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    scales = QUICK_SCALES if args.quick else (FULL_SCALES if args.full else SCALES)
    gate_scale, base_scale = scales[1], scales[0]

    metrics, config_scales = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_sim_") as tmp:
        tmpdir = Path(tmp)
        for budget in scales:
            cfg = EvaluationConfig(
                label="BENCH", n_servers=SMALLER.n_servers, seed=SEED
            ).scaled(budget)
            print(f"preparing {budget}-VM workload ...", flush=True)
            prep_started = time.perf_counter()
            jobs, n_vms = prepare_workload(cfg)
            prep_wall_s = time.perf_counter() - prep_started
            jobs_csv = tmpdir / f"jobs_{budget}.csv"
            write_jobs_csv(jobs, jobs_csv)
            shards = max(1, budget // SHARD_UNIT)
            config_scales[str(budget)] = {
                "n_jobs": len(jobs), "n_vms": n_vms,
                "n_servers": cfg.n_servers, "shards": shards,
            }
            metrics.append(metric(f"prep/{budget}", "s", "lower", [prep_wall_s]))
            spill = str(tmpdir / f"spill_{budget}.jsonl")
            legs = {f"sharded/{budget}": ("sharded", shards, spill, STRATEGY)}
            if budget == gate_scale:
                # Like-for-like speedup pair: neither the chronicle-free
                # leg nor the naive core records chronicles (the
                # pre-index core had none either).
                legs[f"nochron/{budget}"] = ("sharded-nochron", shards, None, STRATEGY)
                legs[f"naive/{budget}"] = ("naive", 1, None, STRATEGY)
                legs[f"proactive/{budget}"] = ("sharded", shards, spill, PROACTIVE)
            rows = {name: [] for name in legs}
            for repeat in range(REPEATS):
                for name, (mode, leg_shards, leg_spill, strategy) in legs.items():
                    print(f"{name} ({strategy}, {mode}, {leg_shards} shards) "
                          f"run {repeat + 1}/{REPEATS} ...", flush=True)
                    row = run_child(jobs_csv, cfg.n_servers, mode, leg_shards,
                                    leg_spill, strategy)
                    rows[name].append(row)
                    print(f"  {row['wall_s']:.2f}s  peak {row['peak_rss_mb']:.0f}MB")
            for name, leg_rows in rows.items():
                metrics += leg_metrics(name, leg_rows)

    print("sharded identity across worker counts ...", flush=True)
    verdicts = identity_checks()

    def median(name):
        return statistics.median(
            next(m for m in metrics if m["name"] == name)["samples"]
        )

    gate, base = gate_scale, base_scale
    speedup = median(f"naive/{gate}") / median(f"nochron/{gate}")
    rss_ratio = median(f"sharded/{gate}/peak_rss") / median(f"sharded/{base}/peak_rss")
    proactive_ratio = median(f"proactive/{gate}") / median(f"sharded/{gate}")
    metrics += [
        metric("speedup_vs_naive", "x", "higher", [speedup],
               gate={"min": SPEEDUP_FLOOR},
               inputs=[f"naive/{gate}", f"nochron/{gate}"]),
        metric("rss_ratio", "ratio", "lower", [rss_ratio],
               gate={"max": RSS_RATIO_CEILING},
               inputs=[f"sharded/{gate}/peak_rss", f"sharded/{base}/peak_rss"]),
        metric("proactive_over_firstfit", "ratio", "lower", [proactive_ratio],
               gate={"max": PROACTIVE_RATIO_CEILING},
               inputs=[f"proactive/{gate}", f"sharded/{gate}"]),
        identity("identity/workers", [verdicts["workers"]]),
        identity("identity/workers_faulted", [verdicts["workers_faulted"]]),
    ]
    config = {
        "seed": SEED,
        "strategy": STRATEGY,
        "proactive": PROACTIVE,
        "chronicle_capacity": CHRONICLE_CAPACITY,
        "repeats": REPEATS,
        "gate_scale": gate_scale,
        "base_scale": base_scale,
        "scales": config_scales,
    }
    benchfile.write(OUTPUT, "bench_sim_scale", config, metrics, quick=args.quick)
    print(
        f"speedup {speedup:.2f}x  rss ratio {rss_ratio:.2f}  "
        f"{PROACTIVE}/{STRATEGY} {proactive_ratio:.2f}  identity {verdicts}"
    )
    return 0


def leg_metrics(name: str, rows: list) -> list:
    """Wall and peak-RSS samples of one leg, plus its (deterministic)
    energy and makespan from the first run."""
    return [
        metric(name, "s", "lower", [row["wall_s"] for row in rows]),
        metric(f"{name}/peak_rss", "MB", "lower", [row["peak_rss_mb"] for row in rows]),
        metric(f"{name}/energy", "J", "lower", [rows[0]["energy_j"]]),
        metric(f"{name}/makespan", "s", "lower", [rows[0]["makespan_s"]]),
    ]


if __name__ == "__main__":
    sys.exit(main())
