"""Performance benchmark: the streamed/pruned allocator vs the seed.

Times :meth:`ProactiveAllocator.allocate` (dense grid + Pareto
streaming + branch-and-bound) against the SEED implementation -- the
naive brute-force oracle ``tests.oracles.allocator.reference_allocate``
driven through a shim database that restores the original per-query
estimate path (bisect hit, exception, dominated linear scan) -- on
paper-regime batches over a busy 16-server cloud.

Writes ``benchmarks/BENCH_allocator.json`` with p50/p95 allocate
latency per batch size and the peak retained candidate count (the
streamed Pareto frontier) next to the total candidate count the seed
materialized, plus an ``observability`` section timing the batch-8
allocate with the default no-op bundle against enabled
metrics + tracing.  ``scripts/check_bench_regression.py`` compares
that file against the committed ``BENCH_allocator_baseline.json`` and
fails when the enabled-observability overhead exceeds its bound.

An ``anytime`` section times automatic mode selection on batches past
the exact-affordable threshold (16/24/32 VMs, where exhaustive
enumeration takes seconds to minutes) and records the anytime/exact
quality ratio at batch 16 under the shared :func:`plan_objective`; the
regression gate holds those p50s under absolute ceilings and the ratio
under the 5% quality bound.

Run:  PYTHONPATH=src python benchmarks/bench_perf_allocator.py [--quick]
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import time
from pathlib import Path

# The seed path is the test suite's oracle; make the repo root importable
# when this file runs as a script.
REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.campaign.platformrunner import run_campaign
from repro.core.allocator import (
    ProactiveAllocator,
    ServerState,
    VMRequest,
    plan_objective,
)
from repro.core.model import ModelDatabase
from repro.obs.runtime import observed
from repro.service.schema import SCHEMA_VERSION
from repro.testbed.benchmarks import WorkloadClass
from tests.oracles.allocator import reference_allocate

OUTPUT = Path(__file__).resolve().parent / "BENCH_allocator.json"

#: batch size -> (Ncpu, Nmem, Nio)
BATCHES = {8: (3, 3, 2), 16: (6, 5, 5), 24: (24, 0, 0)}
ALPHA = 0.5
N_SERVERS = 16

#: timing repeats; the seed path at batch 16 runs ~2 minutes per call,
#: so it gets fewer samples than the optimized path.
OPT_REPEATS = {8: 9, 16: 3, 24: 5}
SEED_REPEATS = {8: 3, 16: 1, 24: 3}

#: batch size -> (Ncpu, Nmem, Nio) for the anytime-mode section; every
#: mix clears the exact_partition_limit so automatic selection engages.
ANYTIME_BATCHES = {16: (6, 5, 5), 24: (10, 7, 7), 32: (12, 10, 10)}
ANYTIME_REPEATS = {16: 9, 24: 7, 32: 5}


class SeedDatabase:
    """Shim restoring the seed's per-query estimate cost model.

    Forwards everything the allocator consumes to the real database but
    answers ``estimate`` with the uncached scan (exact bisect attempt,
    exception on miss, then the dominated linear scan) -- the exact
    per-probe work the seed implementation paid before the dense grid
    existed.
    """

    def __init__(self, database: ModelDatabase):
        self._db = database

    @property
    def grid_bounds(self):
        return self._db.grid_bounds

    @property
    def time_range_s(self):
        return self._db.time_range_s

    @property
    def energy_range_j(self):
        return self._db.energy_range_j

    @property
    def optima(self):
        return self._db.optima

    def reference_time(self, workload_class):
        return self._db.reference_time(workload_class)

    def within_bounds(self, key):
        return self._db.within_bounds(key)

    def estimate(self, key):
        return self._db._estimate_scan(key)


def make_requests(counts):
    requests = []
    for klass, label, n in (
        (WorkloadClass.CPU, "c", counts[0]),
        (WorkloadClass.MEM, "m", counts[1]),
        (WorkloadClass.IO, "i", counts[2]),
    ):
        requests.extend(
            VMRequest(vm_id=f"{label}{k}", workload_class=klass) for k in range(n)
        )
    return requests


def make_servers(n):
    """A busy heterogeneous cloud: mixed residual loads, capped VMs."""
    mixes = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (2, 1, 1), (0, 2, 1), (3, 0, 0),
    ]
    return [
        ServerState(server_id=f"s{k}", allocated=mixes[k % len(mixes)], max_vms=12)
        for k in range(n)
    ]


def time_calls(fn, repeats):
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return samples, result


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(sorted(samples), n=100, method="inclusive")[q - 1]


def run(quick=False):
    print("building campaign database...")
    database = ModelDatabase.from_campaign(run_campaign())
    seed_db = SeedDatabase(database)
    servers = make_servers(N_SERVERS)

    report = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "proactive allocator: streamed+pruned vs seed",
        "config": {
            "alpha": ALPHA,
            "servers": N_SERVERS,
            "max_vms": 12,
            "strict_qos": False,
            "quick": quick,
        },
        "batches": {},
    }

    for size, counts in BATCHES.items():
        if quick and size == 16:
            continue
        requests = make_requests(counts)
        # The exact-vs-seed identity claim needs the exact enumerator;
        # batch 16 would otherwise auto-select the anytime mode.
        optimized = ProactiveAllocator(
            database, alpha=ALPHA, strict_qos=False, anytime=False
        )
        seed = ProactiveAllocator(seed_db, alpha=ALPHA, strict_qos=False)

        opt_samples, opt_plan = time_calls(
            lambda: optimized.allocate(requests, servers), OPT_REPEATS[size]
        )
        seed_samples, seed_plan = time_calls(
            lambda: reference_allocate(seed, requests, servers), SEED_REPEATS[size]
        )
        assert opt_plan == seed_plan, f"batch {size}: optimized != seed plan"

        provenance = opt_plan.search_provenance
        opt_p50 = percentile(opt_samples, 50)
        seed_p50 = percentile(seed_samples, 50)
        entry = {
            "counts": list(counts),
            "optimized": {
                "p50_s": opt_p50,
                "p95_s": percentile(opt_samples, 95),
                "samples_s": opt_samples,
            },
            "seed": {
                "p50_s": seed_p50,
                "p95_s": percentile(seed_samples, 95),
                "samples_s": seed_samples,
            },
            "speedup_p50": seed_p50 / opt_p50,
            "partitions_enumerated": provenance.partitions_enumerated,
            "candidates_feasible": provenance.candidates_feasible,
            "peak_retained_candidates": provenance.frontier_peak,
            "subtrees_pruned": provenance.subtrees_pruned,
        }
        report["batches"][str(size)] = entry
        print(
            f"batch {size:>2d} {counts}: seed p50 {seed_p50:8.3f}s  "
            f"opt p50 {opt_p50:8.3f}s  speedup {entry['speedup_p50']:6.1f}x  "
            f"retained {provenance.frontier_peak}/{provenance.candidates_feasible}"
        )

    report["anytime"] = bench_anytime(database, servers, quick=quick)
    report["observability"] = bench_observability(database, servers, quick=quick)

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    return report


def bench_anytime(database, servers, quick=False):
    """Automatic anytime selection on exact-unaffordable batches.

    Times ``allocate`` with default (automatic) mode selection on the
    :data:`ANYTIME_BATCHES` mixes -- each past the partition-count
    threshold, so the beam + local-search path must engage -- and, at
    batch 16, prices the quality of the anytime plan against the exact
    optimum with :func:`plan_objective` (one exact call; ~10 s).
    """
    section = {"batches": {}, "quality": None}
    for size, counts in ANYTIME_BATCHES.items():
        requests = make_requests(counts)
        allocator = ProactiveAllocator(database, alpha=ALPHA, strict_qos=False)
        repeats = 3 if quick else ANYTIME_REPEATS[size]
        samples, plan = time_calls(
            lambda: allocator.allocate(requests, servers), repeats
        )
        provenance = plan.search_provenance
        assert provenance.mode == "anytime", (
            f"anytime batch {size}: expected automatic anytime selection, "
            f"got {provenance.mode}"
        )
        p50 = percentile(samples, 50)
        section["batches"][str(size)] = {
            "counts": list(counts),
            "p50_s": p50,
            "p95_s": percentile(samples, 95),
            "samples_s": samples,
            "beam_width": provenance.anytime_beam_width,
            "rounds": provenance.anytime_rounds,
            "evaluated": provenance.anytime_evaluated,
        }
        print(
            f"anytime batch {size:>2d} {counts}: p50 {p50:8.3f}s  "
            f"evaluated {provenance.anytime_evaluated} partitions in "
            f"{provenance.anytime_rounds} rounds"
        )

    if not quick:
        counts = ANYTIME_BATCHES[16]
        requests = make_requests(counts)
        anytime_plan = ProactiveAllocator(
            database, alpha=ALPHA, strict_qos=False
        ).allocate(requests, servers)
        exact_samples, exact_plan = time_calls(
            lambda: ProactiveAllocator(
                database, alpha=ALPHA, strict_qos=False, anytime=False
            ).allocate(requests, servers),
            1,
        )
        anytime_objective = plan_objective(anytime_plan, servers, database)
        exact_objective = plan_objective(exact_plan, servers, database)
        ratio = (
            anytime_objective / exact_objective
            if exact_objective > 0
            else 1.0
        )
        anytime_p50 = section["batches"]["16"]["p50_s"]
        section["quality"] = {
            "batch": 16,
            "anytime_objective": anytime_objective,
            "exact_objective": exact_objective,
            "ratio": ratio,
            "exact_p50_s": exact_samples[0],
            "speedup_vs_exact_p50": exact_samples[0] / anytime_p50,
        }
        print(
            f"anytime quality @16: ratio {ratio:.4f} "
            f"(anytime {anytime_objective:.6f} vs exact {exact_objective:.6f})  "
            f"exact {exact_samples[0]:.3f}s -> anytime "
            f"{anytime_p50:.3f}s ({exact_samples[0] / anytime_p50:.0f}x)"
        )
    return section


def bench_observability(database, servers, quick=False):
    """Batch-8 allocate latency: default no-op bundle vs enabled obs.

    Samples alternate between the two modes so drift (thermal, cache)
    hits both equally; the medians feed the ``overhead_frac`` the
    regression gate bounds.
    """
    requests = make_requests(BATCHES[8])
    allocator = ProactiveAllocator(database, alpha=ALPHA, strict_qos=False)
    allocator.allocate(requests, servers)  # warm the estimate grid

    rounds = 7 if quick else 15
    noop_samples, enabled_samples = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        allocator.allocate(requests, servers)
        noop_samples.append(time.perf_counter() - t0)

        with observed(trace_sink=io.StringIO()):
            t0 = time.perf_counter()
            allocator.allocate(requests, servers)
            enabled_samples.append(time.perf_counter() - t0)

    noop_p50 = statistics.median(noop_samples)
    enabled_p50 = statistics.median(enabled_samples)
    overhead = enabled_p50 / noop_p50 - 1.0 if noop_p50 > 0 else 0.0
    print(
        f"observability: noop p50 {noop_p50 * 1e3:7.3f}ms  enabled p50 "
        f"{enabled_p50 * 1e3:7.3f}ms  overhead {overhead * 100:+.1f}%"
    )
    return {
        "batch": 8,
        "rounds": rounds,
        "noop": {"p50_s": noop_p50, "samples_s": noop_samples},
        "enabled": {"p50_s": enabled_p50, "samples_s": enabled_samples},
        "overhead_frac": overhead,
    }


def main(argv):
    quick = "--quick" in argv
    report = run(quick=quick)
    if not quick:
        batch16 = report["batches"]["16"]
        if batch16["speedup_p50"] < 3.0:
            print(
                f"WARNING: batch-16 speedup {batch16['speedup_p50']:.1f}x "
                f"below the 3x acceptance bar"
            )
            return 1
        quality = report["anytime"]["quality"]
        if quality["ratio"] > 1.05:
            print(
                f"WARNING: anytime quality ratio {quality['ratio']:.3f} "
                f"exceeds the 1.05 acceptance bound"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
