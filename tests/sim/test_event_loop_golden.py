"""Golden digests of the datacenter event loop.

The naive oracle simulator (``tests/oracles/sim.py``) runs this same
event loop with naive servers and cluster queries, so the oracle
suites cannot catch a mistake in the loop itself: a reordered
boundary schedule, a lost chronicle note or a miscounted attempt
changes both sides alike.  These tests pin the SHA-256 of everything
a few small runs produce -- outcomes, metrics, per-server energy,
carbon and cost, the fault log, chronicle intervals and notes, the
spill file's bytes, the deterministic part of the metrics snapshot
and the deterministic trace.

The runs cover both placement paths (queued jobs, with backfilling,
and fault-evicted groups), every server-fault action applied and as a
no-op, and VM aborts.  A digest is re-recorded only for an intended
change of the simulator's outputs, and such a change is stated in
CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

from repro.ext.carbon import TemporalSignals
from repro.ext.carbon.signal import daily_carbon_signal, double_peak_price_signal
from repro.faults import FaultEvent, FaultKind, FaultSpec, materialize
from repro.obs.runtime import observed
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies import FirstFitStrategy, ProactiveStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy
from tests.oracles.chronicle import iter_all

N_SERVERS = 6
CLASSES = (WorkloadClass.CPU, WorkloadClass.MEM, WorkloadClass.IO)


def golden_jobs() -> list[PreparedJob]:
    """20 jobs of 1-8 VMs in three bursts, all three classes: enough
    to fill the cluster, so jobs queue and backfill."""
    jobs = []
    for i in range(20):
        burst, k = divmod(i, 7)
        jobs.append(
            PreparedJob(
                job_id=i + 1,
                submit_time_s=burst * 250.0 + k * 10.0,
                workload_class=CLASSES[(i * 5) % 3],
                n_vms=1 + (i * 5) % 8,
                burst_id=burst,
            )
        )
    return jobs


def golden_faults() -> FaultSpec:
    """One applied and one no-op entry of each server-fault action and
    of a VM abort."""
    kinds = FaultKind

    def event(kind, t, **fields):
        return FaultEvent(kind=kind, time_s=t, **fields)

    return FaultSpec(
        events=(
            # Applied: crash and recover server 0 (it hosts the first
            # jobs under every strategy), slow server 1 for a while,
            # abort the first job's VM while it runs.
            event(kinds.SERVER_CRASH, 300.0, server=0),
            event(kinds.SERVER_RECOVER, 1300.0, server=0),
            event(kinds.SLOWDOWN, 120.0, server=1, duration_s=400.0, factor=1.5),
            event(kinds.VM_ABORT, 60.0, vm="j1-0"),
            # No-ops: crash a failed server, recover a healthy one, a
            # slowdown that starts and ends while its server is down,
            # abort an unknown VM.
            event(kinds.SERVER_CRASH, 350.0, server=0),
            event(kinds.SERVER_RECOVER, 90.0, server=2),
            event(kinds.SLOWDOWN, 500.0, server=0, duration_s=200.0, factor=2.0),
            event(kinds.VM_ABORT, 700.0, vm="j999-0"),
        )
    )


def golden_qos() -> QoSPolicy:
    """Finite deadlines, so placements see remaining-deadline hints."""
    return QoSPolicy(max_response_s={wc: 2500.0 for wc in CLASSES})


def golden_config(spill_path: str) -> DatacenterConfig:
    return DatacenterConfig(
        n_servers=N_SERVERS,
        record_chronicles=True,
        chronicle_capacity=3,
        chronicle_spill_path=spill_path,
        backfill_window=2,
        signals=TemporalSignals(
            carbon=daily_carbon_signal(), price=double_peak_price_signal()
        ),
    )


def run_digest(tmp_path, strategy, *, faults=None) -> str:
    """SHA-256 over everything one run produces."""
    spill = tmp_path / "spill.jsonl"
    config = golden_config(str(spill))
    schedule = materialize(faults, N_SERVERS) if faults is not None else None
    trace = io.StringIO()
    with observed(trace_sink=trace, deterministic=True) as obs:
        result = DatacenterSimulator(config).run(
            golden_jobs(),
            strategy,
            golden_qos(),
            faults=schedule,
        )
        snapshot = obs.snapshot()
    document = {
        "metrics": dataclasses.asdict(result.metrics),
        "outcomes": [dataclasses.asdict(o) for o in result.outcomes],
        "busy_j": result.per_server_busy_j,
        "idle_j": result.per_server_idle_j,
        "carbon_g": result.per_server_carbon_g,
        "cost": result.per_server_cost,
        "fault_log": [dataclasses.asdict(r) for r in result.fault_log],
        "chronicles": [
            {
                "server": chronicle.server_id,
                "intervals": [dataclasses.asdict(i) for i in iter_all(chronicle)],
                "notes": [dataclasses.asdict(n) for n in chronicle.notes],
            }
            for chronicle in result.chronicles
        ],
        "spill": spill.read_bytes().decode("utf-8"),
        "snapshot": snapshot,
        "trace": trace.getvalue(),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Recorded before the event loop's placement step and fault bracket
#: were folded into one each; every output byte must survive that.
GOLDEN = {
    "FF-2": "b02c5166f6053610cd92b0ea8432568b3324989b5f92d4e5063c0f7b08b7558c",
    "PA-0.5": "fca0f849f373ca78fc8ee65ca2bfa38af395019315138030e14e447530c271e1",
}


class TestEventLoopGolden:
    def test_ff2_with_faults(self, tmp_path):
        assert run_digest(
            tmp_path, FirstFitStrategy(2), faults=golden_faults()
        ) == GOLDEN["FF-2"]

    def test_pa05_with_faults(self, tmp_path, database):
        assert run_digest(
            tmp_path, ProactiveStrategy(database, alpha=0.5), faults=golden_faults()
        ) == GOLDEN["PA-0.5"]

    def test_runs_exercise_every_path(self, tmp_path):
        """The golden runs keep covering what they pin: both placement
        paths, backfilling, applied and no-op faults of every action,
        and spilled intervals."""
        spill = tmp_path / "spill.jsonl"
        with observed() as obs:
            result = DatacenterSimulator(golden_config(str(spill))).run(
                golden_jobs(),
                FirstFitStrategy(2),
                golden_qos(),
                faults=materialize(golden_faults(), N_SERVERS),
            )
            counters = obs.registry.counter_values()
        applied = {(r.kind, r.applied) for r in result.fault_log}
        for kind in ("crash", "recover", "slowdown_start", "slowdown_end", "abort_vm"):
            assert (kind, True) in applied and (kind, False) in applied, kind
        assert counters['sim.jobs_backfilled{strategy="FF-2"}'] > 0
        assert counters['faults.reallocations{strategy="FF-2"}'] > 1
        assert spill.stat().st_size > 0
        notes = {n.kind for c in result.chronicles for n in c.notes}
        assert {"crash", "recover", "slowdown", "slowdown_end", "abort", "replace"} <= notes
