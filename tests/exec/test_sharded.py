"""Sharded campaign execution: bit-identity at any worker count."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.runtime import Observability, observed
from repro.exec.sharded import run_sharded, shard_spill_paths
from repro.faults import random_crash_spec
from repro.sim.datacenter import DatacenterConfig
from repro.strategies.slotfit import FirstFitStrategy, RandomFitStrategy
from repro.strategies.proactive import ProactiveStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy
from tests.oracles.chronicle import iter_all, iter_spilled


def make_jobs(n):
    classes = list(WorkloadClass)
    return [
        PreparedJob(
            job_id=i + 1,
            submit_time_s=15.0 * i,
            workload_class=classes[i % len(classes)],
            n_vms=1 + i % 3,
            burst_id=i // 4,
        )
        for i in range(n)
    ]


def run(jobs=None, *, shards=1, workers=1, config=None, faults=None, obs=None):
    return run_sharded(
        jobs if jobs is not None else make_jobs(14),
        FirstFitStrategy(2),
        QoSPolicy.unlimited(),
        config if config is not None else DatacenterConfig(n_servers=6),
        shards=shards,
        workers=workers,
        faults=faults,
        obs=obs,
    )


class TestValidation:
    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="shards must be"):
            run(shards=0)
        with pytest.raises(ConfigurationError, match="workers must be"):
            run(workers=0)


class TestSpillPaths:
    def test_no_spill_and_single_shard_pass_through(self):
        config = DatacenterConfig(n_servers=4)
        assert shard_spill_paths(config, 3) == (None, None, None)
        spilling = DatacenterConfig(
            n_servers=4,
            record_chronicles=True,
            chronicle_capacity=2,
            chronicle_spill_path="x.jsonl",
        )
        assert shard_spill_paths(spilling, 1) == ("x.jsonl",)
        assert shard_spill_paths(spilling, 2) == (
            "x.jsonl.shard000",
            "x.jsonl.shard001",
        )


class TestShardedIdentity:
    def test_single_shard_matches_plain_simulator(self):
        from repro.sim.datacenter import DatacenterSimulator

        plain = DatacenterSimulator(DatacenterConfig(n_servers=6)).run(
            make_jobs(14), FirstFitStrategy(2), QoSPolicy.unlimited()
        )
        sharded = run(shards=1)
        assert sharded.metrics == plain.metrics
        assert sorted(sharded.outcomes, key=lambda o: o.job_id) == sorted(
            plain.outcomes, key=lambda o: o.job_id
        )

    def test_sharding_conserves_jobs_and_energy_split(self):
        # Shard decomposition changes placement (each shard only sees
        # its slice), but never loses jobs or breaks the energy split.
        sharded = run(shards=3)
        assert sorted(o.job_id for o in sharded.outcomes) == [
            j.job_id for j in make_jobs(14)
        ]
        assert sharded.metrics.energy_j == pytest.approx(
            sharded.metrics.busy_energy_j + sharded.metrics.idle_energy_j
        )
        assert sharded.n_servers == 6

    def test_worker_count_is_invisible(self):
        serial = run(shards=3, workers=1)
        pooled = run(shards=3, workers=2)
        assert pooled == serial

    def test_worker_count_is_invisible_under_faults(self):
        spec = random_crash_spec(seed=7, crash_rate_per_1000s=4.0, recover_after_s=120.0)
        serial = run(shards=3, workers=1, faults=spec)
        pooled = run(shards=3, workers=3, faults=spec)
        assert pooled.outcomes == serial.outcomes
        assert pooled.fault_log == serial.fault_log
        assert pooled.metrics == serial.metrics

    def test_metrics_snapshots_match_across_worker_counts(self):
        snapshots = []
        for workers in (1, 2):
            obs = Observability()
            run(shards=2, workers=workers, obs=obs)
            snapshot = obs.snapshot()
            # Scheduling internals legitimately vary with the pool
            # size; everything the *simulation* records must not.
            for volatile in ("exec.fallbacks", "exec.rescues"):
                snapshot.get("counters", {}).pop(volatile, None)
            snapshots.append(json.dumps(snapshot, sort_keys=True))
        assert snapshots[0] == snapshots[1]

    def test_stateful_strategy_not_shared_between_shards(self):
        # Each shard must see a fresh deep copy; with a shared RNG the
        # serial path would consume draws shard-by-shard in a way a
        # pool could not reproduce.
        def run_rand(workers):
            return run_sharded(
                make_jobs(10),
                RandomFitStrategy(2, rng=123),
                QoSPolicy.unlimited(),
                DatacenterConfig(n_servers=6),
                shards=2,
                workers=workers,
            )

        assert run_rand(1) == run_rand(2)


class TestShardStrategyCopy:
    """Each shard copies the strategy's search state but shares its
    read-only model database and estimate grid."""

    def test_shards_share_the_database_and_start_at_zero(self, database, monkeypatch):
        from repro.sim.datacenter import DatacenterSimulator

        seen = []
        simulate = DatacenterSimulator.run

        def spy(self, jobs, strategy, qos, faults=None):
            seen.append((strategy, strategy.metrics.counter_values("strategy.")))
            return simulate(self, jobs, strategy, qos, faults=faults)

        monkeypatch.setattr(DatacenterSimulator, "run", spy)
        strategy = ProactiveStrategy(database, alpha=0.5)
        run_sharded(
            make_jobs(14),
            strategy,
            QoSPolicy.unlimited(),
            DatacenterConfig(n_servers=6),
            shards=2,
        )
        assert len(seen) == 2
        for copy, counts in seen:
            assert copy is not strategy
            assert copy.database is strategy.database
            assert copy._allocator.estimate_grid is database.estimate_grid
            assert counts and set(counts.values()) == {0}
            assert copy.metrics.counter("strategy.plans", strategy=copy.name).value > 0
        # The shards counted into their own copies, not the payload's.
        assert set(strategy.metrics.counter_values("strategy.").values()) == {0}

    def test_proactive_worker_count_is_invisible(self, database):
        def run_pa(workers):
            return run_sharded(
                make_jobs(14),
                ProactiveStrategy(database, alpha=0.5),
                QoSPolicy.unlimited(),
                DatacenterConfig(n_servers=6),
                shards=2,
                workers=workers,
            )

        assert run_pa(2) == run_pa(1)


class TestShardStrategyCounters:
    """A strategy built under observability counts its sharded plans
    into the caller's registry, as an unsharded run does."""

    def plans(self, database, run_fn):
        with observed() as obs:
            run_fn(ProactiveStrategy(database, alpha=0.5))
            return obs.registry.counter_values("strategy.plans")

    def test_sharded_counts_match_the_plain_run(self, database):
        from repro.sim.datacenter import DatacenterSimulator

        config = DatacenterConfig(n_servers=6)
        plain = self.plans(
            database,
            lambda strategy: DatacenterSimulator(config).run(
                make_jobs(14), strategy, QoSPolicy.unlimited()
            ),
        )
        assert plain == {'strategy.plans{strategy="PA-0.5"}': 14}
        for shards, workers in ((1, 1), (2, 1), (2, 2)):
            sharded = self.plans(
                database,
                lambda strategy: run_sharded(
                    make_jobs(14),
                    strategy,
                    QoSPolicy.unlimited(),
                    config,
                    shards=shards,
                    workers=workers,
                ),
            )
            assert sharded == plain, (shards, workers)


class TestShardedChronicles:
    def test_global_server_names_and_spills(self, tmp_path):
        base = str(tmp_path / "spill.jsonl")
        config = DatacenterConfig(
            n_servers=5,
            record_chronicles=True,
            chronicle_capacity=2,
            chronicle_spill_path=base,
        )
        result = run(shards=2, workers=2, config=config)
        assert [c.server_id for c in result.chronicles] == [
            f"s{i:04d}" for i in range(5)
        ]
        # Every chronicle can replay its full log from its shard's
        # spill file, and the replayed energy matches its server's.
        for chronicle, busy, idle in zip(
            result.chronicles, result.per_server_busy_j, result.per_server_idle_j
        ):
            intervals = list(iter_all(chronicle))
            assert len(intervals) == chronicle.n_recorded
            assert sum(i.energy_j for i in intervals) == pytest.approx(
                busy + idle, rel=1e-9
            )
        paths = {c.spill_path for c in result.chronicles if c.n_evicted}
        assert paths  # this workload evicts on a capacity-2 ring
        for path in paths:
            assert path.startswith(base + ".shard")
            assert list(iter_spilled(path))


class TestJobSpooling:
    """spool_dir bounds resident jobs without changing a single bit."""

    def spooled(self, tmp_path, *, workers=1, faults=None):
        tmp_path.mkdir(parents=True, exist_ok=True)
        return run_sharded(
            make_jobs(30),
            FirstFitStrategy(2),
            QoSPolicy.unlimited(),
            DatacenterConfig(n_servers=6),
            shards=3,
            workers=workers,
            faults=faults,
            spool_dir=str(tmp_path),
        )

    def test_spooled_matches_in_memory(self, tmp_path):
        plain = run(make_jobs(30), shards=3)
        spooled = self.spooled(tmp_path)
        assert spooled == plain

    def test_spool_files_one_per_shard(self, tmp_path):
        self.spooled(tmp_path)
        names = sorted(p.name for p in tmp_path.glob("jobs_shard*.pkl"))
        assert names == ["jobs_shard000.pkl", "jobs_shard001.pkl", "jobs_shard002.pkl"]

    def test_spooled_identical_across_worker_counts(self, tmp_path):
        serial = self.spooled(tmp_path / "a", workers=1)
        pooled = self.spooled(tmp_path / "b", workers=2)
        assert serial == pooled

    def test_spooled_identical_under_faults(self, tmp_path):
        spec = random_crash_spec(seed=7, crash_rate_per_1000s=4.0, recover_after_s=120.0)
        plain = run(make_jobs(30), shards=3, faults=spec)
        spooled = self.spooled(tmp_path, faults=spec)
        assert spooled == plain

    def run_spooled(self, jobs, tmp_path):
        return run_sharded(
            jobs,
            FirstFitStrategy(2),
            QoSPolicy.unlimited(),
            DatacenterConfig(n_servers=6),
            shards=3,
            spool_dir=str(tmp_path),
        )

    def test_lazy_iterator_streams_to_identical_result(self, tmp_path):
        plain = run(make_jobs(30), shards=3)
        spooled = self.run_spooled(iter(make_jobs(30)), tmp_path)
        assert spooled == plain

    def test_unsorted_list_is_sorted_first(self, tmp_path):
        plain = run(make_jobs(30), shards=3)
        spooled = self.run_spooled(list(reversed(make_jobs(30))), tmp_path)
        assert spooled == plain

    def test_out_of_order_lazy_iterator_rejected(self, tmp_path):
        # A lazy stream cannot be sorted without materializing it, and
        # a different visit order would break bit-identity with the
        # in-memory partition -- so it must fail loudly instead.
        with pytest.raises(ConfigurationError, match="sorted"):
            self.run_spooled(iter(reversed(make_jobs(30))), tmp_path)

    def test_chunked_spool_files_replay_in_order(self, tmp_path, monkeypatch):
        import repro.exec.sharded as sharded_mod

        monkeypatch.setattr(sharded_mod, "_SPOOL_CHUNK", 4)
        plain = run(make_jobs(30), shards=3)
        spooled = self.run_spooled(iter(make_jobs(30)), tmp_path)
        assert spooled == plain
