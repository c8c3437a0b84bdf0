"""Unit tests for the heterogeneous-hardware extension."""

import copy
import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.ext.hetero import (
    HeteroProactiveStrategy,
    ServerClass,
    build_class_databases,
    default_classes,
)
from repro.ext.hetero.classes import class_specs
from repro.sim.datacenter import DatacenterConfig, DatacenterSimulator
from repro.strategies.base import ServerView, VMDescriptor
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import Subsystem
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy


@pytest.fixture(scope="module")
def classes():
    return default_classes()


@pytest.fixture(scope="module")
def databases(classes):
    return build_class_databases(classes)


class TestClasses:
    def test_default_two_classes(self, classes):
        assert [c.name for c in classes] == ["legacy", "modern"]
        assert classes[1].spec.capacity(Subsystem.CPU) == 8.0

    def test_per_class_databases(self, databases):
        assert set(databases) == {"legacy", "modern"}
        # The modern node consolidates more before contention: larger
        # CPU grid bound.
        assert databases["modern"].grid_bounds[0] > databases["legacy"].grid_bounds[0]

    def test_duplicate_class_names_rejected(self, classes):
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_class_databases([classes[0], classes[0]])

    def test_class_specs_expansion(self, classes):
        specs, labels = class_specs(classes, {"legacy": 2, "modern": 1})
        assert len(specs) == 3
        assert labels == ("legacy", "legacy", "modern")
        assert specs[2].capacity(Subsystem.CPU) == 8.0

    def test_class_specs_unknown_class(self, classes):
        with pytest.raises(ConfigurationError, match="unknown"):
            class_specs(classes, {"quantum": 1})


class TestHeteroStrategy:
    def _views(self, labels):
        views = []
        for i, label in enumerate(labels):
            cpu_slots = 8 if label == "modern" else 4
            views.append(
                ServerView(
                    server_id=f"s{i}",
                    mix=(0, 0, 0),
                    max_vms=32 if label == "modern" else 24,
                    cpu_slots=cpu_slots,
                    powered_on=False,
                )
            )
        return views

    def _class_map(self, labels):
        return {f"s{i}": label for i, label in enumerate(labels)}

    def test_places_all_vms(self, databases):
        labels = ["legacy", "modern"]
        strategy = HeteroProactiveStrategy(databases, self._class_map(labels))
        batch = [VMDescriptor(f"v{i}", WorkloadClass.CPU) for i in range(6)]
        placement = strategy.place(batch, self._views(labels))
        assert placement is not None
        assert len(placement) == 6

    def test_unknown_server_class_rejected(self, databases):
        with pytest.raises(ConfigurationError):
            HeteroProactiveStrategy(databases, {"s0": "quantum"})

    def test_big_cpu_batch_lands_on_modern_node(self, databases):
        # 12 CPU VMs exceed the legacy grid bound but fit the modern
        # one; with alpha=0 (time) the modern node also runs them
        # faster.
        labels = ["legacy", "modern"]
        strategy = HeteroProactiveStrategy(databases, self._class_map(labels), alpha=0.0)
        batch = [VMDescriptor(f"v{i}", WorkloadClass.CPU) for i in range(12)]
        placement = strategy.place(batch, self._views(labels))
        assert placement is not None
        from collections import Counter

        counts = Counter(placement.values())
        assert counts.get("s1", 0) >= counts.get("s0", 0)

    def test_plans_come_from_the_core_allocator(self, databases):
        labels = ["legacy", "modern", "legacy"]
        strategy = HeteroProactiveStrategy(databases, self._class_map(labels))
        assert strategy.name == "PA-0.5-hetero"
        batch = [VMDescriptor(f"v{i}", WorkloadClass.MEM) for i in range(4)]
        assert strategy.place(batch, self._views(labels)) is not None
        assert strategy.last_plan.search_provenance is not None
        assert strategy.database_for("s1") is databases["modern"]

    def test_survives_deepcopy_and_pickle(self, databases):
        # Sharded runs deep-copy the strategy and ship it to workers.
        labels = ["legacy", "modern", "modern"]
        strategy = HeteroProactiveStrategy(databases, self._class_map(labels))
        batch = [VMDescriptor(f"v{i}", WorkloadClass.IO) for i in range(5)]
        placement = strategy.place(batch, self._views(labels))
        for clone in (copy.deepcopy(strategy), pickle.loads(pickle.dumps(strategy))):
            assert clone.place(batch, self._views(labels)) == placement

    def test_unmapped_server_is_named(self, databases):
        strategy = HeteroProactiveStrategy(databases, self._class_map(["legacy"]))
        views = self._views(["legacy", "modern"])
        with pytest.raises(ConfigurationError, match="'s1'"):
            strategy.place([VMDescriptor("v0", WorkloadClass.CPU)], views)

    def test_none_when_nothing_fits(self, databases):
        labels = ["legacy"]
        strategy = HeteroProactiveStrategy(databases, self._class_map(labels))
        osc, osm, osi = databases["legacy"].grid_bounds
        full_view = ServerView("s0", (osc, osm, osi), max_vms=24, cpu_slots=4, powered_on=True)
        assert strategy.place([VMDescriptor("v0", WorkloadClass.CPU)], [full_view]) is None


class TestHeteroSimulation:
    def test_end_to_end_on_mixed_cluster(self, classes, databases):
        specs, labels = class_specs(classes, {"legacy": 2, "modern": 1})
        config = DatacenterConfig(n_servers=3, server_specs=specs)
        simulator = DatacenterSimulator(config)
        class_map = {f"s{i:04d}": label for i, label in enumerate(labels)}
        strategy = HeteroProactiveStrategy(databases, class_map, alpha=0.5)
        jobs = [
            PreparedJob(job_id=i, submit_time_s=i * 30.0, workload_class=wc, n_vms=2, burst_id=i)
            for i, wc in enumerate(
                [WorkloadClass.CPU, WorkloadClass.MEM, WorkloadClass.IO, WorkloadClass.CPU],
                start=1,
            )
        ]
        result = simulator.run(jobs, strategy, QoSPolicy.unlimited())
        assert result.metrics.n_jobs == 4
        assert result.metrics.energy_j > 0

    def test_server_specs_length_checked(self, classes):
        specs, _ = class_specs(classes, {"legacy": 2})
        with pytest.raises(ConfigurationError):
            DatacenterConfig(n_servers=3, server_specs=specs)
