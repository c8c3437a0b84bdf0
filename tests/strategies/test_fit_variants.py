"""Unit tests for the BEST-FIT / WORST-FIT / RANDOM-FIT baselines."""

import pytest

from repro.common.errors import ConfigurationError
from repro.strategies.base import ServerView, VMDescriptor
from repro.strategies.slotfit import (
    BestFitStrategy,
    RandomFitStrategy,
    WorstFitStrategy,
)
from repro.testbed.benchmarks import WorkloadClass


def view(server_id, mix=(0, 0, 0)):
    return ServerView(server_id=server_id, mix=mix, max_vms=24, cpu_slots=4, powered_on=True)


def one_vm():
    return [VMDescriptor("v0", WorkloadClass.CPU)]


class TestBestFit:
    def test_prefers_tightest_server(self):
        servers = [view("empty"), view("busy", mix=(3, 0, 0))]
        placement = BestFitStrategy(1).place(one_vm(), servers)
        assert placement["v0"] == "busy"

    def test_none_when_full(self):
        assert BestFitStrategy(1).place(one_vm(), [view("s", mix=(4, 0, 0))]) is None

    def test_name(self):
        assert BestFitStrategy(2).name == "BF-2"

    def test_invalid_multiplex(self):
        with pytest.raises(ConfigurationError):
            BestFitStrategy(0)


class TestWorstFit:
    def test_prefers_emptiest_server(self):
        servers = [view("busy", mix=(3, 0, 0)), view("empty")]
        placement = WorstFitStrategy(1).place(one_vm(), servers)
        assert placement["v0"] == "empty"

    def test_spreads_batch(self):
        servers = [view("a"), view("b")]
        batch = [VMDescriptor(f"v{i}", WorkloadClass.CPU) for i in range(2)]
        placement = WorstFitStrategy(1).place(batch, servers)
        assert set(placement.values()) == {"a", "b"}

    def test_name(self):
        assert WorstFitStrategy(1).name == "WF"


class TestRandomFit:
    def test_deterministic_with_seed(self):
        servers = [view(f"s{i}") for i in range(10)]
        batch = [VMDescriptor(f"v{i}", WorkloadClass.CPU) for i in range(5)]
        a = RandomFitStrategy(1, rng=42).place(batch, servers)
        b = RandomFitStrategy(1, rng=42).place(batch, servers)
        assert a == b

    def test_only_feasible_servers_used(self):
        servers = [view("full", mix=(4, 0, 0)), view("open")]
        placement = RandomFitStrategy(1, rng=1).place(one_vm(), servers)
        assert placement["v0"] == "open"

    def test_none_when_everything_full(self):
        assert RandomFitStrategy(1, rng=1).place(one_vm(), [view("s", mix=(4, 0, 0))]) is None

    def test_name(self):
        assert RandomFitStrategy(3).name == "RAND-3"
