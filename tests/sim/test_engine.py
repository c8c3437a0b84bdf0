"""Unit tests for the event queue."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        q: EventQueue[str] = EventQueue()
        q.schedule(5.0, "b")
        q.schedule(1.0, "a")
        q.schedule(9.0, "c")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        q: EventQueue[str] = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_clock_advances(self):
        q: EventQueue[str] = EventQueue()
        q.schedule(3.0, "x")
        assert q.now == 0.0
        q.pop()
        assert q.now == 3.0

    def test_scheduling_in_past_rejected(self):
        q: EventQueue[str] = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        with pytest.raises(SimulationError):
            q.schedule(4.0, "y")

    def test_tiny_past_clamped(self):
        q: EventQueue[str] = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        q.schedule(5.0 - 1e-12, "y")  # float residue is tolerated
        assert q.pop()[0] >= 5.0

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_bool_and_len(self):
        q: EventQueue[str] = EventQueue()
        assert not q
        q.schedule(1.0, "x")
        assert q
        assert len(q) == 1
