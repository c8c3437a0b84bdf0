"""Property-based tests for the event queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventQueue

times = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=0, max_size=100
)


class TestEventQueueProperties:
    @given(times)
    @settings(max_examples=60)
    def test_pops_sorted(self, schedule_times):
        q: EventQueue[int] = EventQueue()
        for i, t in enumerate(schedule_times):
            q.schedule(t, i)
        popped = [q.pop()[0] for _ in range(len(schedule_times))]
        assert popped == sorted(popped)

    @given(times)
    @settings(max_examples=60)
    def test_all_payloads_delivered_once(self, schedule_times):
        q: EventQueue[int] = EventQueue()
        for i, t in enumerate(schedule_times):
            q.schedule(t, i)
        payloads = [q.pop()[1] for _ in range(len(schedule_times))]
        assert sorted(payloads) == list(range(len(schedule_times)))

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_fifo_among_equal_times(self, batch):
        q: EventQueue[int] = EventQueue()
        t = 5.0
        for i in range(len(batch)):
            q.schedule(t, i)
        assert [q.pop()[1] for _ in batch] == list(range(len(batch)))
