"""Generic discrete-event engine: a time-ordered event queue.

Deliberately minimal -- a heap of (time, sequence, payload) with a
monotonic clock.  The sequence number makes ordering stable for
simultaneous events (FIFO among equals), which keeps simulations
deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Generic, TypeVar

from repro.common.errors import SimulationError

T = TypeVar("T")


class EventQueue(Generic[T]):
    """A deterministic priority queue of timestamped events."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, T]] = []
        self._sequence = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time (the timestamp of the last pop)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: float, payload: T) -> None:
        """Add an event; scheduling in the past is an engine bug."""
        now = self._now
        if time < now:
            if time < now - 1e-9:
                raise SimulationError(
                    f"cannot schedule event at {time} before current time {now}"
                )
            time = now
        sequence = self._sequence
        heappush(self._heap, (time, sequence, payload))
        self._sequence = sequence + 1

    def pop(self) -> tuple[float, T]:
        """Remove and return the earliest (time, payload); advances the clock."""
        heap = self._heap
        if not heap:
            raise SimulationError("pop from an empty event queue")
        time, _, payload = heappop(heap)
        self._now = time
        return time, payload
