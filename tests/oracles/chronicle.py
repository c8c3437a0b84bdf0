"""Chronicle readers: replay a server's intervals and recompute its books.

The simulator only writes :class:`~repro.sim.chronicle.Chronicle`s.
These read them back: :func:`iter_spilled` decodes a JSONL spill file,
:func:`iter_all` replays one chronicle's spilled intervals and then its
resident ones in original order, and the rest apply the paper's
weighted-interval arithmetic (Fig. 4) to one VM's residency, so the
tests can check the simulated outcomes against it.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

from repro.campaign.records import MixKey
from repro.common.errors import SimulationError
from repro.sim.chronicle import Chronicle, Interval


def iter_spilled(path: str, server_id: str | None = None) -> Iterator[tuple[str, Interval]]:
    """Replay ``(server_id, interval)`` pairs from a spill file, in
    write order, optionally filtered to one server.

    Raises :class:`SimulationError` naming the path and line number on
    a line that is not a JSON record with every field (a spill file
    truncated or corrupted after the run).
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                server = raw["server"]
                if server_id is not None and server != server_id:
                    continue
                interval = Interval(
                    t0_s=raw["t0"],
                    t1_s=raw["t1"],
                    mix=tuple(raw["mix"]),
                    power_w=raw["power"],
                    vm_ids=tuple(raw["vms"]),
                )
            except (ValueError, KeyError, TypeError) as error:
                raise SimulationError(
                    f"chronicle spill {path}, line {lineno}: corrupt record "
                    f"({type(error).__name__}: {error})"
                ) from None
            yield server, interval


def iter_all(chronicle: Chronicle) -> Iterator[Interval]:
    """Every interval ``chronicle`` recorded in original order: spilled
    first (replayed from disk), then resident.

    Requires the spill to have been closed/flushed.  Raises when
    intervals were evicted with no spill attached -- a truncated audit
    would otherwise silently pass over the missing spans.
    """
    if chronicle.n_evicted:
        if chronicle.spill_path is None:
            raise SimulationError(
                f"chronicle {chronicle.server_id}: {chronicle.n_evicted} intervals "
                f"evicted without a spill; interval-level audit impossible"
            )
        for _, interval in iter_spilled(chronicle.spill_path, chronicle.server_id):
            yield interval
    yield from chronicle


def vm_intervals(chronicle: Chronicle, vm_id: str) -> list[Interval]:
    """The intervals during which one VM was resident (replays the
    spill when the ring evicted)."""
    return [i for i in iter_all(chronicle) if vm_id in i.vm_ids]


def vm_execution_time_s(chronicle: Chronicle, vm_id: str) -> float:
    """The VM's execution time as the sum of its interval durations.

    This *is* the Fig. 4 weighted formula: with weights
    ``w_k = dt_k / sum(dt)`` and per-interval "estimated time" equal to
    the full span, ``sum_k w_k * span = span``; we verify the simulator
    against the additive form, which is equivalent and numerically
    direct.  Like every interval-level query, the replay raises when
    intervals were evicted with no spill attached.
    """
    durations = [i.duration_s for i in vm_intervals(chronicle, vm_id)]
    if not durations:
        raise KeyError(f"VM {vm_id!r} never appeared on server {chronicle.server_id!r}")
    return sum(durations)


def interval_weights(chronicle: Chronicle, vm_id: str) -> list[tuple[float, MixKey]]:
    """(weight, mix) pairs over the VM's residency -- the inputs of
    the paper's ExecTime formula."""
    intervals = vm_intervals(chronicle, vm_id)
    total = sum(i.duration_s for i in intervals)
    if total <= 0:
        raise SimulationError(f"VM {vm_id!r} has zero recorded residency")
    return [(i.duration_s / total, i.mix) for i in intervals]


def fractions_from_durations(durations_s: Sequence[float]) -> list[float]:
    """Convert interval durations into the weights the formulas expect."""
    if not durations_s:
        raise ValueError("at least one duration is required")
    for duration in durations_s:
        if duration < 0:
            raise ValueError(f"durations must be >= 0, got {duration}")
    total = sum(durations_s)
    if total <= 0:
        raise ValueError("total duration must be positive")
    return [duration / total for duration in durations_s]
