"""Materialize a :class:`~repro.faults.spec.FaultSpec` into a timeline.

A :class:`FaultSchedule` is what the simulator consumes: a tuple of
:class:`ScheduledFault` entries sorted by ``(time_s, declaration
order)``, with slowdowns expanded into explicit start/end pairs and the
spec's random clause expanded through seeded per-server streams.  The
same ``(spec, n_servers)`` pair always materializes to the same
timeline -- the determinism rule the chaos tests pin down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import FaultSpecError
from repro.faults.spec import (
    FaultEvent,
    FaultKind,
    FaultSpec,
    RandomFaults,
)


class FaultAction(enum.Enum):
    """Concrete simulator actions (slowdowns split into start/end)."""

    CRASH = "crash"
    RECOVER = "recover"
    ABORT_VM = "abort_vm"
    SLOWDOWN_START = "slowdown_start"
    SLOWDOWN_END = "slowdown_end"


@dataclass(frozen=True)
class ScheduledFault:
    """One materialized timeline entry."""

    time_s: float
    action: FaultAction
    server: int | None = None
    vm: str | None = None
    factor: float = 1.0


@dataclass(frozen=True)
class FaultSchedule:
    """The simulator-facing half of a materialized spec.

    ``timeline`` is sorted and stable.  The spec's worker-failure
    injections are not part of it: callers hand
    ``FaultSpec.worker_failures`` to :func:`repro.exec.pmap` directly.
    """

    timeline: tuple[ScheduledFault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.timeline)

    def validate_servers(self, n_servers: int) -> None:
        """Reject server targets outside the simulated cluster."""
        for entry in self.timeline:
            if entry.server is not None and not 0 <= entry.server < n_servers:
                raise FaultSpecError(
                    f"fault at t={entry.time_s} targets server {entry.server} "
                    f"but the cluster has {n_servers} servers"
                )


#: Label prefix for the per-server random-crash streams.
_SERVER_STREAM = "faults.server.{index}"


def _random_crashes(spec: FaultSpec, n_servers: int) -> list[ScheduledFault]:
    random = spec.random
    if random is None or random.crash_rate_per_1000s == 0.0:
        return []
    # numpy (behind the seed streams) loads only when a spec draws.
    from repro.common.rng import SeedSequenceFactory

    factory = SeedSequenceFactory(spec.seed)
    entries: list[ScheduledFault] = []
    mean_gap_s = 1000.0 / random.crash_rate_per_1000s
    for server in range(n_servers):
        rng = factory.child(_SERVER_STREAM.format(index=server))
        t = random.window_t0_s
        while True:
            t += float(rng.exponential(scale=mean_gap_s))
            if t >= random.window_t1_s:
                break
            entries.append(ScheduledFault(time_s=t, action=FaultAction.CRASH, server=server))
            if random.recover_after_s is None:
                break  # dead for good; further draws would be no-ops
            recover_t = t + random.recover_after_s
            entries.append(
                ScheduledFault(time_s=recover_t, action=FaultAction.RECOVER, server=server)
            )
            t = max(t, recover_t)
    return entries


def _explicit_entries(events: tuple[FaultEvent, ...]) -> list[ScheduledFault]:
    entries: list[ScheduledFault] = []
    for event in events:
        if event.kind is FaultKind.SERVER_CRASH:
            entries.append(
                ScheduledFault(time_s=event.time_s, action=FaultAction.CRASH, server=event.server)
            )
        elif event.kind is FaultKind.SERVER_RECOVER:
            entries.append(
                ScheduledFault(time_s=event.time_s, action=FaultAction.RECOVER, server=event.server)
            )
        elif event.kind is FaultKind.VM_ABORT:
            entries.append(
                ScheduledFault(time_s=event.time_s, action=FaultAction.ABORT_VM, vm=event.vm)
            )
        elif event.kind is FaultKind.SLOWDOWN:
            entries.append(
                ScheduledFault(
                    time_s=event.time_s,
                    action=FaultAction.SLOWDOWN_START,
                    server=event.server,
                    factor=event.factor,
                )
            )
            entries.append(
                ScheduledFault(
                    time_s=event.time_s + event.duration_s,
                    action=FaultAction.SLOWDOWN_END,
                    server=event.server,
                )
            )
    return entries


def materialize(spec: FaultSpec, n_servers: int) -> FaultSchedule:
    """Expand a spec into the deterministic timeline for one cluster.

    Sorting is by ``(time_s, materialization order)``: simultaneous
    faults apply in declaration order, which keeps the timeline stable
    run to run (Python's sort is stable).
    """
    if n_servers < 1:
        raise FaultSpecError(f"n_servers must be >= 1, got {n_servers}")
    entries = _explicit_entries(spec.sim_events)
    entries.extend(_random_crashes(spec, n_servers))
    entries.sort(key=lambda entry: entry.time_s)
    schedule = FaultSchedule(timeline=tuple(entries))
    schedule.validate_servers(n_servers)
    return schedule


def random_crash_spec(
    seed: int,
    crash_rate_per_1000s: float,
    window_s: "tuple[float, float]" = (0.0, 3600.0),
    recover_after_s: float | None = None,
    extra_events: "tuple[FaultEvent, ...] | list[FaultEvent]" = (),
) -> FaultSpec:
    """Convenience constructor for seeded chaos suites and benchmarks."""
    return FaultSpec(
        events=tuple(extra_events),
        random=RandomFaults(
            crash_rate_per_1000s=crash_rate_per_1000s,
            window_t0_s=window_s[0],
            window_t1_s=window_s[1],
            recover_after_s=recover_after_s,
        ),
        seed=seed,
    )
