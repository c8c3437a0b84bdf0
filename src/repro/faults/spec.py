"""Declarative fault schedules: what breaks, when, and for how long.

A :class:`FaultSpec` is plain data -- explicit, timestamped fault
events plus an optional seeded random clause -- validated eagerly so a
malformed spec fails at parse time (the CLI turns that into an exit-2
usage error), never mid-simulation.  The taxonomy:

``server_crash``
    A server dies at ``time_s``: its resident VMs are evicted into the
    simulator's re-allocation queue (work restarts from scratch; the
    energy already burned stays accounted) and the server stops
    accepting placements until a matching ``server_recover``.
``server_recover``
    A previously crashed server returns to service.
``vm_abort``
    A single VM is killed and restarted (re-queued for re-placement);
    its job's deadline is unchanged, so aborts can only add SLA
    violations, never remove them.
``slowdown``
    A transient slowdown of one server: every resident VM progresses
    slower by ``factor`` (>= 1) for ``duration_s`` seconds.  Power draw
    follows the mix as usual, so the interval-weighted energy
    accounting stays exact.
``worker_failure``
    Not a simulation event: task ``task`` of a :func:`repro.exec.pmap`
    fan-out fails ``times`` times before succeeding, exercising the
    engine's bounded-retry / serial-last-resort path.

Determinism rule: a spec plus a seed fully determines the fault
timeline.  Explicit events are used as-is; the random clause expands
through :class:`repro.common.rng.SeedSequenceFactory` children keyed by
server index, so the same ``(spec, n_servers)`` pair always yields the
same schedule at any worker count (see DESIGN.md, "Failure model and
resilience testing").
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

from repro.common.errors import FaultSpecError

#: Metric names recorded by the injection points (simulator and
#: execution engine); kept here so every layer counts under one name.
FAULTS_INJECTED = "faults.injected"
FAULTS_REALLOCATIONS = "faults.reallocations"
FAULTS_RETRIES = "faults.retries"


class FaultKind(enum.Enum):
    """The fault taxonomy (see module docstring)."""

    SERVER_CRASH = "server_crash"
    SERVER_RECOVER = "server_recover"
    VM_ABORT = "vm_abort"
    SLOWDOWN = "slowdown"
    WORKER_FAILURE = "worker_failure"


#: Kinds that target the simulator (everything except worker_failure).
SIM_KINDS = frozenset(
    {
        FaultKind.SERVER_CRASH,
        FaultKind.SERVER_RECOVER,
        FaultKind.VM_ABORT,
        FaultKind.SLOWDOWN,
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One declared fault.

    Field applicability by kind: ``server`` for crash/recover/slowdown,
    ``vm`` for vm_abort, ``duration_s``/``factor`` for slowdown, and
    ``task``/``times`` for worker_failure (whose ``time_s`` is unused
    and fixed at 0).
    """

    kind: FaultKind
    time_s: float = 0.0
    server: int | None = None
    vm: str | None = None
    duration_s: float = 0.0
    factor: float = 1.0
    task: int | None = None
    times: int = 1

    def __post_init__(self) -> None:
        kind = FaultKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.time_s < 0:
            raise FaultSpecError(
                f"fault {kind.value!r}: time_s must be >= 0, got {self.time_s}"
            )
        if kind in (FaultKind.SERVER_CRASH, FaultKind.SERVER_RECOVER, FaultKind.SLOWDOWN):
            if self.server is None or self.server < 0:
                raise FaultSpecError(
                    f"fault {kind.value!r}: 'server' must be a server index >= 0, "
                    f"got {self.server!r}"
                )
        if kind is FaultKind.VM_ABORT and not self.vm:
            raise FaultSpecError("fault 'vm_abort': 'vm' must name the VM to abort")
        if kind is FaultKind.SLOWDOWN:
            if self.duration_s <= 0:
                raise FaultSpecError(
                    f"fault 'slowdown': duration_s must be > 0, got {self.duration_s}"
                )
            if self.factor < 1.0:
                raise FaultSpecError(
                    f"fault 'slowdown': factor must be >= 1 (a slowdown), "
                    f"got {self.factor}"
                )
        if kind is FaultKind.WORKER_FAILURE:
            if self.task is None or self.task < 0:
                raise FaultSpecError(
                    f"fault 'worker_failure': 'task' must be a task index >= 0, "
                    f"got {self.task!r}"
                )
            if self.times < 1:
                raise FaultSpecError(
                    f"fault 'worker_failure': 'times' must be >= 1, got {self.times}"
                )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value, "time_s": self.time_s}
        if self.server is not None:
            out["server"] = self.server
        if self.vm is not None:
            out["vm"] = self.vm
        if self.kind is FaultKind.SLOWDOWN:
            out["duration_s"] = self.duration_s
            out["factor"] = self.factor
        if self.kind is FaultKind.WORKER_FAILURE:
            out["task"] = self.task
            out["times"] = self.times
        return out


@dataclass(frozen=True)
class RandomFaults:
    """Seeded random crash generation, expanded at materialization.

    Each server independently draws crash times from a Poisson process
    of ``crash_rate_per_1000s`` over ``[window_t0_s, window_t1_s)``;
    every crash is followed by a recovery ``recover_after_s`` seconds
    later (``None`` = the server never recovers).  The draws come from
    per-server children of one :class:`~repro.common.rng.SeedSequenceFactory`,
    so the timeline is a pure function of ``(seed, server index)``.
    """

    crash_rate_per_1000s: float
    window_t0_s: float = 0.0
    window_t1_s: float = 3600.0
    recover_after_s: float | None = None

    def __post_init__(self) -> None:
        if self.crash_rate_per_1000s < 0:
            raise FaultSpecError(
                f"random faults: crash_rate_per_1000s must be >= 0, "
                f"got {self.crash_rate_per_1000s}"
            )
        if self.window_t0_s < 0 or self.window_t1_s <= self.window_t0_s:
            raise FaultSpecError(
                f"random faults: need 0 <= window_t0_s < window_t1_s, got "
                f"[{self.window_t0_s}, {self.window_t1_s})"
            )
        if self.recover_after_s is not None and self.recover_after_s <= 0:
            raise FaultSpecError(
                f"random faults: recover_after_s must be > 0, "
                f"got {self.recover_after_s}"
            )

    def to_dict(self) -> dict:
        return {
            "crash_rate_per_1000s": self.crash_rate_per_1000s,
            "window_t0_s": self.window_t0_s,
            "window_t1_s": self.window_t1_s,
            "recover_after_s": self.recover_after_s,
        }


@dataclass(frozen=True)
class FaultSpec:
    """A validated fault schedule: explicit events + optional random clause."""

    events: tuple[FaultEvent, ...] = ()
    random: RandomFaults | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.seed < 0:
            raise FaultSpecError(f"seed must be >= 0, got {self.seed}")

    @property
    def worker_failures(self) -> Mapping[int, int]:
        """{task index: failure count} for the execution engine."""
        plan: dict[int, int] = {}
        for event in self.events:
            if event.kind is FaultKind.WORKER_FAILURE:
                assert event.task is not None
                plan[event.task] = plan.get(event.task, 0) + event.times
        return plan

    @property
    def sim_events(self) -> tuple[FaultEvent, ...]:
        """The explicit events that target the simulator."""
        return tuple(e for e in self.events if e.kind in SIM_KINDS)

    def is_empty(self) -> bool:
        """True when materialization can never produce a fault."""
        return not self.events and (
            self.random is None or self.random.crash_rate_per_1000s == 0.0
        )

    # -- (de)serialization ---------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        if not isinstance(data, Mapping):
            raise FaultSpecError(
                f"fault spec must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise FaultSpecError(f"unknown fault spec keys: {sorted(unknown)}")
        events = []
        raw_events = data.get("events", [])
        if not isinstance(raw_events, Sequence) or isinstance(raw_events, (str, bytes)):
            raise FaultSpecError("'events' must be a list of fault objects")
        for i, raw in enumerate(raw_events):
            if not isinstance(raw, Mapping):
                raise FaultSpecError(f"events[{i}] must be an object, got {raw!r}")
            kind_name = raw.get("kind")
            try:
                kind = FaultKind(kind_name)
            except ValueError:
                raise FaultSpecError(
                    f"events[{i}]: unknown fault kind {kind_name!r}; expected one "
                    f"of {sorted(k.value for k in FaultKind)}"
                ) from None
            extra = set(raw) - set(_EVENT_TYPES) - {"kind"}
            if extra:
                raise FaultSpecError(f"events[{i}]: unknown keys {sorted(extra)}")
            values = _typed(raw, _EVENT_TYPES, f"events[{i}]")
            try:
                events.append(FaultEvent(kind=kind, **values))
            except FaultSpecError as error:
                raise FaultSpecError(f"events[{i}]: {error}") from None
        random = None
        if data.get("random") is not None:
            raw_random = data["random"]
            if not isinstance(raw_random, Mapping):
                raise FaultSpecError("'random' must be an object")
            extra = set(raw_random) - set(_RANDOM_TYPES)
            if extra:
                raise FaultSpecError(f"random: unknown keys {sorted(extra)}")
            if "crash_rate_per_1000s" not in raw_random:
                raise FaultSpecError("random: 'crash_rate_per_1000s' is required")
            random = RandomFaults(**_typed(raw_random, _RANDOM_TYPES, "random"))
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultSpecError(f"seed must be an integer, got {seed!r}")
        return cls(events=tuple(events), random=random, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultSpecError(f"fault spec is not valid JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_path(cls, path: str) -> "FaultSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise FaultSpecError(f"cannot read fault spec {path!r}: {error}") from None
        except UnicodeDecodeError as error:
            raise FaultSpecError(
                f"fault spec {path!r} is not UTF-8 text: {error.reason}"
            ) from None
        return cls.from_json(text)

    def to_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self.events],
            "random": self.random.to_dict() if self.random is not None else None,
            "seed": self.seed,
        }


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


#: Field checks by annotation: (accepts the value, what it must be).
_CHECKS = {
    "float": (_finite_number, "a finite number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _field_types(cls) -> dict:
    """{field: (annotation less ``| None``, nullable)}, ``kind`` aside."""
    return {
        f.name: (f.type.partition(" | ")[0], f.type.endswith(" | None"))
        for f in fields(cls)
        if f.name != "kind"
    }


def _typed(raw: Mapping, types: dict, where: str) -> dict:
    """The fields of ``raw``, each checked against its annotation; absent
    fields keep the dataclass defaults."""
    values = {}
    for name, (base, nullable) in types.items():
        if name not in raw:
            continue
        value = raw[name]
        accepts, what = _CHECKS[base]
        if value is None and nullable:
            values[name] = None
        elif accepts(value):
            values[name] = float(value) if base == "float" else value
        else:
            raise FaultSpecError(
                f"{where}: bad field value: {where}.{name} must be "
                f"{what}{' or null' if nullable else ''}, got {value!r}"
            )
    return values


_SPEC_KEYS = frozenset(field.name for field in fields(FaultSpec))
_EVENT_TYPES = _field_types(FaultEvent)
_RANDOM_TYPES = _field_types(RandomFaults)


@dataclass(frozen=True)
class FaultRecord:
    """One entry of a simulation's fault log (what actually happened).

    ``applied`` is False for no-op injections (crashing an
    already-failed server, aborting a VM that finished first);
    ``lost_work_s`` is the evicted VMs' progress discarded by a crash
    or abort -- the work the re-allocation must redo.
    """

    time_s: float
    kind: str
    target: str
    vm_ids: tuple[str, ...] = ()
    lost_work_s: float = 0.0
    applied: bool = True
    detail: str = ""


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Injected worker failures for one :func:`repro.exec.pmap` call.

    ``failures`` maps a task's input index to the number of times its
    execution raises :class:`~repro.common.errors.TransientTaskError`
    before succeeding.  The plan is consulted identically on the serial
    and pool paths, so retry counters and results stay bit-identical at
    any worker count.
    """

    failures: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized: dict[int, int] = {}
        for index, times in dict(self.failures).items():
            if not isinstance(index, int) or index < 0:
                raise FaultSpecError(
                    f"worker fault plan: task index must be an int >= 0, got {index!r}"
                )
            if not isinstance(times, int) or times < 1:
                raise FaultSpecError(
                    f"worker fault plan: failure count must be an int >= 1, "
                    f"got {times!r}"
                )
            normalized[index] = times
        object.__setattr__(self, "failures", normalized)

    def failures_for(self, index: int) -> int:
        return self.failures.get(index, 0)

    def __bool__(self) -> bool:
        return bool(self.failures)
