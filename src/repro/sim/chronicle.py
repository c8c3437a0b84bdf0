"""Interval chronicles: audit trails of the interval-weighted accounting.

The paper computes estimated execution times and energy "with the
weighted average of the values associated to each interval of time"
(Fig. 4).  The simulator realizes the same semantics event-by-event; a
:class:`Chronicle` records every (t0, t1, mix, power) interval of a
server so that the weighted-interval arithmetic can be *recomputed
after the fact* and checked against the simulated outcomes -- which is
exactly what ``tests/integration/test_chronicle_consistency.py`` does.
The chronicle is the audit trail, not an accountant: it keeps no
running totals.  ``ServerRuntime`` is the one energy, carbon and cost
account.  The simulator only writes chronicles; the readers that replay
one (spilled intervals, then resident ones) and recompute the server's
books from it are ``tests/oracles/chronicle.py``.

Scale additions (DESIGN.md "Simulation at scale"):

* **Bounded memory.**  ``capacity`` turns the interval log into a ring
  buffer: once full, the oldest interval is evicted per append, so
  chronicle memory is flat regardless of run length.
* **JSONL spill.**  An optional :class:`ChronicleSpill` sink receives
  evicted intervals as JSON lines (the spill file is shared by all
  servers of a run; each line is tagged with its server id).
  Evicting *without* a spill is allowed; a replay then raises rather
  than silently reporting on a truncated log.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from itertools import starmap
from typing import IO, Iterator, NamedTuple, Sequence

from repro.campaign.records import MixKey
from repro.common.errors import SimulationError


@dataclass(frozen=True)
class ChronicleNote:
    """A point annotation on a server's timeline (fault, recovery,
    re-placement).  Notes carry no energy; they exist so post-hoc
    audits can line the interval log up against the fault timeline."""

    t_s: float
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class Interval:
    """One constant-mix span of a server's life."""

    t0_s: float
    t1_s: float
    mix: MixKey
    power_w: float
    vm_ids: tuple[str, ...]

    @property
    def duration_s(self) -> float:
        return self.t1_s - self.t0_s

    @property
    def energy_j(self) -> float:
        return self.power_w * self.duration_s


class IntervalRow(NamedTuple):
    """A chronicle's resident form of an :class:`Interval`: the same
    fields, in the same order, as a plain tuple (``Interval(*row)``
    rebuilds the interval).  Rows are what the ring keeps and the spill
    encodes; intervals are built only where they are read."""

    t0_s: float
    t1_s: float
    mix: MixKey
    power_w: float
    vm_ids: tuple[str, ...]


#: Spill lines buffered per file write.  Small on purpose: 256 lines
#: raised `campaign-ff` peak RSS by 0.1 MB for no measurable speed.
SPILL_BATCH_LINES = 64


def encode_interval(server_id: str, interval: Interval | IntervalRow) -> str:
    """One spill line, byte-for-byte ``json.dumps(record, separators=(",",
    ":")) + "\\n"`` -- with the encoders ``json.dumps`` itself applies to
    strings, ints and finite floats, minus its generic dispatch.
    Non-finite floats (spelled ``NaN``/``Infinity``) and other operand
    types go through ``json.dumps``."""
    t0, t1, power = interval.t0_s, interval.t1_s, interval.power_w
    try:
        # The sum is finite only when all three operands are.
        if isfinite(t0 + t1 + power):
            return (
                f'{{"server":{encode_basestring_ascii(server_id)},'
                f'"t0":{float.__repr__(t0)},"t1":{float.__repr__(t1)},'
                f'"mix":[{",".join(map(int.__repr__, interval.mix))}],'
                f'"power":{float.__repr__(power)},'
                f'"vms":[{",".join(map(encode_basestring_ascii, interval.vm_ids))}]}}\n'
            )
    except TypeError:
        pass  # an operand of another type: json.dumps spells it
    record = {"server": server_id, "t0": t0, "t1": t1, "mix": list(interval.mix),
              "power": power, "vms": list(interval.vm_ids)}
    return json.dumps(record, separators=(",", ":")) + "\n"


class ChronicleSpill:
    """Shared append-only JSONL sink for evicted intervals.

    One spill file serves every chronicle of a run; lines carry their
    server id, so replay filters per server.  Lines are written every
    :data:`SPILL_BATCH_LINES` lines and on :meth:`close`.  The simulator
    owns the lifecycle: create before the run, :meth:`close` on every
    exit (readers require a closed file).
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._handle: IO[str] | None = open(self.path, "w", encoding="utf-8")
        self._pending: list[str] = []
        self.n_written = 0

    def write(self, server_id: str, interval: Interval | IntervalRow) -> None:
        if self._handle is None:
            raise SimulationError(f"chronicle spill {self.path} is closed")
        pending = self._pending
        pending.append(encode_interval(server_id, interval))
        self.n_written += 1
        if len(pending) >= SPILL_BATCH_LINES:
            self._handle.write("".join(pending))
            pending.clear()

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            with handle:
                handle.write("".join(self._pending))

    def __enter__(self) -> "ChronicleSpill":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Chronicle:
    """Interval log for one server.

    ``capacity=None`` retains every interval (the historical
    behavior); an integer capacity keeps only the newest ``capacity``
    intervals resident, evicting the oldest to ``spill`` (when given).
    """

    def __init__(
        self,
        server_id: str,
        capacity: int | None = None,
        spill: ChronicleSpill | None = None,
    ):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"chronicle capacity must be >= 1, got {capacity}")
        self.server_id = server_id
        self.capacity = capacity
        self._spill = spill
        self._spill_path = spill.path if spill is not None else None
        self._rows: deque[IntervalRow] = deque()
        self._notes: list[ChronicleNote] = []
        self._end_s = float("-inf")
        self.n_recorded = 0
        self.n_evicted = 0

    def __getstate__(self) -> dict:
        # Results (and their chronicles) cross process boundaries via
        # exec.pmap; the open spill handle stays behind -- replay goes
        # through the recorded spill_path instead.
        state = self.__dict__.copy()
        state["_spill"] = None
        return state

    @property
    def spill_path(self) -> str | None:
        """Where this chronicle's evicted intervals went (None = no spill)."""
        return self._spill_path

    def record(
        self,
        t0_s: float,
        t1_s: float,
        mix: MixKey,
        power_w: float,
        vm_ids: Sequence[str],
    ) -> None:
        if t1_s < t0_s:
            raise SimulationError(f"interval ends before it starts: ({t0_s}, {t1_s})")
        if t1_s == t0_s:
            return  # zero-length syncs carry no information
        rows = self._rows
        if rows and t0_s < self._end_s - 1e-9:
            raise SimulationError(
                f"interval at {t0_s} overlaps previous ending {self._end_s}"
            )
        if self.capacity is not None and len(rows) >= self.capacity:
            oldest = rows.popleft()
            if self._spill is not None:
                self._spill.write(self.server_id, oldest)
            self.n_evicted += 1
        rows.append(IntervalRow(t0_s, t1_s, mix, power_w, tuple(vm_ids)))
        self._end_s = t1_s
        self.n_recorded += 1

    def note(self, t_s: float, kind: str, detail: str = "") -> None:
        """Annotate the timeline (faults may land mid-interval, so notes
        are not checked against interval boundaries)."""
        self._notes.append(ChronicleNote(t_s=t_s, kind=kind, detail=detail))

    @property
    def notes(self) -> tuple[ChronicleNote, ...]:
        return tuple(self._notes)

    def __len__(self) -> int:
        """Resident interval count (equals ``n_recorded`` unless the
        ring evicted)."""
        return len(self._rows)

    def __iter__(self) -> Iterator[Interval]:
        return starmap(Interval, self._rows)
