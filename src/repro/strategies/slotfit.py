"""Slot-based placement: FIRST-FIT and its bin-packing contenders.

The paper's baselines (Sect. IV-D): "FIRST-FIT (FF), in which job
requests are allocated following the first-fit policy based on CPU
slots.  It means that an incoming job request is allocated to the
first available server until the number of allocated VMs is equal to
the number of CPUs (VM multiplexing on CPUs is not allowed).
FIRST-FIT-2 (FF-2) and FIRST-FIT-3 (FF-3) are two variants of
FIRST-FIT that allow multiplexing up to 2 and 3 VMs on each CPU,
respectively."

Beyond the paper, for ablations, the contenders it cites ("using
heuristics like first fit, best fit, etc."): BEST-FIT packs each VM
onto the server with the least headroom, WORST-FIT spreads it onto the
one with the most, and RANDOM-FIT draws uniformly among the servers
with headroom (deterministic given its seed) -- a sanity floor any
strategy worth running should beat on at least one metric.

All four read one candidate source, :func:`free_candidates`.  BF, WF
and RAND share one placement loop (:class:`SlotFitStrategy`) and
differ only in :meth:`~SlotFitStrategy.choose`; FF walks the same
source lazily, since it only ever takes the first candidate.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import RngLike, derive_rng
from repro.strategies.base import AllocationStrategy, ServerView, VMDescriptor


def free_candidates(
    servers: Sequence[ServerView], multiplex: int
) -> Iterator[tuple[ServerView, int]]:
    """Yield ``(view, free slots)`` for every server with headroom at
    ``multiplex``, in list order.

    The simulator's indexed snapshot list
    (:class:`repro.sim.index.ServerViews`) answers from its per-level
    free-capacity counts; it is found by duck typing, so this layer
    never imports ``sim``.  Any other sequence is scanned.
    """
    indexed = getattr(servers, "free_candidates", None)
    if indexed is not None:
        return indexed(multiplex)
    return (
        (view, free) for view in servers if (free := view.free_slots(multiplex)) > 0
    )


class SlotFitStrategy(AllocationStrategy):
    """Placement over CPU slots with a multiplexing level.

    ``multiplex`` is how many VMs each CPU may hold (FF-2 allows two);
    a server's headroom is :meth:`ServerView.free_slots`.  A job's VMs
    may span several servers.  Each VM goes to the server
    :meth:`choose` picks among those with headroom left, which shrinks
    as the job's earlier VMs land; the job queues (``None``) as soon as
    no server has any.
    """

    #: Display-name stem: ``label`` at multiplex 1, ``label-k`` above.
    label: str

    def __init__(self, multiplex: int = 1):
        # bool is an int subclass, and int() truncates 2.5 or fails on
        # nan, so check the value before converting it.
        if (
            isinstance(multiplex, bool)
            or not isinstance(multiplex, numbers.Real)
            or not math.isfinite(multiplex)
            or multiplex != int(multiplex)
            or multiplex < 1
        ):
            raise ConfigurationError(
                f"multiplex must be a whole number >= 1, got {multiplex!r}"
            )
        self.multiplex = int(multiplex)
        self.name = self.label if self.multiplex == 1 else f"{self.label}-{self.multiplex}"

    def place(
        self,
        vms: Sequence[VMDescriptor],
        servers: Sequence[ServerView],
    ) -> Optional[Mapping[str, str]]:
        headroom = {
            view.server_id: free for view, free in free_candidates(servers, self.multiplex)
        }
        placement: dict[str, str] = {}
        for vm in vms:
            candidates = [server_id for server_id, free in headroom.items() if free > 0]
            if not candidates:
                return None
            chosen = self.choose(candidates, headroom)
            headroom[chosen] -= 1
            placement[vm.vm_id] = chosen
        return placement

    def choose(self, candidates: list[str], headroom: Mapping[str, int]) -> str:
        """The server for the next VM: one of ``candidates``, the ids
        with headroom left, in list order."""
        raise NotImplementedError


class FirstFitStrategy(SlotFitStrategy):
    """First-fit: each VM goes to the first server with headroom.

    ``multiplex=1`` is the paper's FF, 2 is FF-2, 3 is FF-3.  Headroom
    only shrinks within one call, so the walk consumes the candidates
    once, in list order, and stops as soon as the job is covered.
    """

    label = "FF"

    def place(
        self,
        vms: Sequence[VMDescriptor],
        servers: Sequence[ServerView],
    ) -> Optional[Mapping[str, str]]:
        candidates = free_candidates(servers, self.multiplex)
        placement: dict[str, str] = {}
        server_id = ""
        remaining = 0
        for vm in vms:
            while remaining == 0:
                nxt = next(candidates, None)
                if nxt is None:
                    return None
                view, remaining = nxt
                server_id = view.server_id
            placement[vm.vm_id] = server_id
            remaining -= 1
        return placement


class BestFitStrategy(SlotFitStrategy):
    """Best-fit: the least headroom, packing servers tightly."""

    label = "BF"

    def choose(self, candidates: list[str], headroom: Mapping[str, int]) -> str:
        return min(candidates, key=headroom.__getitem__)


class WorstFitStrategy(SlotFitStrategy):
    """Worst-fit: the most headroom, spreading load -- the antithesis
    of energy-aware consolidation, trading powered servers for less
    contention."""

    label = "WF"

    def choose(self, candidates: list[str], headroom: Mapping[str, int]) -> str:
        return max(candidates, key=headroom.__getitem__)


class RandomFitStrategy(SlotFitStrategy):
    """Random-fit: a uniform draw from the strategy's own generator."""

    label = "RAND"

    def __init__(self, multiplex: int = 1, rng: RngLike = None):
        super().__init__(multiplex)
        self._rng = derive_rng(rng)

    def choose(self, candidates: list[str], headroom: Mapping[str, int]) -> str:
        return candidates[int(self._rng.integers(0, len(candidates)))]
