"""Incremental cluster-state indexes: the simulator's event-site queries.

At every event site the event loop needs three answers: the snapshot
list handed to a strategy, the powered-on count for the gauge, and
whether the cluster is idle (the deadlock check).  Scanning every
server for each would cost O(n_servers) per event -- invisible at paper
scale, dominant at 100x-1000x.  ``tests/oracles/sim.py`` keeps that
scan-everything loop as the identity oracle; this module keeps five
structures incrementally instead:

* :class:`ClusterIndex` -- O(1) counters (powered-on servers, active
  VMs, failed servers) plus a dirty set of server slots whose snapshot
  changed since the last ``views()`` call.  Every mutation is funneled
  through :class:`repro.sim.server.ServerRuntime` host/unhost/power/
  fail/recover helpers, so the counters cannot drift from the ground
  truth; ``tests/oracles/sim.py::audit_index`` re-derives them for
  the property suite.
* :class:`ServerViews` -- the cached snapshot list handed to
  strategies.  Between events only the dirty slots are re-snapshotted
  in place; membership (which servers appear at all) is rebuilt only
  when a failure or recovery flips ``members_stale``.
* :class:`ClusterState` -- binds the servers to one index and answers
  the event loop's three queries from it, keeping the view list up to
  date.
* :class:`_FreeLevel` -- a per-multiplex free-capacity index over the
  visible views: an array of free-slot counts plus a 64-view block
  occupancy summary, so strategies can iterate feasible candidates in
  list order in O(n/64 + candidates) instead of scanning every view.
  Strategies reach it through the duck-typed
  :meth:`ServerViews.free_candidates` hook (no import edge from
  ``strategies`` back into ``sim``).
* class buckets -- per ``(mix, max_vms)`` class, the positions of its
  visible views in list order, so PROACTIVE reaches its class heads
  in O(classes x batch) instead of scanning every view.  Built on the
  first :meth:`ServerViews.class_heads` request (FF/BF/WF runs never
  pay for them), patched by ``refresh`` and dropped by ``reset``.

Index invariants (checked by ``tests/sim/test_index.py`` and the
oracle property suite):

* ``powered == sum(1 for s in servers if s.powered_on)``
* ``active_vms == sum(s.n_vms for s in servers)``
* ``failed == sum(1 for s in servers if s.failed)``
* after ``views()``: ``visible[i]`` equals the freshly built snapshot
  of the i-th non-failed server, and every ``_FreeLevel.free[i]``
  equals ``visible[i].free_slots(multiplex)``.
* once built, the buckets partition ``range(len(visible))`` by
  ``(visible[i].mix, visible[i].max_vms)``, each in ascending order,
  so ``class_heads(limit)`` equals
  ``core.allocator.class_heads(visible, key, limit)`` exactly.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Hashable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.strategies.base import ServerView

#: Views per occupancy block: one int summarizes 64 snapshots, so the
#: candidate iterator skips fully-packed regions 64 servers at a time.
_BLOCK = 64
_BLOCK_SHIFT = 6


class ClusterIndex:
    """O(1) cluster-wide counters plus snapshot-invalidation state.

    Owned by the datacenter driver; written only by the
    :class:`~repro.sim.server.ServerRuntime` mutation helpers of bound
    servers.  ``dirty`` holds server slots whose *snapshot content*
    changed (mix, power state); ``members_stale`` is raised when the
    set of visible servers itself changed (fail/recover) and the view
    list must be rebuilt rather than patched.
    """

    __slots__ = ("n_servers", "powered", "active_vms", "failed", "dirty", "members_stale")

    def __init__(self, n_servers: int):
        self.n_servers = n_servers
        self.powered = 0
        self.active_vms = 0
        self.failed = 0
        self.dirty: set[int] = set()
        #: True until the first views() call builds the initial list.
        self.members_stale = True

    # -- mutation hooks (called by ServerRuntime only) -----------------

    def adopt(self, slot: int, *, powered: bool, n_vms: int, failed: bool) -> None:
        """Fold an existing server's state in at bind time, so binding
        is correct even for a server that already lived a little."""
        if powered:
            self.powered += 1
        self.active_vms += n_vms
        if failed:
            self.failed += 1
        self.members_stale = True

    def on_power(self, slot: int, on: bool) -> None:
        self.powered += 1 if on else -1
        self.dirty.add(slot)

    def on_host(self, slot: int) -> None:
        self.active_vms += 1
        self.dirty.add(slot)

    def on_unhost(self, slot: int) -> None:
        self.active_vms -= 1
        self.dirty.add(slot)

    def on_failure(self, slot: int, failed: bool) -> None:
        self.failed += 1 if failed else -1
        self.members_stale = True


class _FreeLevel:
    """Free-slot counts for one multiplexing level over the visible views."""

    __slots__ = ("multiplex", "free", "block_nonzero")

    def __init__(self, multiplex: int, views: list["ServerView"]):
        self.multiplex = multiplex
        free = [view.free_slots(multiplex) for view in views]
        self.free = free
        self.block_nonzero = [0] * ((len(free) + _BLOCK - 1) >> _BLOCK_SHIFT)
        for pos, slots in enumerate(free):
            if slots > 0:
                self.block_nonzero[pos >> _BLOCK_SHIFT] += 1

    def refresh(self, pos: int, view: "ServerView") -> None:
        new = view.free_slots(self.multiplex)
        old = self.free[pos]
        if new == old:
            return
        self.free[pos] = new
        if (old > 0) != (new > 0):
            self.block_nonzero[pos >> _BLOCK_SHIFT] += 1 if new > 0 else -1

    def iter_free(self, views: list["ServerView"]) -> Iterator[tuple["ServerView", int]]:
        free = self.free
        n = len(free)
        for block, occupied in enumerate(self.block_nonzero):
            if not occupied:
                continue
            start = block << _BLOCK_SHIFT
            for pos in range(start, min(start + _BLOCK, n)):
                slots = free[pos]
                if slots > 0:
                    yield views[pos], slots


class ServerViews(list):
    """The cached snapshot list handed to strategies.

    A plain ``list[ServerView]`` to every existing consumer; on top of
    that it carries per-multiplex free-capacity levels and per-class
    buckets, and exposes :meth:`free_candidates` and
    :meth:`class_heads`, which strategies discover via ``getattr``
    (duck typing keeps ``strategies`` from importing ``sim``).  The
    simulator patches entries in place via :meth:`refresh` and wipes
    everything on membership changes via :meth:`reset`.

    The candidate iterator is snapshot-consistent only within a single
    placement call: the simulator never mutates servers while a
    strategy runs, and strategies must not hold the iterator across
    calls (the same rule as for the view snapshots themselves).
    """

    __slots__ = ("_levels", "_classes", "_buckets")

    def __init__(self) -> None:
        super().__init__()
        self._levels: dict[int, _FreeLevel] = {}
        #: Per position, the view's (mix, max_vms) class, and per class
        #: its positions in ascending order; None until class_heads asks.
        self._classes: list[Hashable] | None = None
        self._buckets: dict[Hashable, list[int]] | None = None

    def reset(self) -> None:
        """Forget everything (membership changed; driver re-appends)."""
        del self[:]
        self._levels.clear()
        self._classes = None
        self._buckets = None

    def refresh(self, pos: int) -> None:
        """Propagate an in-place snapshot replacement at ``pos``."""
        view = self[pos]
        for level in self._levels.values():
            level.refresh(pos, view)
        classes = self._classes
        if classes is None:
            return
        group = (view.mix, view.max_vms)
        old = classes[pos]
        if group == old:
            return
        classes[pos] = group
        buckets = self._buckets
        members = buckets[old]
        members.remove(pos)
        if not members:
            del buckets[old]
        insort(buckets.setdefault(group, []), pos)

    def free_candidates(self, multiplex: int) -> Iterator[tuple["ServerView", int]]:
        """Yield ``(view, free_slots)`` for every view with headroom,
        in list order -- the duck-typed strategy fast path."""
        level = self._levels.get(multiplex)
        if level is None:
            level = _FreeLevel(multiplex, self)
            self._levels[multiplex] = level
        return level.iter_free(self)

    def class_heads(self, limit: int) -> tuple[list["ServerView"], list[int]]:
        """The first ``limit`` views of every ``(mix, max_vms)`` class,
        in list order, and how many views each one stands for -- the
        duck-typed PROACTIVE fast path, equal to
        ``core.allocator.class_heads(self, key, limit)``."""
        buckets = self._buckets
        if buckets is None:
            classes = [(view.mix, view.max_vms) for view in self]
            buckets = {}
            for pos, group in enumerate(classes):
                buckets.setdefault(group, []).append(pos)
            self._classes = classes
            self._buckets = buckets
        keep = max(limit, 1)  # class_heads keeps every class's first member
        picked: list[int] = []
        dropped: dict[int, int] = {}  # a class's last head -> members past it
        for members in buckets.values():
            if len(members) > keep:
                picked += members[:keep]
                dropped[members[keep - 1]] = len(members) - keep
            else:
                picked += members
        picked.sort()
        heads = [self[pos] for pos in picked]
        return heads, [1 + dropped.get(pos, 0) for pos in picked]


class ClusterState:
    """The event loop's cluster queries, answered from the indexes.

    Binds every server to one fresh :class:`ClusterIndex` and keeps one
    :class:`ServerViews` list across events: only slots dirtied since
    the last :meth:`views` call are re-snapshotted (``make_view(slot)``),
    and membership is rebuilt only after a fail/recover.  Content and
    order (server order, failed servers skipped) equal a fresh rebuild
    by construction.
    """

    def __init__(self, servers, make_view):
        self.index = ClusterIndex(len(servers))
        for slot, server in enumerate(servers):
            server.bind_index(self.index, slot)
        self._servers = servers
        self._make_view = make_view
        self._visible = ServerViews()
        self._positions = [-1] * len(servers)

    def views(self) -> ServerViews:
        """The snapshot list of every non-failed server, in server order."""
        index = self.index
        visible = self._visible
        positions = self._positions
        if index.members_stale:
            index.members_stale = False
            index.dirty.clear()
            visible.reset()
            for slot, server in enumerate(self._servers):
                if server.failed:
                    positions[slot] = -1
                else:
                    positions[slot] = len(visible)
                    visible.append(self._make_view(slot))
        elif index.dirty:
            for slot in sorted(index.dirty):
                pos = positions[slot]
                if pos >= 0:
                    visible[pos] = self._make_view(slot)
                    visible.refresh(pos)
            index.dirty.clear()
        return visible

    def powered_count(self) -> int:
        return self.index.powered

    def idle(self) -> bool:
        """No VM hosted and no server failed."""
        return self.index.active_vms == 0 and self.index.failed == 0
