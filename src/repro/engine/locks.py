"""Lock manager: item locks plus relation-granularity predicate locks.

Implements the lock vocabulary of Figure 1:

* **item locks** on single objects, in READ or WRITE mode.  READ is shared;
  WRITE is exclusive (and conflicts with READ).  Upgrades (READ→WRITE by the
  same holder) are granted when no other transaction holds the lock.
* **predicate (phantom) locks**, modelled at relation granularity — the
  "granular locks" variant the paper cites from Gray & Reuter.  A predicate
  read takes a shared relation lock; it conflicts with *item WRITE locks held
  by other transactions on objects of that relation*, and, conversely, an
  item WRITE acquisition conflicts with other transactions' relation locks.
  This is coarser than precision locking (it may block writers that would
  not change the predicate's matches) but is sound, which is all Figure 1
  needs.

Lock *durations* (``LONG`` = held to commit, ``SHORT`` = released after the
operation, ``NONE`` = not acquired) are the scheduler's business; the manager
only tracks ownership.  Conflicts raise :class:`~repro.exceptions.WouldBlock`
carrying the holders, from which the simulator builds its waits-for graph.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Set, Tuple

from ..core.objects import relation_of
from ..exceptions import WouldBlock

__all__ = ["LockMode", "LockDuration", "LockManager"]


class LockMode(Enum):
    READ = "read"
    WRITE = "write"


class LockDuration(Enum):
    NONE = "none"
    SHORT = "short"
    LONG = "long"


class LockManager:
    """Ownership tables for item and relation locks."""

    def __init__(self) -> None:
        #: obj -> {tid -> mode}
        self._items: Dict[str, Dict[int, LockMode]] = {}
        #: relation -> set of tids holding the shared predicate lock
        self._relations: Dict[str, Set[int]] = {}
        #: relation -> objs with any WRITE lock (for predicate conflicts), in
        #: the order they were locked: a predicate lock's blockers are
        #: collected in this order, and a set of strings would iterate in
        #: ``PYTHONHASHSEED`` order and leak it into the waits-for search.
        self._write_locked: Dict[str, Dict[str, None]] = {}
        # Observability (instrument()): grant/block counters and hold
        # durations in logical steps read off the registry clock.
        self._metrics = None
        self._tracer = None
        self._scheduler = ""
        #: (scope, tid, resource) -> registry clock at first grant
        self._acquired_at: Dict[tuple, int] = {}
        #: Series bound at first use: ``("grants" | "blocks", scope, mode)``
        #: counters and ``("hold", scope)`` histograms.
        self._series: Dict[tuple, object] = {}

    def instrument(self, *, metrics=None, tracer=None, scheduler: str = "") -> None:
        """Attach a metrics registry and/or tracer: counts grants/blocks
        (``lock_grants_total``/``lock_blocks_total{scope,mode}``) and
        observes hold durations (``lock_hold_steps{scope}``) in logical
        steps of the registry clock (ticked by the simulator); with a
        tracer, every refused acquisition emits a ``lock.blocked`` event
        (nesting under the innermost open span — e.g. a server's
        ``server.handle``)."""
        self._metrics = metrics
        self._tracer = tracer
        self._scheduler = scheduler
        self._series.clear()

    def _note_grant(self, scope: str, mode: str, tid: int, resource: str) -> None:
        m = self._metrics
        counter = self._series.get(("grants", scope, mode))
        if counter is None:
            counter = self._series["grants", scope, mode] = m.counter(
                "lock_grants_total", "lock acquisitions granted"
            ).labels(scope=scope, mode=mode, scheduler=self._scheduler)
        counter.inc()
        self._acquired_at.setdefault((scope, tid, resource), m.clock)

    def _note_block(
        self, scope: str, mode: str, tid: int, resource: str, holders
    ) -> None:
        if self._metrics is not None:
            counter = self._series.get(("blocks", scope, mode))
            if counter is None:
                counter = self._series["blocks", scope, mode] = self._metrics.counter(
                    "lock_blocks_total", "lock acquisitions that had to wait"
                ).labels(scope=scope, mode=mode, scheduler=self._scheduler)
            counter.inc()
        if self._tracer is not None:
            self._tracer.event(
                "lock.blocked",
                scope=scope,
                mode=mode,
                obj=resource,
                holders=sorted(holders),
                tid=tid,
                scheduler=self._scheduler,
            )

    def _note_release(self, scope: str, tid: int, resource: str) -> None:
        m = self._metrics
        held_since = self._acquired_at.pop((scope, tid, resource), None)
        if held_since is not None:
            histogram = self._series.get(("hold", scope))
            if histogram is None:
                histogram = self._series["hold", scope] = m.histogram(
                    "lock_hold_steps", "lock hold durations in logical steps"
                ).labels(scope=scope, scheduler=self._scheduler)
            histogram.observe(m.clock - held_since)

    # ------------------------------------------------------------------
    # item locks
    # ------------------------------------------------------------------

    def acquire_item(self, tid: int, obj: str, mode: LockMode) -> None:
        """Grant or raise :class:`WouldBlock` with the conflicting holders."""
        holders = self._items.setdefault(obj, {})
        if mode is LockMode.READ:
            blockers = {
                t for t, m in holders.items() if t != tid and m is LockMode.WRITE
            }
        else:
            blockers = {t for t in holders if t != tid}
            # WRITE also conflicts with other transactions' predicate locks
            # on the object's relation (phantom protection).
            blockers |= {
                t
                for t in self._relations.get(relation_of(obj), ())
                if t != tid
            }
        if blockers:
            if self._metrics is not None or self._tracer is not None:
                self._note_block("item", mode.value, tid, obj, blockers)
            raise WouldBlock(tid, f"{mode.value} lock on {obj!r}", blockers)
        current = holders.get(tid)
        if current is None or (current is LockMode.READ and mode is LockMode.WRITE):
            holders[tid] = mode
        if holders[tid] is LockMode.WRITE:
            self._write_locked.setdefault(relation_of(obj), {})[obj] = None
        if self._metrics is not None:
            self._note_grant("item", mode.value, tid, obj)

    def release_item(self, tid: int, obj: str) -> None:
        holders = self._items.get(obj)
        if not holders:
            return
        if tid in holders and self._metrics is not None:
            self._note_release("item", tid, obj)
        holders.pop(tid, None)
        if not any(m is LockMode.WRITE for m in holders.values()):
            self._write_locked.get(relation_of(obj), {}).pop(obj, None)

    def downgrade_or_release_read(self, tid: int, obj: str) -> None:
        """Release a short read lock, preserving a WRITE lock the
        transaction may also hold (reads after own writes)."""
        holders = self._items.get(obj)
        if holders and holders.get(tid) is LockMode.READ:
            if self._metrics is not None:
                self._note_release("item", tid, obj)
            holders.pop(tid)

    # ------------------------------------------------------------------
    # predicate (relation) locks
    # ------------------------------------------------------------------

    def acquire_relation(self, tid: int, relation: str) -> None:
        blockers = set()
        for obj in self._write_locked.get(relation, ()):
            blockers |= {
                t
                for t, m in self._items.get(obj, {}).items()
                if t != tid and m is LockMode.WRITE
            }
        if blockers:
            if self._metrics is not None or self._tracer is not None:
                self._note_block("predicate", "read", tid, relation, blockers)
            raise WouldBlock(
                tid, f"predicate lock on relation {relation!r}", blockers
            )
        self._relations.setdefault(relation, set()).add(tid)
        if self._metrics is not None:
            self._note_grant("predicate", "read", tid, relation)

    def release_relation(self, tid: int, relation: str) -> None:
        if self._metrics is not None and tid in self._relations.get(relation, ()):
            self._note_release("predicate", tid, relation)
        self._relations.get(relation, set()).discard(tid)

    # ------------------------------------------------------------------
    # bulk release and introspection
    # ------------------------------------------------------------------

    def release_all(self, tid: int) -> None:
        """Drop every lock the transaction holds (commit/abort)."""
        for obj, holders in list(self._items.items()):
            if tid in holders:
                self.release_item(tid, obj)
        for rel, holders in self._relations.items():
            if self._metrics is not None and tid in holders:
                self._note_release("predicate", tid, rel)
            holders.discard(tid)

    def holders_of(self, obj: str) -> Dict[int, LockMode]:
        return dict(self._items.get(obj, {}))

    def held_by(self, tid: int) -> Tuple[str, ...]:
        """Objects on which the transaction holds any item lock."""
        return tuple(
            obj for obj, holders in self._items.items() if tid in holders
        )
