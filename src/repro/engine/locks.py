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

Each refusal is also remembered per transaction, with the *generation
stamps* of the state it was decided on: an object's item holders, a
relation's predicate holders, and the WRITE locks on a relation's objects
(what a predicate request conflicts with).  A stamp moves only when that
state changes, so while :meth:`LockManager._refusal_stands` says yes, asking
again would raise the same ``WouldBlock`` with the same holders — the
simulator's blocked retries ask this instead of re-running the step.
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
        #: tid -> objs it holds an item lock on, in first-grant order
        #: (``release_all`` walks these, not every object ever locked).
        self._held: Dict[int, Dict[str, None]] = {}
        #: Generation stamps, bumped whenever the state a request is decided
        #: on changes: obj -> its item holders; relation -> its predicate
        #: holders; relation -> the WRITE locks on its objects.
        self._item_gen: Dict[str, int] = {}
        self._predicate_gen: Dict[str, int] = {}
        self._write_gen: Dict[str, int] = {}
        #: tid -> the ``(stamp table, key, stamp)`` triples its last refused
        #: request was decided on (see :meth:`_refusal_stands`).
        self._refusals: Dict[int, Tuple[Tuple[Dict[str, int], str, int], ...]] = {}
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
    # refusals
    # ------------------------------------------------------------------

    def _refusal_stands(self, tid: int) -> bool:
        """Whether ``tid``'s last refused request would be refused again on
        the same holders: none of the state it was decided on has changed
        since.  ``False`` once ``release_all(tid)`` ran (the transaction
        committed or was aborted — e.g. wounded while it waited)."""
        refusal = self._refusals.get(tid)
        if refusal is None:
            return False
        for stamps, key, stamp in refusal:
            if stamps.get(key, 0) != stamp:
                return False
        return True

    # ------------------------------------------------------------------
    # item locks
    # ------------------------------------------------------------------

    def acquire_item(self, tid: int, obj: str, mode: LockMode) -> None:
        """Grant or raise :class:`WouldBlock` with the conflicting holders."""
        holders = self._items.setdefault(obj, {})
        item_gen = self._item_gen
        if mode is LockMode.READ:
            blockers = {
                t for t, m in holders.items() if t != tid and m is LockMode.WRITE
            }
            if blockers:
                self._refusals[tid] = ((item_gen, obj, item_gen.get(obj, 0)),)
        else:
            relation = relation_of(obj)
            blockers = {t for t in holders if t != tid}
            # WRITE also conflicts with other transactions' predicate locks
            # on the object's relation (phantom protection).
            blockers |= {
                t for t in self._relations.get(relation, ()) if t != tid
            }
            if blockers:
                predicate_gen = self._predicate_gen
                self._refusals[tid] = (
                    (item_gen, obj, item_gen.get(obj, 0)),
                    (predicate_gen, relation, predicate_gen.get(relation, 0)),
                )
        if blockers:
            if self._metrics is not None or self._tracer is not None:
                self._note_block("item", mode.value, tid, obj, blockers)
            # Raised, never bound to a local: a kept exception would tie its
            # traceback, and this frame, into a garbage cycle.
            raise WouldBlock(tid, f"{mode.value} lock on {obj!r}", blockers)
        current = holders.get(tid)
        if current is None or (current is LockMode.READ and mode is LockMode.WRITE):
            holders[tid] = mode
            item_gen[obj] = item_gen.get(obj, 0) + 1
            if current is None:
                self._held.setdefault(tid, {})[obj] = None
            if mode is LockMode.WRITE:
                relation = relation_of(obj)
                self._write_locked.setdefault(relation, {})[obj] = None
                self._write_gen[relation] = self._write_gen.get(relation, 0) + 1
        if self._metrics is not None:
            self._note_grant("item", mode.value, tid, obj)

    def release_item(self, tid: int, obj: str) -> None:
        holders = self._items.get(obj)
        if not holders or tid not in holders:
            return
        if self._metrics is not None:
            self._note_release("item", tid, obj)
        mode = holders.pop(tid)
        self._item_gen[obj] = self._item_gen.get(obj, 0) + 1
        held = self._held.get(tid)
        if held is not None:
            held.pop(obj, None)
        if mode is LockMode.WRITE:
            # WRITE is exclusive: no WRITE lock is left on ``obj``.
            relation = relation_of(obj)
            self._write_locked[relation].pop(obj, None)
            self._write_gen[relation] = self._write_gen.get(relation, 0) + 1

    def downgrade_or_release_read(self, tid: int, obj: str) -> None:
        """Release a short read lock, preserving a WRITE lock the
        transaction may also hold (reads after own writes)."""
        holders = self._items.get(obj)
        if holders and holders.get(tid) is LockMode.READ:
            self.release_item(tid, obj)

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
            write_gen = self._write_gen
            self._refusals[tid] = (
                (write_gen, relation, write_gen.get(relation, 0)),
            )
            if self._metrics is not None or self._tracer is not None:
                self._note_block("predicate", "read", tid, relation, blockers)
            raise WouldBlock(
                tid, f"predicate lock on relation {relation!r}", blockers
            )
        holders = self._relations.setdefault(relation, set())
        if tid not in holders:
            holders.add(tid)
            self._predicate_gen[relation] = self._predicate_gen.get(relation, 0) + 1
        if self._metrics is not None:
            self._note_grant("predicate", "read", tid, relation)

    def release_relation(self, tid: int, relation: str) -> None:
        holders = self._relations.get(relation)
        if holders is None or tid not in holders:
            return
        if self._metrics is not None:
            self._note_release("predicate", tid, relation)
        holders.discard(tid)
        self._predicate_gen[relation] = self._predicate_gen.get(relation, 0) + 1

    # ------------------------------------------------------------------
    # bulk release and introspection
    # ------------------------------------------------------------------

    def release_all(self, tid: int) -> None:
        """Drop every lock the transaction holds (commit/abort), and its
        refusal."""
        self._refusals.pop(tid, None)
        for obj in self._held.pop(tid, ()):
            self.release_item(tid, obj)
        for relation, holders in self._relations.items():
            if tid in holders:
                self.release_relation(tid, relation)

    def holders_of(self, obj: str) -> Dict[int, LockMode]:
        return dict(self._items.get(obj, {}))

    def held_by(self, tid: int) -> Tuple[str, ...]:
        """Objects on which the transaction holds any item lock, in the
        order first granted."""
        return tuple(self._held.get(tid, ()))
