"""Scheduler interface: the concurrency-control seam of the engine.

A scheduler decides the semantics of the five primitive operations —
``read``, ``write`` (update/insert/delete), ``predicate_read``, ``commit``
and ``abort`` — against the shared :class:`MultiVersionStore`, narrating
everything it does through the :class:`HistoryRecorder`.

Three families are provided, mirroring the implementation space the paper
insists its definitions must admit (Sections 1, 3):

* :class:`~repro.engine.locking.LockingScheduler` — single-version strict
  locking, parameterized by the Figure 1 lock profiles;
* :class:`~repro.engine.optimistic.OptimisticScheduler` — backward-validation
  OCC in the style the paper's authors built in Thor;
* :class:`~repro.engine.mvcc.SnapshotIsolationScheduler` and
  :class:`~repro.engine.mvcc.ReadCommittedMVScheduler` — multi-version
  schemes in the style of Oracle.

The families differ in two things only: which version a transaction sees,
and what its commit checks.  :class:`Scheduler` therefore reads, scans,
buffers writes and aborts for all of them over one hook,
:meth:`Scheduler._visible` (by default the latest committed version);
a family overrides ``_visible`` and ``commit``, and locking wraps the shared
read and scan in its lock acquire/release and keeps its own in-place
``write`` and ``abort``.

Operations raise :class:`~repro.exceptions.WouldBlock` when a lock must be
waited for and :class:`~repro.exceptions.TransactionAborted` (subclasses)
when the scheduler kills the transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.objects import Version
from ..core.predicates import Predicate, VersionSet
from ..exceptions import InvalidOperation, TransactionAborted
from .recorder import HistoryRecorder
from .storage import MultiVersionStore, StoredVersion
from .transaction import BufferedWrite, Transaction, TxnState

__all__ = ["PredicateResult", "Scheduler"]


@dataclass(frozen=True)
class PredicateResult:
    """Outcome of a predicate read: the matched objects and their values,
    in deterministic (sorted) object order."""

    matched: Tuple[Tuple[str, Any], ...]

    def objects(self) -> Tuple[str, ...]:
        return tuple(obj for obj, _v in self.matched)

    def values(self) -> Dict[str, Any]:
        return dict(self.matched)

    def __len__(self) -> int:
        return len(self.matched)


class Scheduler:
    """Base class wiring store and recorder, with the read, predicate scan,
    buffered write and abort every scheme shares; subclasses pick the
    visible version (:meth:`_visible`) and implement ``commit``."""

    #: Human-readable scheme name (reports, benchmarks).
    name: str = "abstract"

    def __init__(self) -> None:
        self.store = MultiVersionStore()
        self.recorder = HistoryRecorder()
        #: Observability sinks; ``None`` (the default) disables
        #: instrumentation entirely — see :meth:`instrument`.
        self.metrics = None
        self.tracer = None
        #: The :class:`~repro.engine.factory.SchedulerConfig` this scheduler
        #: was built from (``None`` when constructed directly).
        self.config = None

    # -- observability ---------------------------------------------------

    def instrument(self, *, metrics=None, tracer=None) -> "Scheduler":
        """Attach a :class:`~repro.observability.MetricsRegistry` and/or
        :class:`~repro.observability.Tracer`, threading them into the
        recorder, the lock manager (locking schedulers) and the store.
        The simulator calls this when constructed with ``metrics=`` /
        ``tracer=``; standalone scheduler users call it directly.  Every
        instrumented site is guarded by an ``is not None`` check, so an
        un-instrumented scheduler pays nothing."""
        self.metrics = metrics
        self.tracer = tracer
        self.recorder.instrument(metrics=metrics, scheduler=self.name)
        self.store.instrument(metrics=metrics, scheduler=self.name)
        locks = getattr(self, "locks", None)
        if locks is not None:
            locks.instrument(
                metrics=metrics, tracer=tracer, scheduler=self.name
            )
        return self

    def _abort_metric(self, reason: str) -> None:
        """Count one scheduler-initiated abort by machine-readable reason
        (``validation-failure``, ``first-committer-wins``, ``wounded``,
        ``deleted-object``; the simulator adds ``deadlock`` for its
        victims)."""
        if self.metrics is not None:
            self.metrics.counter(
                "txn_aborts_total", "transaction aborts by reason"
            ).inc(scheduler=self.name, reason=reason)

    # -- lifecycle -----------------------------------------------------

    def on_begin(self, txn: Transaction) -> None:
        """Hook: called by the database right after a transaction starts."""

    def _visible(self, txn: Transaction, obj: str) -> Optional[StoredVersion]:
        """The version of ``obj`` that ``txn``'s view holds when it has not
        written ``obj`` itself: the latest committed one unless a scheme
        says otherwise; ``None`` if the object is unborn there."""
        return self.store.latest(obj)

    def read(
        self,
        txn: Transaction,
        obj: str,
        *,
        cursor: bool = False,
        for_update: bool = False,
    ) -> Any:
        """Read ``obj``; returns the value and records the read event.

        The transaction's own latest write comes first (model constraint
        E4); after its own delete it reads nothing (E7).  ``for_update`` is
        the SQL ``SELECT ... FOR UPDATE`` hint: locking schedulers take the
        write lock immediately (avoiding upgrade deadlocks on
        read-modify-write); other schedulers ignore it."""
        txn.require_active()
        seen = txn.buffer.get(obj) or self._visible(txn, obj)
        if seen is None or seen.dead:
            return None
        self.recorder.read(txn.tid, seen.version, seen.value, cursor=cursor)
        txn.read_set.add(obj)
        return seen.value

    def write(
        self, txn: Transaction, obj: str, value: Any, *, dead: bool = False
    ) -> None:
        """Write (or, with ``dead=True``, delete) ``obj``.

        A deleted object is never written again (Section 4.1: the dead
        version is the last of the object's version order; re-insertion
        creates a new object).  Every scheme refuses a write or delete that
        would follow a dead version: after the transaction's own delete it
        raises :class:`~repro.exceptions.InvalidOperation`; after another
        transaction's delete it aborts the writer
        (:class:`~repro.exceptions.TransactionAborted`, reason
        ``deleted-object``) — at the write when the delete is in its view,
        at commit when the deleter committed in between.

        Writes are buffered in the transaction until ``commit`` installs
        them."""
        txn.require_active()
        self._refuse_deleted(
            txn, obj, txn.buffer.get(obj) or self._visible(txn, obj)
        )
        self.store.register(obj)
        version = txn.next_version(obj)
        if dead:
            value = None
        self.recorder.write(txn.tid, version, value, dead=dead)
        txn.buffer[obj] = BufferedWrite(version, value, dead)
        txn.write_set.add(obj)

    def _refuse_deleted(self, txn: Transaction, obj: str, latest: Any) -> None:
        """``latest`` is the version a write of ``obj`` by ``txn`` would
        follow: its own last write, else what its view holds."""
        if latest is None or not latest.dead:
            return
        if latest.version.tid == txn.tid:
            raise InvalidOperation(
                f"T{txn.tid} cannot write {obj!r} after deleting it"
            )
        self._abort_deleted(txn, obj, latest.version.tid)

    def _refuse_install_after_delete(self, txn: Transaction) -> None:
        """Commit-time half, for schemes that buffer writes and would
        install them unvalidated: the deleter committed after ``txn`` wrote
        (:meth:`_refuse_deleted` saw a live object)."""
        for obj in sorted(txn.write_set):
            latest = self.store.latest(obj)
            if latest is not None and latest.dead:
                self._abort_deleted(txn, obj, latest.version.tid)

    def _abort_deleted(self, txn: Transaction, obj: str, deleter: int) -> None:
        self._abort_metric("deleted-object")
        self.abort(txn)
        raise TransactionAborted(
            txn.tid, f"deleted-object {obj} (deleted by T{deleter})"
        )

    def predicate_read(
        self, txn: Transaction, predicate: Predicate
    ) -> PredicateResult:
        """Evaluate ``predicate`` over the transaction's view, recording the
        version set; item reads of matched tuples are the caller's choice
        (``select`` issues them, ``count``/``update_where`` do not).  Like
        :meth:`read`, the transaction's own writes come first."""
        txn.require_active()
        selected: Dict[str, Version] = {}
        matched: List[Tuple[str, Any]] = []
        for relation in sorted(predicate.relations):
            for obj in self.store.objects_in(relation):
                seen = txn.buffer.get(obj) or self._visible(txn, obj)
                if seen is None:
                    continue  # implicitly the unborn version
                selected[obj] = seen.version
                if not seen.dead and predicate.matches(seen.version, seen.value):
                    matched.append((obj, seen.value))
        self.recorder.predicate_read(txn.tid, predicate, VersionSet(selected))
        txn.predicates.append(predicate)
        return PredicateResult(tuple(sorted(matched)))

    def commit(self, txn: Transaction) -> None:
        """Validate (scheme-specific) and install; may raise
        :class:`~repro.exceptions.TransactionAborted`."""
        raise NotImplementedError

    def abort(self, txn: Transaction) -> None:
        """Undo and release; always succeeds.  Buffered writes were never
        installed, so this only records the abort."""
        if txn.state is not TxnState.ACTIVE:
            return
        self.recorder.abort(txn.tid)
        txn.state = TxnState.ABORTED

    # -- recovery --------------------------------------------------------

    def restore(self, state: Dict[str, Tuple[Any, Any, bool]]) -> None:
        """Crash-recovery redo: seed a *fresh* scheduler's volatile store
        with the committed state replayed from a durable recorder log.

        ``state`` maps each object to its latest committed
        ``(version, value, dead)``.  The versions already exist in the log,
        so nothing is re-recorded — this rebuilds the store the way a real
        system rebuilds its caches from the WAL.  Must be called before any
        transaction begins on the restarted scheduler.
        """
        self.store.install(
            (version, value, dead)
            for _obj, (version, value, dead) in sorted(state.items())
        )

    def redo(self, writes: Iterable[Tuple[Any, Any, bool]]) -> None:
        """Crash-recovery redo of one *prepared* transaction's writes.

        The two-phase-commit service layer snapshots a participant's write
        set at prepare time; when the commit decision arrives after a crash
        has destroyed the live transaction, the saved ``(version, value,
        dead)`` triples are re-installed here (the events are already in the
        recorder log — the caller records the Commit itself)."""
        self.store.install(writes)
