"""The user-facing database: transactions over a pluggable scheduler.

::

    from repro.engine import Database, SnapshotIsolationScheduler

    db = Database(SnapshotIsolationScheduler())
    db.load({"x": 5, "y": 5})

    t1 = db.begin()
    t1.write("x", t1.read("x") - 1)
    t1.commit()

    history = db.history()          # an Adya history, ready for the checker

Initial data is loaded by a real loader transaction (tid 0) so histories are
self-contained: the loader's writes are ordinary events, exactly like the
paper's ``T_init``-then-load story in Section 4.1.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from ..core.interning import K_BEGIN
from ..core.history import History
from ..core.levels import IsolationLevel
from ..core.objects import Version
from ..core.predicates import Predicate
from ..exceptions import InvalidOperation, TransactionAborted
from .scheduler import PredicateResult, Scheduler
from .transaction import BufferedWrite, Transaction, TxnState

__all__ = ["Database", "TransactionHandle"]


class TransactionHandle:
    """One running transaction.  All operations delegate to the database's
    scheduler, which decides blocking/aborting semantics."""

    def __init__(self, db: "Database", txn: Transaction):
        self._db = db
        self._txn = txn

    # -- identity ------------------------------------------------------

    @property
    def tid(self) -> int:
        return self._txn.tid

    @property
    def state(self) -> TxnState:
        return self._txn.state

    @property
    def level(self) -> Optional[IsolationLevel]:
        return self._txn.level

    # -- primitive operations -------------------------------------------

    def read(
        self, obj: str, *, cursor: bool = False, for_update: bool = False
    ) -> Any:
        """The object's value in this transaction's view (``None`` if the
        object does not exist in that view).  ``for_update`` is the SQL
        ``SELECT ... FOR UPDATE`` hint (locking schedulers take the write
        lock immediately; others ignore it)."""
        return self._db.scheduler.read(
            self._txn, obj, cursor=cursor, for_update=for_update
        )

    def write(self, obj: str, value: Any) -> None:
        self._db.scheduler.write(self._txn, obj, value)

    def delete(self, obj: str) -> None:
        """Install a dead version (Section 4.1's model of deletion)."""
        self._db.scheduler.write(self._txn, obj, None, dead=True)

    def insert(self, relation: str, value: Any) -> str:
        """Create a fresh object in ``relation`` and write its first visible
        version; returns the new object id."""
        obj = self._db.new_object(relation)
        self._db.scheduler.write(self._txn, obj, value)
        return obj

    def predicate_read(self, predicate: Predicate) -> PredicateResult:
        """The raw predicate read (no item reads) — what ``SELECT COUNT``
        does."""
        return self._db.scheduler.predicate_read(self._txn, predicate)

    # -- composite SQL-ish operations -------------------------------------

    def select(self, predicate: Predicate) -> Dict[str, Any]:
        """Predicate read followed by item reads of every matched tuple
        (Section 4.3.1): the matched reads appear as separate events."""
        result = self.predicate_read(predicate)
        return {obj: self.read(obj) for obj, _v in result.matched}

    def count(self, predicate: Predicate) -> int:
        """Matched-tuple count; no item read events (the paper's
        SELECT COUNT example)."""
        return len(self.predicate_read(predicate))

    def update_where(
        self, predicate: Predicate, fn: Callable[[Any], Any]
    ) -> int:
        """Predicate-based modification (Section 4.3.2): a predicate read
        followed by writes on the matched tuples.  Returns the number of
        tuples updated."""
        result = self.predicate_read(predicate)
        for obj, value in result.matched:
            self.write(obj, fn(value))
        return len(result)

    def delete_where(self, predicate: Predicate) -> int:
        """Predicate-based deletion: dead versions for every match."""
        result = self.predicate_read(predicate)
        for obj, _value in result.matched:
            self.delete(obj)
        return len(result)

    # -- lifecycle -------------------------------------------------------

    def commit(self) -> None:
        self._db.scheduler.commit(self._txn)

    def abort(self) -> None:
        self._db.scheduler.abort(self._txn)


class Database:
    """A database instance bound to one scheduler.

    Pass a :class:`Scheduler` instance, or a scheduler family name, which
    :func:`~repro.engine.factory.create_scheduler` builds — the same
    factory :func:`repro.connect` routes through::

        db = Database(SnapshotIsolationScheduler())
        db = repro.connect("snapshot-isolation", seed=7)
    """

    def __init__(
        self,
        scheduler: Scheduler | str,
        *,
        tid_allocator: Optional[Callable[[], int]] = None,
    ):
        if isinstance(scheduler, str):
            from .factory import create_scheduler

            scheduler = create_scheduler(scheduler)
        self.scheduler = scheduler
        self._next_tid = 1
        #: Optional shared tid source (a sharded cluster hands every member
        #: database the same allocator so tids are globally unique and
        #: globally ordered; ``None`` keeps the private counter).
        self._tid_allocator = tid_allocator
        self._obj_counters: Dict[str, int] = {}
        self._loaded = False

    @property
    def config(self):
        """The :class:`~repro.engine.factory.SchedulerConfig` this database
        was opened with (``None`` for hand-built schedulers)."""
        return self.scheduler.config

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        scheduler: Scheduler | str,
        recorder,
        *,
        tid_allocator: Optional[Callable[[], int]] = None,
    ) -> "Database":
        """Rebuild a database from a durable :class:`HistoryRecorder` log.

        Models a crash/restart: the store, lock tables and sessions are
        volatile and gone; the recorder log is the WAL.  A fresh scheduler
        is attached to the *same* recorder (the history keeps growing in
        place, so online monitors stay attached across the restart) and its
        store is seeded with the latest committed version of every object
        replayed from the log (:meth:`Scheduler.restore`).  Transactions
        that were active at the crash must already have abort events in the
        log (the service layer records them at crash time — recovery undo).
        """
        if isinstance(scheduler, str):
            from .factory import create_scheduler

            scheduler = create_scheduler(scheduler)
        # Latest committed (version, value, dead) per object, from the log.
        log = recorder._log
        state: Dict[str, tuple] = {}
        for obj, (*_, vid) in recorder._chains().items():
            version = log.interner.versions[vid]
            row = log.last_write.get(vid)
            if row is None:
                state[obj] = (version, None, True)
            else:
                state[obj] = (version, log.extra[row], log.flag[row])
        scheduler.recorder = recorder
        scheduler.restore(dict(sorted(state.items())))
        db = cls(scheduler, tid_allocator=tid_allocator)
        db._loaded = len(recorder) > 0
        for k, tid in zip(log.kind, log.tid):
            if k == K_BEGIN:
                db._next_tid = max(db._next_tid, tid + 1)
        for obj in state:
            db._note_existing(obj)
        return db

    # ------------------------------------------------------------------

    def begin(
        self,
        level: Optional[IsolationLevel | str] = None,
        *,
        tid: Optional[int] = None,
    ) -> TransactionHandle:
        """Start a transaction, optionally declaring its isolation level
        (recorded as a ``Begin`` event for mixed-system checking).

        ``tid`` joins an already-allocated global transaction id instead of
        allocating a fresh one — the sharded service layer uses this when a
        cross-shard transaction lazily begins on a secondary shard."""
        if isinstance(level, str):
            level = IsolationLevel.from_string(level)
        if tid is None:
            if self._tid_allocator is not None:
                tid = self._tid_allocator()
            else:
                tid = self._next_tid
                self._next_tid += 1
        txn = Transaction(tid, level=level)
        self.scheduler.recorder.begin(txn.tid, level)
        self.scheduler.on_begin(txn)
        return TransactionHandle(self, txn)

    def load(self, initial: Mapping[str, Any]) -> None:
        """Install the initial database state with loader transaction T0
        ("a transaction that loads the database creates the initial visible
        versions", Section 4.1).  Must run before any application
        transaction."""
        if self._loaded:
            raise InvalidOperation("initial data already loaded")
        if self._next_tid != 1:
            raise InvalidOperation("load() must precede the first begin()")
        self._loaded = True
        # One pass: record each write's row, then install them all at once
        # (``Scheduler._install_loader``).
        scheduler = self.scheduler
        recorder = scheduler.recorder
        loader = Transaction(0)
        scheduler.on_begin(loader)
        rows, buffer = loader.final_write_index, loader.buffer
        for obj, value in initial.items():
            self._note_existing(obj)
            version = Version(obj, 0)
            rows[obj] = len(recorder)
            recorder.write(0, version, value)
            buffer[obj] = BufferedWrite(version, value, False)
        scheduler._install_loader(loader)

    def new_object(self, relation: str) -> str:
        """A fresh, never-used object id in ``relation`` (the system's
        unique-object selection for inserts, Section 4.1)."""
        count = self._obj_counters.get(relation, 0) + 1
        self._obj_counters[relation] = count
        return f"{relation}:{count}"

    def _note_existing(self, obj: str) -> None:
        """Keep the insert counter ahead of preloaded ``rel:n`` names."""
        rel, sep, tail = obj.partition(":")
        if sep and tail.isdigit():
            self._obj_counters[rel] = max(self._obj_counters.get(rel, 0), int(tail))

    # ------------------------------------------------------------------

    def run(
        self,
        fn: Callable[[TransactionHandle], Any],
        *,
        level: Optional[IsolationLevel | str] = None,
        retries: int = 0,
    ) -> Any:
        """Execute ``fn(txn)`` inside a transaction; commits on return,
        aborts on exception.  ``retries`` re-runs the function with a fresh
        transaction when the scheduler aborts it (OCC/SI losers)."""
        attempts = retries + 1
        for attempt in range(attempts):
            txn = self.begin(level)
            try:
                result = fn(txn)
                txn.commit()
                return result
            except TransactionAborted:
                if attempt == attempts - 1:
                    raise
            except BaseException:
                txn.abort()
                raise
        raise AssertionError("unreachable")

    def history(self, *, validate: bool = True) -> History:
        """The execution so far as a validated Adya history."""
        return self.scheduler.recorder.history(validate=validate)

    def could_commit(
        self,
        txn: TransactionHandle,
        level: Optional[IsolationLevel | str] = None,
    ):
        """The Section 5.6 running-transaction test against the live engine:
        could ``txn`` commit *right now* at ``level``?

        With ``level`` given, returns a
        :class:`~repro.core.levels.LevelVerdict`; without, the strongest
        ANSI level at which the commit would be legal (or ``None``).
        The real version order recorded so far is used, so multi-version
        install orders are respected.
        """
        from ..core.runtime import could_commit_at, running_satisfies

        snapshot = self.history(validate=False)
        if level is None:
            return could_commit_at(snapshot, txn.tid)
        if isinstance(level, str):
            level = IsolationLevel.from_string(level)
        return running_satisfies(snapshot, txn.tid, level)
