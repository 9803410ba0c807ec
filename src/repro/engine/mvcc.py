"""Multi-version schedulers: Snapshot Isolation and multi-version
read-committed.

These are the Oracle-style implementations the paper's introduction names as
the reason the preventative definitions are too strong (Oracle "provides ...
Snapshot Isolation ... using multi-version optimistic implementations").

* :class:`SnapshotIsolationScheduler` — every transaction reads from the
  committed snapshot taken at its begin; writes are buffered and installed
  at commit under the *first-committer-wins* rule: if any object in the
  write set was installed by a transaction that committed after this
  transaction's snapshot, the committer aborts with
  :class:`~repro.exceptions.WriteConflict`.  Emitted committed histories
  provide PL-SI (no G1, no G-SI) — and genuinely exhibit write skew, which
  PL-3 rejects, demonstrating the SI ≠ serializability gap.

* :class:`ReadCommittedMVScheduler` — statement-level snapshots: each read
  observes the latest committed version at that moment; writes are buffered
  and installed at commit with no validation (last-committer-wins).  Emitted
  histories provide PL-2 and exhibit lost updates and fuzzy reads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.objects import Version
from ..core.predicates import Predicate, VersionSet
from ..exceptions import WriteConflict
from .scheduler import PredicateResult, Scheduler
from .storage import StoredVersion
from .transaction import BufferedWrite, Transaction, TxnState

__all__ = ["SnapshotIsolationScheduler", "ReadCommittedMVScheduler"]


class _MultiVersionBase(Scheduler):
    """Shared read/write/predicate machinery; subclasses pick the visible
    version and the commit-time validation."""

    def _visible(self, txn: Transaction, obj: str) -> Optional[StoredVersion]:
        raise NotImplementedError

    def read(
        self,
        txn: Transaction,
        obj: str,
        *,
        cursor: bool = False,
        for_update: bool = False,
    ) -> Any:
        txn.require_active()
        own = txn.buffer.get(obj)
        if own is not None:
            if own.dead:
                return None
            self.recorder.read(txn.tid, own.version, own.value, cursor=cursor)
            txn.read_set.add(obj)
            return own.value
        stored = self._visible(txn, obj)
        if stored is None or stored.dead:
            return None
        self.recorder.read(txn.tid, stored.version, stored.value, cursor=cursor)
        txn.read_set.add(obj)
        return stored.value

    def write(
        self, txn: Transaction, obj: str, value: Any, *, dead: bool = False
    ) -> None:
        txn.require_active()
        self._refuse_deleted(
            txn, obj, txn.buffer.get(obj) or self._visible(txn, obj)
        )
        self.store.register(obj)
        version = txn.next_version(obj)
        self.recorder.write(txn.tid, version, None if dead else value, dead=dead)
        txn.buffer[obj] = BufferedWrite(
            version, None if dead else value, dead, len(self.recorder.events) - 1
        )
        txn.write_set.add(obj)

    def predicate_read(
        self, txn: Transaction, predicate: Predicate
    ) -> PredicateResult:
        txn.require_active()
        selected: Dict[str, Version] = {}
        matched: List[Tuple[str, Any]] = []
        for relation in sorted(predicate.relations):
            for obj in self.store.objects_in(relation):
                own = txn.buffer.get(obj)
                if own is not None:
                    selected[obj] = own.version
                    if not own.dead and predicate.matches(own.version, own.value):
                        matched.append((obj, own.value))
                    continue
                stored = self._visible(txn, obj)
                if stored is None:
                    continue  # implicitly unborn in this view
                selected[obj] = stored.version
                if not stored.dead and predicate.matches(
                    stored.version, stored.value
                ):
                    matched.append((obj, stored.value))
        self.recorder.predicate_read(txn.tid, predicate, VersionSet(selected))
        txn.predicates.append(predicate)
        return PredicateResult(tuple(sorted(matched)))

    def abort(self, txn: Transaction) -> None:
        if txn.state is not TxnState.ACTIVE:
            return
        self.recorder.abort(txn.tid)
        txn.state = TxnState.ABORTED


class SnapshotIsolationScheduler(_MultiVersionBase):
    """Begin-time snapshots with first-committer-wins writes (PL-SI)."""

    name = "snapshot-isolation"

    def on_begin(self, txn: Transaction) -> None:
        txn.snapshot_seq = self.store.commit_seq

    def _visible(self, txn: Transaction, obj: str) -> Optional[StoredVersion]:
        return self.store.at_snapshot(obj, txn.snapshot_seq)

    def commit(self, txn: Transaction) -> None:
        txn.require_active()
        for obj in sorted(txn.write_set):
            if self.store.changed_since(obj, txn.snapshot_seq):
                winner = self.store.latest(obj)
                assert winner is not None
                self._abort_metric("first-committer-wins")
                if self.tracer is not None:
                    self.tracer.event(
                        "first-committer-wins",
                        tid=txn.tid,
                        obj=obj,
                        winner=winner.version.tid,
                        scheduler=self.name,
                    )
                self.abort(txn)
                raise WriteConflict(txn.tid, obj, winner.version.tid)
        self.store.install(txn.final_values())
        self.recorder.commit(txn.tid, txn.finals())
        txn.state = TxnState.COMMITTED


class ReadCommittedMVScheduler(_MultiVersionBase):
    """Statement-level committed reads, unvalidated commits (PL-2)."""

    name = "mv-read-committed"

    def _visible(self, txn: Transaction, obj: str) -> Optional[StoredVersion]:
        return self.store.latest(obj)

    def commit(self, txn: Transaction) -> None:
        txn.require_active()
        # Commits are unvalidated here, bar the one install the model
        # itself rules out: a version after a committed delete.
        self._refuse_install_after_delete(txn)
        self.store.install(txn.final_values())
        self.recorder.commit(txn.tid, txn.finals())
        txn.state = TxnState.COMMITTED
