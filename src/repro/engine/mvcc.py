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

from typing import Optional

from ..exceptions import WriteConflict
from .scheduler import Scheduler
from .storage import StoredVersion
from .transaction import Transaction, TxnState

__all__ = ["SnapshotIsolationScheduler", "ReadCommittedMVScheduler"]


class SnapshotIsolationScheduler(Scheduler):
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


class ReadCommittedMVScheduler(Scheduler):
    """Statement-level committed reads, unvalidated commits (PL-2)."""

    name = "mv-read-committed"

    def commit(self, txn: Transaction) -> None:
        txn.require_active()
        # Commits are unvalidated here, bar the one install the model
        # itself rules out: a version after a committed delete.
        self._refuse_install_after_delete(txn)
        self.store.install(txn.final_values())
        self.recorder.commit(txn.tid, txn.finals())
        txn.state = TxnState.COMMITTED
