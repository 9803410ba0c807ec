"""Backward-validation optimistic concurrency control.

This is the scheme family the paper motivates in Section 3 — transactions
read the committed state, buffer writes privately, and validate at commit:
if any concurrently committed transaction wrote something this transaction
read (an item or a predicate's matched set), the committing transaction
aborts (:class:`~repro.exceptions.ValidationFailure`).  Successful commits
install versions in commit order, so committed histories are serializable in
commit order — the emitted histories provide PL-3 while freely violating the
preventative P1/P2 (e.g. they realize the paper's ``H2'`` shape, where a
transaction's read is later overwritten by an uncommitted peer yet commit
order repairs the conflict).

Reads observe the *latest committed* version at read time.  This is the
loosely-synchronized-clocks style of validation [2] simplified to a single
site: start/commit timestamps come from the store's commit sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from ..core.objects import Version
from ..core.predicates import Predicate
from ..exceptions import ValidationFailure
from .scheduler import Scheduler
from .transaction import Transaction, TxnState

__all__ = ["OptimisticScheduler"]


@dataclass(frozen=True)
class _CommittedRecord:
    """What the validator needs to know about a committed transaction."""

    tid: int
    commit_seq: int
    write_set: frozenset[str]
    #: (version, value, dead) of every installed write, for predicate
    #: validation ("did this commit change the matches of P?").
    writes: Tuple[Tuple[Version, Any, bool], ...]


class OptimisticScheduler(Scheduler):
    """Kung–Robinson-style backward validation against committed peers."""

    name = "optimistic"

    def __init__(self) -> None:
        super().__init__()
        self._log: List[_CommittedRecord] = []

    # ------------------------------------------------------------------

    def on_begin(self, txn: Transaction) -> None:
        txn.snapshot_seq = self.store.commit_seq

    # ------------------------------------------------------------------

    def commit(self, txn: Transaction) -> None:
        txn.require_active()
        self._refuse_install_after_delete(txn)
        self._validate(txn)
        self.store.install(txn.final_values())
        self._log.append(
            _CommittedRecord(
                txn.tid,
                self.store.commit_seq,
                frozenset(txn.buffer),
                tuple(txn.buffer.values()),
            )
        )
        self.recorder.commit(txn.tid, txn.finals())
        txn.state = TxnState.COMMITTED

    # ------------------------------------------------------------------

    def _validate(self, txn: Transaction, *, predicates: bool = True) -> None:
        """Backward validation: conflicts with transactions that committed
        after this transaction began — over its item reads, and with
        ``predicates`` over its predicate reads too."""
        for record in reversed(self._log):
            if record.commit_seq <= txn.snapshot_seq:
                break
            if record.write_set & txn.read_set:
                self._validation_failed(txn, record.tid)
            if predicates:
                for predicate in txn.predicates:
                    if self._changes_predicate(record, predicate):
                        self._validation_failed(txn, record.tid)
        if self.metrics is not None:
            self.metrics.counter(
                "occ_validations_total", "OCC commit validations by outcome"
            ).inc(scheduler=self.name, outcome="ok")

    def _validation_failed(self, txn: Transaction, against: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "occ_validations_total", "OCC commit validations by outcome"
            ).inc(scheduler=self.name, outcome="failed")
            self._abort_metric("validation-failure")
        if self.tracer is not None:
            self.tracer.event(
                "validation-failure",
                tid=txn.tid,
                against=against,
                scheduler=self.name,
            )
        self.abort(txn)
        raise ValidationFailure(txn.tid, against)

    @staticmethod
    def _changes_predicate(record: _CommittedRecord, predicate: Predicate) -> bool:
        """Whether a committed peer's writes could have changed the matches
        of a predicate this transaction read.  Conservative — any write into
        the predicate's relations counts (an insert/matching update adds a
        match; a delete or update away removes one, and the overwritten
        value is not at hand) — like a granular predicate lock.  Soundness
        is what matters for PL-3; the checker measures the histories, not
        the abort rate."""
        return any(
            predicate.covers(version.obj) for version, _value, _dead in record.writes
        )
