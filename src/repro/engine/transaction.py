"""Transaction handles and state.

A :class:`Transaction` is the per-transaction bookkeeping shared by every
scheduler: identity, declared isolation level, lifecycle state, private write
buffer, read/write/predicate sets, and version numbering (``x_{i:m}``).

The user-facing operations (``read``, ``write``, ``select``, …) live on
:class:`~repro.engine.database.Database`'s transaction facade; schedulers
receive this object and decide semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, NamedTuple, Optional, Set

from ..core.objects import Version
from ..core.predicates import Predicate
from ..exceptions import InvalidOperation

__all__ = ["TxnState", "BufferedWrite", "Transaction"]


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class BufferedWrite(NamedTuple):
    """One write: a transaction's private (not yet installed) one, a
    locking scheduler's in-place cell entry, and what ``install`` takes."""

    version: Version
    value: Any
    dead: bool


@dataclass
class Transaction:
    """Scheduler-independent transaction bookkeeping."""

    tid: int
    level: Optional[object] = None
    state: TxnState = TxnState.ACTIVE
    #: For multi-version schedulers: the store's commit sequence at begin.
    snapshot_seq: int = 0
    #: Latest private write per object (read-your-own-writes).
    buffer: Dict[str, BufferedWrite] = field(default_factory=dict)
    #: Objects read (item reads, including those following predicate reads).
    read_set: Set[str] = field(default_factory=set)
    #: Objects written.
    write_set: Set[str] = field(default_factory=set)
    #: Predicates read, for OCC predicate validation.
    predicates: List[Predicate] = field(default_factory=list)
    #: Number of writes per object so far, for x_{i:m} numbering.
    write_counts: Dict[str, int] = field(default_factory=dict)
    #: Event index of the final write per object (install-position hints).
    final_write_index: Dict[str, int] = field(default_factory=dict)
    #: Why the scheduler killed this transaction (e.g. "wounded by T3");
    #: ``None`` for voluntary aborts.
    abort_reason: Optional[str] = None
    #: Prepared for a two-phase commit: every operation has run and the
    #: coordinator decides its fate, so no deadlock policy may abort it.
    prepared: bool = False

    def require_active(self) -> None:
        if self.state is TxnState.ABORTED:
            # A scheduler-initiated kill (deadlock-prevention wound, ...)
            # surfaces at the victim's next operation so its program can
            # restart; voluntary aborts surface as usage errors.
            from ..exceptions import TransactionAborted

            if self.abort_reason is not None:
                raise TransactionAborted(self.tid, self.abort_reason)
            raise InvalidOperation(
                f"T{self.tid} is aborted; no further operations allowed"
            )
        if self.state is not TxnState.ACTIVE:
            raise InvalidOperation(
                f"T{self.tid} is {self.state.value}; no further operations allowed"
            )

    def next_version(self, obj: str) -> Version:
        """Allocate ``x_{i:m}`` for the transaction's next write of ``obj``."""
        count = self.write_counts.get(obj, 0) + 1
        self.write_counts[obj] = count
        return Version(obj, self.tid, count)

    def buffered(self, obj: str) -> Optional[BufferedWrite]:
        return self.buffer.get(obj)

    def finals(self) -> Dict[str, Version]:
        """Final version per written object (what a commit installs)."""
        return {obj: bw.version for obj, bw in self.buffer.items()}

    def final_values(self) -> List[BufferedWrite]:
        """The buffered ``(version, value, dead)`` triples, for the store's
        ``install``."""
        return list(self.buffer.values())
