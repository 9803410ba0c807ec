"""Single-version strict locking scheduler, parameterized by Figure 1.

Each transaction runs under a :class:`LockProfile` naming the duration of its
item write locks, item read locks, and predicate (phantom) read locks.  The
five rows of Figure 1 are provided as the :data:`PROFILES` table:

=====================  ===========  ==========  ===========
profile                item write   item read   predicate
=====================  ===========  ==========  ===========
degree-0               short        none        none
read-uncommitted       long         none        none
read-committed         long         short       short
repeatable-read        long         long        short
serializable           long         long        long
=====================  ===========  ==========  ===========

The scheduler is *single-version in place*: each object holds a stack of
entries; writes push, aborts pop the aborting transaction's entries, reads
observe the top, and a commit drops the entries below its own newest one
(committed entries are never popped, so nothing below one is read again).
Dirty reads/writes therefore genuinely happen at the weak profiles, and the
emitted Adya histories show them.  Mixed-level executions
simply give different transactions different profiles (Section 5.5's
"standard combination of short and long read/write locks").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.levels import IsolationLevel
from ..core.predicates import Predicate
from ..exceptions import WouldBlock
from .locks import LockDuration, LockManager, LockMode
from .scheduler import PredicateResult, Scheduler
from .transaction import BufferedWrite, Transaction, TxnState

__all__ = ["LockProfile", "PROFILES", "profile_for_level", "LockingScheduler"]


@dataclass(frozen=True)
class LockProfile:
    """Lock durations for one transaction (one row of Figure 1)."""

    name: str
    item_write: LockDuration
    item_read: LockDuration
    predicate_read: LockDuration

    def __str__(self) -> str:
        return self.name


PROFILES: Dict[str, LockProfile] = {
    "degree-0": LockProfile(
        "degree-0", LockDuration.SHORT, LockDuration.NONE, LockDuration.NONE
    ),
    "read-uncommitted": LockProfile(
        "read-uncommitted", LockDuration.LONG, LockDuration.NONE, LockDuration.NONE
    ),
    "read-committed": LockProfile(
        "read-committed", LockDuration.LONG, LockDuration.SHORT, LockDuration.SHORT
    ),
    "repeatable-read": LockProfile(
        "repeatable-read", LockDuration.LONG, LockDuration.LONG, LockDuration.SHORT
    ),
    "serializable": LockProfile(
        "serializable", LockDuration.LONG, LockDuration.LONG, LockDuration.LONG
    ),
}

_LEVEL_PROFILES: Dict[IsolationLevel, str] = {
    IsolationLevel.PL_1: "read-uncommitted",
    IsolationLevel.PL_2: "read-committed",
    IsolationLevel.PL_2_99: "repeatable-read",
    IsolationLevel.PL_3: "serializable",
}


def profile_for_level(level: IsolationLevel) -> LockProfile:
    """Figure 1's locking implementation of an ANSI-chain level."""
    try:
        return PROFILES[_LEVEL_PROFILES[level]]
    except KeyError:
        raise KeyError(f"no Figure 1 lock profile for {level}") from None


class LockingScheduler(Scheduler):
    """Strict locking over an in-place single-version store."""

    def __init__(
        self,
        profile: LockProfile | str = "serializable",
        *,
        deadlock: str = "detect",
    ):
        super().__init__()
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if deadlock not in ("detect", "wound-wait"):
            raise ValueError("deadlock policy must be 'detect' or 'wound-wait'")
        self.default_profile = profile
        self.deadlock_policy = deadlock
        self.locks = LockManager()
        #: obj -> its in-place stack of writes, committed or not.
        self._cells: Dict[str, List[BufferedWrite]] = {}
        self._txns: Dict[int, Transaction] = {}
        self.name = f"locking/{profile.name}"

    def on_begin(self, txn: Transaction) -> None:
        self._txns[txn.tid] = txn

    # -- deadlock prevention (wound-wait) --------------------------------

    def _wound(self, holder_tid: int, requester_tid: int) -> None:
        holder = self._txns.get(holder_tid)
        if holder is not None and holder.state is TxnState.ACTIVE:
            holder.abort_reason = f"wounded by older T{requester_tid}"
            self._abort_metric("wounded")
            if self.tracer is not None:
                self.tracer.event(
                    "wound",
                    victim=holder_tid,
                    requester=requester_tid,
                    scheduler=self.name,
                )
            self.abort(holder)

    def _prepared(self, tid: int) -> bool:
        holder = self._txns.get(tid)
        return holder is not None and holder.prepared

    def _acquire(self, txn: Transaction, attempt) -> None:
        """Run a lock acquisition under the configured deadlock policy.

        ``detect`` re-raises blocks (the simulator finds waits-for cycles);
        ``wound-wait`` aborts younger holders on the spot — the requester
        only ever waits for *older* transactions, or for prepared ones, so
        waits-for edges all point at smaller tids or at a transaction that
        waits for nothing, and no cycle can form.
        """
        while True:
            try:
                attempt()
                return
            except WouldBlock as block:
                if self.deadlock_policy != "wound-wait":
                    raise
                # A prepared holder is waited on as an older one: it has
                # run every operation, so the wait cannot close a cycle.
                younger = {
                    t for t in block.holders
                    if t > txn.tid and not self._prepared(t)
                }
                for tid in younger:
                    self._wound(tid, txn.tid)
                older = block.holders - younger
                if older:
                    raise WouldBlock(txn.tid, block.resource, older) from None
                # every blocker was wounded; retry the acquisition

    # ------------------------------------------------------------------

    def profile_of(self, txn: Transaction) -> LockProfile:
        """Mixed systems: a transaction's declared level selects its row of
        Figure 1; undeclared transactions use the scheduler default."""
        if txn.level is None:
            return self.default_profile
        return profile_for_level(
            txn.level if isinstance(txn.level, IsolationLevel)
            else IsolationLevel.from_string(str(txn.level))
        )

    def _visible(self, txn: Transaction, obj: str) -> Optional[BufferedWrite]:
        """The top of ``obj``'s in-place stack, committed or not."""
        stack = self._cells.get(obj)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def read(
        self,
        txn: Transaction,
        obj: str,
        *,
        cursor: bool = False,
        for_update: bool = False,
    ) -> Any:
        txn.require_active()
        if obj in txn.buffer:
            # Its own write: the shared read returns it, no lock needed.
            return super().read(txn, obj, cursor=cursor)
        profile = self.profile_of(txn)
        if for_update:
            # SELECT ... FOR UPDATE: take the write lock up front so the
            # following write needs no upgrade (the classic upgrade-deadlock
            # avoidance).  Held long, like any write lock.
            self._acquire(
                txn, lambda: self.locks.acquire_item(txn.tid, obj, LockMode.WRITE)
            )
        elif profile.item_read is not LockDuration.NONE:
            self._acquire(
                txn, lambda: self.locks.acquire_item(txn.tid, obj, LockMode.READ)
            )
        value = super().read(txn, obj, cursor=cursor)
        if not for_update and profile.item_read is LockDuration.SHORT:
            self.locks.downgrade_or_release_read(txn.tid, obj)
        return value

    def write(
        self, txn: Transaction, obj: str, value: Any, *, dead: bool = False
    ) -> None:
        txn.require_active()
        profile = self.profile_of(txn)
        self._acquire(
            txn, lambda: self.locks.acquire_item(txn.tid, obj, LockMode.WRITE)
        )
        self._refuse_deleted(txn, obj, self._visible(txn, obj))
        self.store.register(obj)
        version = txn.next_version(obj)
        if dead:
            value = None
        entry = BufferedWrite(version, value, dead)
        self._cells.setdefault(obj, []).append(entry)
        txn.write_set.add(obj)
        txn.final_write_index[obj] = len(self.recorder)
        self.recorder.write(txn.tid, version, value, dead=dead)
        txn.buffer[obj] = entry
        if profile.item_write is LockDuration.SHORT:
            self.locks.release_item(txn.tid, obj)

    def predicate_read(
        self, txn: Transaction, predicate: Predicate
    ) -> PredicateResult:
        txn.require_active()
        profile = self.profile_of(txn)
        relations = sorted(predicate.relations)
        if profile.predicate_read is not LockDuration.NONE:
            for relation in relations:
                self._acquire(
                    txn,
                    lambda rel=relation: self.locks.acquire_relation(txn.tid, rel),
                )
        result = super().predicate_read(txn, predicate)
        if profile.predicate_read is LockDuration.SHORT:
            for relation in relations:
                self.locks.release_relation(txn.tid, relation)
        return result

    def commit(self, txn: Transaction) -> None:
        txn.require_active()
        finals = txn.finals()
        self.store.install(txn.final_values())
        self.recorder.commit(txn.tid, finals, positions=dict(txn.final_write_index))
        self.locks.release_all(txn.tid)
        txn.state = TxnState.COMMITTED
        # A stack holds one committed entry, at its bottom, and the entries
        # of uncommitted writers above it.
        tid = txn.tid
        for obj in txn.write_set:
            stack = self._cells.get(obj, ())
            for at in range(len(stack) - 1, 0, -1):
                if stack[at].version.tid == tid:
                    del stack[:at]
                    break

    def _install_loader(self, loader: Transaction) -> None:
        """Seed the store and the cells as recovery does (:meth:`restore`)
        and record T0's commit with its installs keyed by write row.  Its
        item write locks are granted and released, as its writes and
        commit would (the lock metrics count them)."""
        tid = loader.tid
        for obj in loader.buffer:
            self.locks.acquire_item(tid, obj, LockMode.WRITE)
        self.restore(loader.buffer)
        self.recorder.commit(tid, loader.finals(), positions=loader.final_write_index)
        self.locks.release_all(tid)
        loader.state = TxnState.COMMITTED

    def restore(self, state) -> None:
        """Rebuild both the predicate-universe store and the in-place cells
        (reads observe cell tops, so the committed values must live
        there)."""
        super().restore(state)
        for obj, write in state.items():
            self._cells[obj] = [BufferedWrite(*write)]

    def redo(self, writes) -> None:
        """Prepared-transaction redo: the recovered committed values must
        also become the in-place cell tops, as :meth:`restore` does."""
        writes = list(writes)
        super().redo(writes)
        for version, value, dead in writes:
            self._cells[version.obj] = [BufferedWrite(version, value, dead)]

    def abort(self, txn: Transaction) -> None:
        if txn.state is not TxnState.ACTIVE:
            return
        # Undo: remove this transaction's in-place entries wherever they are.
        for obj in txn.write_set:
            stack = self._cells.get(obj, [])
            stack[:] = [e for e in stack if e.version.tid != txn.tid]
        self.recorder.abort(txn.tid)
        self.locks.release_all(txn.tid)
        txn.state = TxnState.ABORTED

