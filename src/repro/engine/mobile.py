"""Disconnected operation with tentative commits (paper Section 3).

The paper's central example of why P1 is too strong is the mobile history
H1': "commits can be assumed to have happened 'tentatively' at client
machines; later transactions may observe modifications of those tentative
transactions.  When the client reconnects with the servers, its work is
checked to determine if consistency has been violated and the relevant
transactions are aborted.  Of course, if dirty reads are allowed, cascading
aborts can occur."  (Coda/Bayou-style operation, the paper's [12, 16, 18,
26].)

:class:`MobileCluster` implements exactly that:

* each :class:`MobileClient` runs transactions against its local view —
  the server state as of its last contact, plus the client's own
  *tentatively committed* transactions, whose uncommitted writes later
  local transactions freely read (the H1' pattern that P1 forbids);
* ``client.sync()`` reconnects: the server certifies the client's tentative
  transactions in order with backward validation (reads of server data must
  not have been overwritten by commits since the transaction's base), and
  a certification failure **cascades** to every later tentative transaction
  that read the failed one's writes — so no committed transaction ever read
  an aborted one's data (G1a never occurs);
* certified transactions commit in certification order, which is therefore
  a valid serialization order: every committed history provides PL-3.

The emitted histories are the quantitative version of the paper's argument:
they teem with P1 violations (reads of uncommitted data) yet always check
out serializable — see ``tests/test_mobile.py`` and the SEC3-MOBILE bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.history import History
from ..core.objects import Version
from ..core.predicates import Predicate, VersionSet
from ..exceptions import InvalidOperation
from ..service.replication import SessionVector
from .recorder import HistoryRecorder
from .storage import MultiVersionStore
from .transaction import BufferedWrite, Transaction, TxnState

__all__ = ["MobileCluster", "MobileClient", "MobileTxn", "SyncResult"]

#: The session-vector key for the (single) server a mobile client talks to.
SERVER = "server"


@dataclass
class _Tentative:
    """A tentatively committed transaction awaiting certification."""

    txn: Transaction
    base_seq: int
    #: objects read from *server* state (validated at certification)
    server_reads: Set[str]
    #: relations predicate-read from server state (validated coarsely)
    server_predicates: Set[str]
    #: tids of same-client tentative transactions whose writes were read
    read_from: Set[int]


@dataclass
class SyncResult:
    """Outcome of one client synchronisation."""

    committed: List[int] = field(default_factory=list)
    aborted: List[int] = field(default_factory=list)
    #: aborted because a transaction they read from was aborted
    cascaded: List[int] = field(default_factory=list)


class MobileTxn:
    """Handle for a transaction running at one client."""

    def __init__(self, client: "MobileClient", txn: Transaction):
        self._client = client
        self._txn = txn

    @property
    def tid(self) -> int:
        return self._txn.tid

    @property
    def state(self) -> TxnState:
        return self._txn.state

    def read(self, obj: str) -> Any:
        return self._client._read(self._txn, obj)

    def write(self, obj: str, value: Any) -> None:
        self._client._write(self._txn, obj, value)

    def delete(self, obj: str) -> None:
        self._client._write(self._txn, obj, None, dead=True)

    def select(self, predicate: Predicate) -> Dict[str, Any]:
        result = self._client._predicate_read(self._txn, predicate)
        return {obj: self.read(obj) for obj, _v in result}

    def count(self, predicate: Predicate) -> int:
        return len(self._client._predicate_read(self._txn, predicate))

    def tentative_commit(self) -> None:
        """Commit locally; visible to later transactions at this client,
        pending server certification at the next sync."""
        self._client._tentative_commit(self._txn)

    def abort(self) -> None:
        self._client._abort(self._txn)


class MobileClient:
    """One disconnected client: a local tentative log over a server base.

    The server base is tracked through the same :class:`SessionVector`
    the replicated cluster uses for session guarantees: the vector's
    ``SERVER`` entry is the commit offset of the client's last contact.
    A *connected* client refreshes the watermark on every ``begin`` (each
    transaction starts from current server state); after
    :meth:`disconnect` the watermark freezes, so the client is exactly a
    replica with unbounded lag serving stale-by-choice reads — the
    replication layer's weak-session mode — until :meth:`sync`
    reconnects, observes the fresh offset, and certifies the tentative
    log against everything that committed past the old watermark.
    """

    def __init__(self, cluster: "MobileCluster", client_id: int):
        self.cluster = cluster
        self.client_id = client_id
        # Creation is the client's first server contact.
        self.session = SessionVector({SERVER: cluster.store.commit_seq})
        self.connected = True
        self._tentative: List[_Tentative] = []
        self._running: Dict[int, _Tentative] = {}

    def session_vector(self) -> SessionVector:
        """Snapshot of the client's watermark vector (cf. ClusterClient)."""
        return self.session.copy()

    def disconnect(self) -> None:
        """Freeze the server watermark: later transactions run against
        the state as of the last contact, however stale it grows."""
        self.connected = False

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self) -> MobileTxn:
        txn = self.cluster._new_txn()
        if self.connected:
            self.session.observe(SERVER, self.cluster.store.commit_seq)
        self._running[txn.tid] = _Tentative(
            txn, self.session.get(SERVER), set(), set(), set()
        )
        return MobileTxn(self, txn)

    def _pending(self, txn: Transaction) -> _Tentative:
        try:
            return self._running[txn.tid]
        except KeyError:
            raise InvalidOperation(
                f"T{txn.tid} is not running at client {self.client_id}"
            ) from None

    def _tentative_view(self, obj: str) -> Optional[BufferedWrite]:
        """The latest tentative (locally committed, uncertified) write."""
        for entry in reversed(self._tentative):
            own = entry.txn.buffer.get(obj)
            if own is not None:
                return own
        return None

    def _read(self, txn: Transaction, obj: str) -> Any:
        txn.require_active()
        meta = self._pending(txn)
        own = txn.buffer.get(obj)
        if own is not None:
            if own.dead:
                return None
            self.cluster.recorder.read(txn.tid, own.version, own.value)
            return own.value
        tentative = self._tentative_view(obj)
        if tentative is not None:
            # Reading another (uncommitted!) transaction's write — the
            # paper's H1' pattern; remember the dependency for cascades.
            meta.read_from.add(tentative.version.tid)
            if tentative.dead:
                return None
            self.cluster.recorder.read(
                txn.tid, tentative.version, tentative.value
            )
            return tentative.value
        stored = self.cluster.store.at_snapshot(obj, meta.base_seq)
        if stored is None or stored.dead:
            return None
        meta.server_reads.add(obj)
        self.cluster.recorder.read(txn.tid, stored.version, stored.value)
        return stored.value

    def _write(
        self, txn: Transaction, obj: str, value: Any, *, dead: bool = False
    ) -> None:
        txn.require_active()
        self.cluster.store.register(obj)
        version = txn.next_version(obj)
        self.cluster.recorder.write(
            txn.tid, version, None if dead else value, dead=dead
        )
        txn.buffer[obj] = BufferedWrite(version, None if dead else value, dead)
        txn.write_set.add(obj)

    def _predicate_read(
        self, txn: Transaction, predicate: Predicate
    ) -> Tuple[Tuple[str, Any], ...]:
        txn.require_active()
        meta = self._pending(txn)
        selected: Dict[str, Version] = {}
        matched: List[Tuple[str, Any]] = []
        for relation in sorted(predicate.relations):
            meta.server_predicates.add(relation)
            for obj in self.cluster.store.objects_in(relation):
                own = txn.buffer.get(obj) or self._tentative_view(obj)
                if own is not None:
                    if own.version.tid != txn.tid:
                        meta.read_from.add(own.version.tid)
                    selected[obj] = own.version
                    if not own.dead and predicate.matches(own.version, own.value):
                        matched.append((obj, own.value))
                    continue
                stored = self.cluster.store.at_snapshot(obj, meta.base_seq)
                if stored is None:
                    continue
                selected[obj] = stored.version
                if not stored.dead and predicate.matches(
                    stored.version, stored.value
                ):
                    matched.append((obj, stored.value))
        self.cluster.recorder.predicate_read(
            txn.tid, predicate, VersionSet(selected)
        )
        txn.predicates.append(predicate)
        return tuple(sorted(matched))

    def _tentative_commit(self, txn: Transaction) -> None:
        txn.require_active()
        meta = self._running.pop(txn.tid)
        self._tentative.append(meta)
        # No Commit event yet: the transaction stays uncommitted in the
        # history until the server certifies it at sync time.

    def _abort(self, txn: Transaction) -> None:
        if txn.state is not TxnState.ACTIVE:
            return
        self._running.pop(txn.tid, None)
        self.cluster.recorder.abort(txn.tid)
        txn.state = TxnState.ABORTED

    # ------------------------------------------------------------------
    # reconnection
    # ------------------------------------------------------------------

    def sync(self) -> SyncResult:
        """Reconnect: certify tentative transactions in order, cascading
        aborts to dependents of failures; returns what happened.

        Reconnecting also advances the session watermark to the server's
        current commit offset, so post-sync transactions read fresh state
        (read-your-writes across the sync is automatic: certified writes
        are part of that offset)."""
        result = SyncResult()
        aborted: Set[int] = set()
        for entry in self._tentative:
            txn = entry.txn
            cascade_source = entry.read_from & aborted
            if cascade_source:
                self._certify_abort(entry, result, cascaded=True)
                aborted.add(txn.tid)
                continue
            if self._conflicts(entry):
                self._certify_abort(entry, result, cascaded=False)
                aborted.add(txn.tid)
                continue
            self.cluster.store.install(txn.final_values())
            self.cluster.recorder.commit(txn.tid, txn.finals())
            txn.state = TxnState.COMMITTED
            result.committed.append(txn.tid)
        self._tentative.clear()
        self.connected = True
        self.session.observe(SERVER, self.cluster.store.commit_seq)
        return result

    def _conflicts(self, entry: _Tentative) -> bool:
        """Backward validation against commits since the transaction's
        base: overwritten server reads, or relation changes under its
        predicate reads (coarse, like the OCC scheduler)."""
        store = self.cluster.store
        for obj in entry.server_reads:
            if store.changed_since(obj, entry.base_seq):
                return True
        for relation in entry.server_predicates:
            for obj in store.objects_in(relation):
                if store.changed_since(obj, entry.base_seq):
                    return True
        return False

    def _certify_abort(
        self, entry: _Tentative, result: SyncResult, *, cascaded: bool
    ) -> None:
        entry.txn.state = TxnState.ABORTED
        self.cluster.recorder.abort(entry.txn.tid)
        result.aborted.append(entry.txn.tid)
        if cascaded:
            result.cascaded.append(entry.txn.tid)


class MobileCluster:
    """The server plus its disconnected clients."""

    def __init__(self) -> None:
        self.store = MultiVersionStore()
        self.recorder = HistoryRecorder()
        self._next_tid = 1
        self._clients: Dict[int, MobileClient] = {}
        self._loaded = False

    def load(self, initial: Dict[str, Any]) -> None:
        """Install the initial server state (loader transaction T0)."""
        if self._loaded:
            raise InvalidOperation("initial data already loaded")
        self._loaded = True
        loader = Transaction(0)
        for obj, value in initial.items():
            self.store.register(obj)
            version = loader.next_version(obj)
            self.recorder.write(0, version, value)
            loader.buffer[obj] = BufferedWrite(version, value, False)
        self.store.install(loader.final_values())
        self.recorder.commit(0, loader.finals())

    def client(self, client_id: int) -> MobileClient:
        if client_id not in self._clients:
            self._clients[client_id] = MobileClient(self, client_id)
        return self._clients[client_id]

    def _new_txn(self) -> Transaction:
        txn = Transaction(self._next_tid)
        self._next_tid += 1
        self.recorder.begin(txn.tid)
        return txn

    def history(self, *, validate: bool = True) -> History:
        """The global execution (all clients) as an Adya history."""
        return self.recorder.history(validate=validate)
