"""A sharded cluster of deterministic servers with global certification.

The cluster splits the keyspace by hash over N :class:`ShardServer`
instances (each a full :class:`~repro.service.server.Server`: at-most-once
sessions, WAL recovery, live certification) on one seeded
:class:`~repro.service.network.SimulatedNetwork`, adds a
:class:`~repro.service.coordinator.Coordinator` endpoint for cross-shard
two-phase commit, and certifies isolation levels *globally*: every shard's
durable history feeds one merged :class:`~repro.core.incremental.
IncrementalAnalysis`, so the paper's client-centric isolation tests run
over the whole cluster's execution, not per shard.

Key design points:

* **Routing** is client-side against a versioned in-process
  :class:`~repro.service.shardmap.ShardMap` (the config service).  Objects
  route by relation (``"emp:3"`` routes by ``"emp"``; bare keys by
  themselves), so a relation and everything inserted into it colocate.
  A shard answers ``moved`` for keys it no longer owns; clients re-consult
  the map and resend the same idempotency token.
* **Global transaction ids** come from one shared allocator, and commits
  get **global commit stamps** from one shared sequencer (cross-shard
  transactions are stamped by the coordinator at the commit decision,
  single-shard commits at apply), so per-shard histories merge into one
  totally-ordered execution.
* **Lazy joins**: a transaction begins at its session's home shard; the
  first operation routed to another shard joins it there under the same
  global tid (reads at secondary shards therefore see per-shard views —
  the global certifier is exactly the machinery that catches any anomaly
  this distribution-level weakening admits).
* **2PC with WAL-backed prepares**: ``prepare`` snapshots a transaction's
  final writes into durable per-shard prepared state; a shard crash
  between prepare and commit recovers by *redoing* the prepared writes
  when the (retransmitted) decision arrives.  Objects touched by a
  prepared-but-in-doubt transaction are fenced with ``busy`` replies
  until the decision lands.
* **Determinism**: every decision — routing, rids, stamps, fault
  injection points, reconfiguration — is a pure function of configs and
  seeds, so cluster runs replay byte for byte; a ``shards=1`` cluster is
  *byte-identical* (histories, journals, certification verdicts) to the
  plain single-:class:`Server` stack.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.events import Abort, Begin, Commit, PredicateRead, Read, Write
from ..core.history import History
from ..core.levels import IsolationLevel
from ..engine.factory import SchedulerConfig
from ..engine.transaction import TxnState
from .client import Client
from .config import (
    AdmissionConfig,
    ClusterConfig,
    NetworkConfig,
    SessionGuarantees,
)
from .coordinator import Coordinator
from .errors import ServiceUnavailable
from .network import SimulatedNetwork
from .replication import (
    ReplicaServer,
    SessionVector,
    _ReadSession,
    route_key as _route_key,
)
from .server import Server, break_deadlock, record_verdict
from .shardmap import ShardMap

__all__ = ["Cluster", "ClusterClient", "ShardServer", "connect_cluster"]


class _TxnMeta:
    """Cluster-wide registry entry for one transaction."""

    __slots__ = ("session", "level", "declared", "home", "participants")

    def __init__(
        self,
        session: str,
        level: Optional[object],
        declared: Optional[IsolationLevel],
        home: int,
    ) -> None:
        self.session = session
        #: Resolved level to re-declare on lazy joins.
        self.level = level
        #: Declared :class:`IsolationLevel` for certification.
        self.declared = declared
        self.home = home
        #: Shard indices the transaction runs at (home + lazy joins).
        self.participants: Set[int] = {home}


class _ClusterState:
    """Shared cluster state: the global tid allocator, the commit-stamp
    sequencer, and the transaction registry.  In-process and message-free,
    so a single-shard cluster draws nothing extra from any RNG."""

    def __init__(self, shards: int) -> None:
        self.next_tid = 1
        self.next_stamp = 1
        #: Global commit order: gid -> stamp (loader transaction 0 first).
        self.stamps: Dict[int, int] = {0: 0}
        self.committed: Set[int] = {0}
        self.aborted: Set[int] = set()
        #: Transactions known dead (any shard aborted them) — joins refuse.
        self.dead: Set[int] = set()
        self.meta: Dict[int, _TxnMeta] = {}
        #: First gid each session ever began — global deadlock seniority.
        self.session_first_gid: Dict[str, int] = {}
        #: Latest gid each session began (orphan reaping on re-begin).
        self.session_current: Dict[str, int] = {}
        #: Loader participants (shard indices that loaded initial data).
        self.loader_participants: Tuple[int, ...] = tuple(range(shards))

    def allocate_tid(self) -> int:
        tid = self.next_tid
        self.next_tid += 1
        return tid

    def stamp(self, gid: int) -> int:
        existing = self.stamps.get(gid)
        if existing is not None:
            return existing
        stamp = self.next_stamp
        self.next_stamp += 1
        self.stamps[gid] = stamp
        return stamp


class _ShardFeed:
    """Monitor-protocol adapter attached to one shard's recorder; forwards
    every recorded event into the cluster's :class:`GlobalCertifier`."""

    __slots__ = ("certifier", "index")

    def __init__(self, certifier: "GlobalCertifier", index: int) -> None:
        self.certifier = certifier
        self.index = index

    def add(self, event, *, finals=None, positions=None) -> None:
        self.certifier.feed(self.index, event, finals, positions)


class GlobalCertifier:
    """Merges the per-shard event streams into one online analysis.

    Reads, writes and predicate reads forward immediately (objects are
    partitioned, so streams never contend on an object).  Begins dedup to
    the first shard's copy; aborts likewise.  A cross-shard commit emits
    one Commit event per participant recorder — the certifier buffers the
    parts and forwards a *single* merged commit (union finals/positions)
    once every participant has applied, so the analysis sees each
    transaction commit exactly once, atomically.  Single-participant
    commits pass straight through, which is what makes a ``shards=1``
    cluster feed the analysis the byte-identical stream a single server
    would.
    """

    def __init__(self, cluster: "Cluster", analysis) -> None:
        self.cluster = cluster
        self.analysis = analysis
        self._begun: Set[int] = set()
        self._aborted: Set[int] = set()
        #: gid -> [parts seen, merged finals, merged positions]
        self._parts: Dict[int, list] = {}

    def attach(self, shard: "ShardServer") -> None:
        shard.recorder.attach_monitor(_ShardFeed(self, shard.index))

    def feed(self, index: int, event, finals, positions) -> None:
        a = self.analysis
        if isinstance(event, Begin):
            if event.tid in self._begun:
                return
            self._begun.add(event.tid)
            a.add(event)
            return
        if isinstance(event, Abort):
            if event.tid in self._aborted:
                return
            self._aborted.add(event.tid)
            a.add(event)
            return
        if isinstance(event, Commit):
            gid = event.tid
            participants = self.cluster.participants_of(gid)
            if len(participants) <= 1:
                a.add(event, finals=finals, positions=positions)
                return
            acc = self._parts.setdefault(gid, [0, {}, {}])
            acc[0] += 1
            if finals:
                acc[1].update(finals)
            if positions:
                acc[2].update(positions)
            if acc[0] >= len(participants):
                del self._parts[gid]
                a.add(event, finals=acc[1], positions=acc[2])
            return
        if (
            isinstance(event, (Read, Write, PredicateRead))
            and event.tid in self._aborted
        ):
            # A straggler operation at one shard after another shard already
            # aborted the transaction (e.g. a home-shard crash): the online
            # analysis has sealed the transaction, so drop it — it can never
            # commit, and the merged batch history still carries the event.
            return
        a.add(event)


class ShardServer(Server):
    """One shard: a full :class:`Server` plus cluster mechanics — ownership
    checks (``moved``), lazy cross-shard joins, the 2PC participant verbs
    (``prepare``/``decide``) with WAL-backed prepared state, and fencing of
    in-doubt objects after a crash."""

    #: 2PC verbs re-execute even when their rid was outrun by later traffic
    #: on the coordinator's multiplexed session (both are idempotent).
    _replayable_kinds = frozenset({"prepare", "decide"})

    def __init__(
        self,
        cluster: "Cluster",
        index: int,
        network: SimulatedNetwork,
        config,
        *,
        name: str,
        initial: Optional[Dict[str, Any]] = None,
        recover_from: Optional[object] = None,
    ) -> None:
        self._cluster = cluster
        self.index = index
        #: Durable (WAL-backed) prepared state, shared with any replacement
        #: endpoint recovered from the same log: gid -> redo snapshot.
        self._prepared = cluster._prepared_by_shard[index]
        #: Prepared engine transactions whose session moved on (the client
        #: gave up mid-2PC and began a fresh transaction): gid -> handle.
        #: Their fate belongs to the coordinator — the decide commits or
        #: aborts them through here, releasing their locks properly.
        self._detached: Dict[int, Any] = {}
        #: First-time prepares executed (the fault schedule's trigger).
        self.prepare_count = 0
        #: ``service_replication_lag`` series per backup ordinal (always an
        #: ``int`` of this cluster's own making), bound at first use.
        self._lag_gauges: Dict[int, Any] = {}
        #: Network tick of every recorded event, parallel to
        #: ``recorder.events`` (shared with replacements; the merged
        #: history sorts by these).
        self.event_ticks = cluster._event_ticks[index]
        super().__init__(
            network,
            config,
            name=name,
            initial=initial,
            monitor=None,  # the global certifier attaches to the recorder
            metrics=cluster.metrics,
            tracer=cluster.tracer,
            admission=cluster.admission,
            tid_allocator=cluster.state.allocate_tid,
            recover_from=recover_from,
        )
        self._note_event_ticks()

    # ------------------------------------------------------------------
    # event-tick bookkeeping (merged-history ordering)
    # ------------------------------------------------------------------

    def _note_event_ticks(self) -> None:
        ticks, n = self.event_ticks, len(self.recorder.events)
        while len(ticks) < n:
            ticks.append(self.network.now)

    def handle(self, request, src):
        kind = request.get("kind")
        if kind in ("repl-pump", "repl-ack"):
            if self.up:
                self._handle_replication(kind, request)
            return None
        reply = super().handle(request, src)
        self._note_event_ticks()
        return reply

    # ------------------------------------------------------------------
    # primary-side replication (log shipping)
    # ------------------------------------------------------------------

    def _handle_replication(self, kind, request) -> None:
        cluster = self._cluster
        if kind == "repl-ack":
            acked = cluster._repl_acked[self.index]
            j = request["replica"]
            acked[j] = max(acked[j], request["applied"])
            self._note_repl_lag(j, acked[j])
            return
        # "repl-pump": ship the unacknowledged WAL suffix to each backup
        # with a seeded lag draw, then re-arm the pump.  Timer-based and
        # fault-free, so replication never perturbs the client traffic's
        # fault schedule; the periodic re-ship doubles as retransmission
        # for batches lost to a backup crash or a partition.
        cfg = cluster.config
        log = self.recorder.repl_log or []
        rng = cluster._repl_rngs[self.index]
        lag_min, lag_max = cfg.replication_lag
        for j in range(cfg.replicas):
            replica = cluster.replica_of(self.index, j)
            if replica is None:
                continue
            acked = cluster._repl_acked[self.index][j]
            if acked >= len(log):
                continue
            lag = rng.randint(lag_min, lag_max)
            entries = log[acked:]
            span = None
            if self.tracer is not None:
                span = self.tracer.span(
                    "repl.ship",
                    stack=False,
                    shard=self.index,
                    replica=j,
                    src=self.name,
                    dst=replica.name,
                    offset=acked,
                    count=len(entries),
                    lag=lag,
                    tids=sorted({entry[0].tid for entry in entries}),
                )
            self._note_repl_lag(j, acked)
            self.network.timer(
                replica.name,
                {
                    "kind": "repl",
                    "primary": self.name,
                    "from": acked,
                    "entries": entries,
                },
                delay=lag,
                src=self.name,
                span=span,
            )
        self.network.timer(
            self.name, {"kind": "repl-pump"}, delay=cfg.replication_every
        )

    def _note_repl_lag(self, ordinal: int, acked: int) -> None:
        """Keep the per-(shard, replica) replication-lag gauge on the
        backup's acknowledged distance behind this primary's durable log
        (observation only)."""
        if self.metrics is None:
            return
        gauge = self._lag_gauges.get(ordinal)
        if gauge is None:
            gauge = self._lag_gauges[ordinal] = self.metrics.gauge(
                "service_replication_lag",
                "log entries a backup trails its primary by (acked)",
            ).labels(shard=self.index, replica=ordinal)
        log = self.recorder.repl_log or ()
        gauge.set(max(len(log) - acked, 0))

    def restart(self) -> None:
        if self.up:
            return
        super().restart()
        # The pump timer chain died with the crash (self-timers are
        # flushed); re-arm it so the backups keep catching up.
        self._cluster._arm_replication(self)

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------

    def _execute(self, kind, request, sess, span=None):
        cluster = self._cluster
        if kind == "prepare":
            return self._do_prepare(request, span)
        if kind == "decide":
            return self._do_decide(request, span)
        if kind in ("read", "write", "delete", "insert"):
            key = request["relation"] if kind == "insert" else request["obj"]
            owner = cluster.shard_map.owner(_route_key(key))
            if owner != self.name:
                self.counters["moved"] = self.counters.get("moved", 0) + 1
                return {
                    "error": "moved",
                    "owner": owner,
                    "map_version": cluster.shard_map.version,
                }
            if kind != "insert":
                fenced = self._prepared_fence(kind, request["obj"], request["session"])
                if fenced is not None:
                    return fenced
            gid = request.get("tid")
            if gid is not None and (
                sess.txn is None
                or sess.txn.tid != gid
                or sess.txn.state is not TxnState.ACTIVE
            ):
                self._join(gid, request["session"], sess)
        txn_before = sess.txn
        reply = super()._execute(kind, request, sess, span)
        if (
            kind == "commit"
            and txn_before is not None
            and reply.get("ok")
            and not reply.get("recovered")
        ):
            cluster._note_commit(txn_before.tid)
        if cluster.config.replicas and reply.get("ok"):
            # Watermark provenance for session guarantees: reads carry the
            # primary's current offset (the freshest possible state of this
            # shard), commits the post-commit offset every participant's
            # durable log reached.
            offset = len(self.recorder.events)
            if kind == "read":
                reply["shard"] = self.index
                reply["offset"] = offset
            elif kind == "commit":
                reply["offsets"] = {self.index: offset}
        return reply

    def _do_begin(self, request, sess):
        cluster = self._cluster
        session = request["session"]
        # Reap the session's previous transaction cluster-wide before
        # opening a new one: a transaction the client gave up on may still
        # hold locks at shards the session never revisits.
        prev = cluster.state.session_current.get(session)
        if prev is not None:
            cluster._reap_orphan(prev, skip=self)
        if (
            sess.txn is not None
            and sess.txn.state is TxnState.ACTIVE
            and sess.txn.tid in self._prepared
        ):
            # The session's previous transaction is prepared: only the
            # coordinator may finish it.  Detach it so the base begin does
            # not abort it as an orphan.
            self._detached[sess.txn.tid] = sess.txn
            sess.txn = None
        reply = super()._do_begin(request, sess)
        gid = sess.txn.tid
        meta = _TxnMeta(
            session, sess.txn.level, self.declared.get(gid), self.index
        )
        cluster.state.meta[gid] = meta
        cluster.state.session_first_gid.setdefault(session, gid)
        cluster.state.session_current[session] = gid
        return reply

    def _join(self, gid: int, session: str, sess) -> bool:
        """Lazily join a cross-shard transaction: begin under the same
        global tid here, provided the transaction is still live at its home
        shard.  Refusals fall through to the base handler's ``aborted``
        reply."""
        cluster = self._cluster
        meta = cluster.state.meta.get(gid)
        if (
            meta is None
            or meta.session != session
            or gid in cluster.state.dead
            or gid in cluster.state.committed
            or cluster.state.session_current.get(session) != gid
            or not cluster._active_at_home(gid)
        ):
            return False
        if sess.txn is not None and sess.txn.state is TxnState.ACTIVE:
            if sess.txn.tid in self._prepared:
                # Prepared: the coordinator finishes it (see _do_begin).
                self._detached[sess.txn.tid] = sess.txn
            else:
                sess.txn.abort()  # stale orphan from an earlier transaction
        sess.pending_abort = None
        self._adopt(sess, session, self.db.begin(meta.level, tid=gid))
        self.declared[gid] = meta.declared
        meta.participants.add(self.index)
        return True

    # ------------------------------------------------------------------
    # 2PC participant verbs
    # ------------------------------------------------------------------

    def _do_prepare(self, request, span=None):
        gid = request["tid"]
        if gid in self._committed_tids or gid in self._prepared:
            return {"ok": True, "prepared": True}
        meta = self._cluster.state.meta.get(gid)
        sess = self._sessions.get(meta.session) if meta is not None else None
        txn = sess.txn if sess is not None else None
        if txn is None or txn.tid != gid or txn.state is not TxnState.ACTIVE:
            return {
                "ok": True,
                "prepared": False,
                "reason": "transaction not active at participant",
            }
        t = txn._txn
        # The WAL-backed redo record: everything a crashed shard needs to
        # finish the commit after restart, plus the footprint to fence.
        self._prepared[gid] = {
            "session": meta.session,
            "finals": t.finals(),
            "values": t.final_values(),
            "positions": dict(t.final_write_index),
            "write_objs": frozenset(t.finals()),
            "read_objs": frozenset(t.read_set),
        }
        self.prepare_count += 1
        if span is not None:
            span.set(tid=gid, prepared=True)
        return {"ok": True, "prepared": True}

    def _do_decide(self, request, span=None):
        gid = request["tid"]
        outcome = request["outcome"]
        cluster = self._cluster
        meta = cluster.state.meta.get(gid)
        sess = self._sessions.get(meta.session) if meta is not None else None
        txn = sess.txn if sess is not None else None
        if txn is None or txn.tid != gid:
            txn = self._detached.get(gid)
        live = (
            txn is not None
            and txn.tid == gid
            and txn.state is TxnState.ACTIVE
        )
        if span is not None:
            span.set(tid=gid, outcome=outcome)
        if outcome == "commit":
            if gid in self._committed_tids:
                reply = {"ok": True}
                if cluster.config.replicas:
                    reply["offset"] = len(self.recorder.events)
                return reply
            snap = self._prepared.get(gid)
            if snap is None:
                return {
                    "error": "bad-request",
                    "reason": "decide-commit without a prepared transaction",
                }
            if live:
                txn.commit()
                recovered = False
            else:
                # Crash between prepare and commit: the engine transaction
                # is gone, but the prepared record survived — redo its
                # writes into the store and log the commit, exactly what a
                # WAL redo pass does.
                self.db.scheduler.redo(snap["values"])
                self.recorder.commit(
                    gid, snap["finals"], positions=snap["positions"]
                )
                recovered = True
            del self._prepared[gid]
            self._detached.pop(gid, None)
            if live and sess is not None and sess.txn is txn:
                sess.txn = None
            self.commit_count += 1
            self._committed_tids.add(gid)
            cluster._note_commit(gid)
            reply = {"ok": True}
            if recovered:
                reply["recovered"] = True
            if cluster.config.replicas:
                reply["offset"] = len(self.recorder.events)
            return reply
        # outcome == "abort"
        snap = self._prepared.pop(gid, None)
        self._detached.pop(gid, None)
        if live:
            txn.abort()
            if sess is not None and sess.txn is txn:
                sess.txn = None
        elif snap is not None:
            self.recorder.abort(gid)  # recovery undo for the in-doubt txn
        cluster.state.dead.add(gid)
        return {"ok": True}

    def _prepared_fence(self, kind, obj, session_id):
        """Fence operations on objects belonging to an in-doubt prepared
        transaction whose engine state died with a crash (while the engine
        transaction lives, its own locks do this job).  Readers block on
        the prepared write set; writers on its whole footprint."""
        for gid, snap in self._prepared.items():
            sess = self._sessions.get(snap["session"])
            if (
                sess is not None
                and sess.txn is not None
                and sess.txn.tid == gid
                and sess.txn.state is TxnState.ACTIVE
            ):
                continue
            if kind == "read":
                conflict = obj in snap["write_objs"]
            else:
                conflict = obj in snap["write_objs"] or obj in snap["read_objs"]
            if conflict:
                self._count_busy()
                self._waits[session_id] = frozenset({gid})
                self._waits_acyclic = False  # an edge no search follows
                return {"error": "busy", "holders": [gid], "in_doubt": True}
        return None

    # ------------------------------------------------------------------
    # crash / deadlocks
    # ------------------------------------------------------------------

    def _undo_in_flight(self, txn) -> None:
        """*Prepared* transactions get no recovery-undo abort: their fate
        belongs to the coordinator, and their redo records survive in the
        durable prepared state."""
        if txn.tid not in self._prepared:
            self._cluster.state.dead.add(txn.tid)
            txn.abort()

    def crash(self) -> None:
        """:meth:`Server.crash`, plus the shard's own volatile state."""
        if not self.up:
            return
        super().crash()
        self._detached.clear()  # engine txns die with the db; snapshots stay
        self._note_event_ticks()

    def _resolve_deadlock(self, waiter: int) -> None:
        self._cluster.resolve_deadlock(self, waiter)


class ClusterClient(Client):
    """A client session routed against the cluster's shard map.

    Routing: ``begin`` goes to the session's *home shard* (hash of the
    session name); keyed operations to the owner of their routing key;
    ``commit``/``abort`` directly to the single shard the transaction
    touched, or to the 2PC coordinator when it spans several.  Every retry
    re-resolves its destination against the *current* map and shard
    endpoints, so a request never chases a retired shard.

    With ``read_preference`` other than ``"primary"`` (and a replicated
    cluster), plain reads go to backups — ``"nearest"`` sticks each session
    to one hashed endpoint, ``"replica"`` spreads reads round the group —
    and the session tracks Bayou-style watermark vectors of ``(shard,
    applied-offset)``: commits raise the *write* vector, reads the *read*
    vector, both the *causal* one.  When ``guarantees`` enforces a session
    level, replica reads carry the vector floor (``min_offset``) and a
    lagging backup either redirects the read to the primary or makes it
    wait for catch-up (:attr:`SessionGuarantees.on_lag`); when nothing is
    enforced the session reads stale by choice and every guarantee the
    stale read *would* have violated is recorded in :attr:`violations`
    with a witness."""

    def __init__(
        self,
        cluster: "Cluster",
        *,
        read_preference: str = "primary",
        guarantees: Optional[SessionGuarantees] = None,
        **kwargs,
    ) -> None:
        if read_preference not in ("primary", "replica", "nearest"):
            raise ValueError(
                "read_preference must be primary, replica or nearest, "
                f"not {read_preference!r}"
            )
        self._cluster = cluster
        self._txn_shards: Set[int] = set()
        self.read_preference = read_preference
        self.guarantees = guarantees
        #: Session watermarks: offsets this session's writes reached,
        #: offsets its reads observed, and the union (causal).
        self._write_vec = SessionVector()
        self._read_vec = SessionVector()
        self._causal_vec = SessionVector()
        #: Witnessed session-guarantee violations (stale-by-choice reads).
        self.violations: List[Dict[str, Any]] = []
        #: Objects written by the current transaction — their reads must go
        #: to the primary (backups never see uncommitted writes).
        self._txn_writes: Set[str] = set()
        #: Attempt count of the retry being re-routed (rotates replicas).
        self._route_attempt = 0
        super().__init__(cluster.network, server="", **kwargs)

    @property
    def home_shard(self) -> int:
        return self._cluster.home_shard(self.name)

    # -- watermarks ----------------------------------------------------

    def session_vector(self) -> SessionVector:
        """The session's causal watermark (a copy)."""
        return self._causal_vec.copy()

    def _floor_for(self, idx: int) -> int:
        """The applied-offset floor the enforced guarantees impose on a
        replica read at shard ``idx``."""
        g = self.guarantees
        if g is None:
            return 0
        floor = 0
        if g.read_your_writes:
            floor = max(floor, self._write_vec.get(idx))
        if g.monotonic_reads:
            floor = max(floor, self._read_vec.get(idx))
        if g.causal:
            floor = max(floor, self._causal_vec.get(idx))
        return floor

    # -- routing -------------------------------------------------------

    def _pick_replica(self, idx: int) -> str:
        """Deterministic replica choice for a plain read at shard ``idx``:
        ``nearest`` hashes the session to one sticky endpoint (primary
        included as a slot), ``replica`` rotates by rid; retries rotate
        onward and eventually fall back to the primary, so one crashed
        backup never wedges a session."""
        cluster = self._cluster
        k = cluster.config.replicas
        h = zlib.crc32(self.name.encode("utf-8"))
        attempt = self._route_attempt
        if self.read_preference == "nearest":
            slot = h % (k + 1) if attempt < 2 else k
        else:  # "replica"
            slot = (h + self._rid + attempt) % (k + 1) if attempt else (
                (h + self._rid) % k
            )
        if slot < k:
            replica = cluster.replica_of(idx, slot)
            if replica is not None:
                return replica.name
        return cluster.endpoint(idx)

    def _route(self, kind: str, payload: Dict[str, Any]) -> str:
        cluster = self._cluster
        if kind in ("begin", "ping"):
            home = self.home_shard
            if kind == "begin":
                self._txn_shards = {home}
                self._txn_writes = set()
            return cluster.endpoint(home)
        if kind in ("commit", "abort"):
            if len(self._txn_shards) == 1:
                return cluster.endpoint(next(iter(self._txn_shards)))
            return cluster.coordinator.name
        key = payload.get("obj") or payload.get("relation")
        if key is None:
            return cluster.endpoint(self.home_shard)
        if kind in ("write", "delete"):
            self._txn_writes.add(payload["obj"])
        idx = cluster.owner_index(_route_key(key))
        pinned = payload.get("_pin")
        if pinned is not None:
            return pinned  # waiting out a lagging replica: same endpoint
        if (
            kind == "read"
            and cluster.config.replicas
            and self.read_preference != "primary"
            and not payload.get("for_update")
            and payload.get("_route") != "primary"
            and payload.get("obj") not in self._txn_writes
        ):
            dest = self._pick_replica(idx)
            if dest != cluster.endpoint(idx):
                floor = self._floor_for(idx)
                if floor:
                    payload["min_offset"] = floor
                else:
                    payload.pop("min_offset", None)
                return dest
        payload.pop("min_offset", None)
        self._txn_shards.add(idx)
        return cluster.endpoint(idx)

    def _refresh_destination(self, pending) -> None:
        # The stale-shard fix: retries re-resolve against the live map and
        # the shards' *current* endpoints (a replaced shard keeps its index
        # but changes its name), instead of hammering the retired endpoint.
        # Replica-served reads additionally rotate their backup choice with
        # the attempt count.
        self._route_attempt = pending.attempts
        pending.dest = self._route(pending.kind, pending.payload)
        self._route_attempt = 0

    def _on_lagging(self, pending, reply: Dict[str, Any]) -> None:
        """Session-guarantee policy for a behind-the-watermark replica:
        redirect the read to the primary (default, and always when the
        replica has never seen the object), or pin the destination and
        wait for catch-up (``on_lag="wait"``)."""
        g = self.guarantees
        mode = g.on_lag if g is not None and g.enforced else "redirect"
        if mode == "redirect" or reply.get("missing"):
            if pending.attempts >= self.policy.max_attempts:
                pending.error = ServiceUnavailable(
                    f"{pending.kind} rid={pending.rid}: replica lagging "
                    f"after {pending.attempts} attempts"
                )
                return
            pending.payload["_route"] = "primary"
            pending.payload.pop("min_offset", None)
            pending.dest = self._route(pending.kind, pending.payload)
            pending._send()
            return
        pending.payload["_pin"] = pending.dest
        pending._backoff_or_fail(
            ServiceUnavailable(
                f"{pending.kind} rid={pending.rid}: replica still lagging "
                f"after {pending.attempts} attempts"
            )
        )

    # -- watermark maintenance & violation witnessing --------------------

    def _finish(self, pending) -> Dict[str, Any]:
        reply = super()._finish(pending)
        if pending.kind == "read" and "offset" in reply:
            shard = reply["shard"]
            offset = reply["offset"]
            tick = self.network.now
            checks = (
                ("read-your-writes", self._write_vec),
                ("monotonic-reads", self._read_vec),
                ("causal", self._causal_vec),
            )
            for kind, vec in checks:
                required = vec.get(shard)
                if offset < required:
                    self.violations.append({
                        "kind": kind,
                        "session": self.name,
                        "shard": shard,
                        "obj": pending.payload.get("obj"),
                        "tid": pending.payload.get("tid"),
                        "required": required,
                        "got": offset,
                        "tick": tick,
                    })
                    if self.metrics is not None:
                        self.metrics.counter(
                            "service_session_violations",
                            "witnessed session-guarantee violations",
                        ).inc(kind=kind, shard=shard)
                    if self.tracer is not None:
                        self.tracer.event(
                            "session.violation",
                            kind=kind,
                            session=self.name,
                            shard=shard,
                            obj=pending.payload.get("obj"),
                            tid=pending.payload.get("tid"),
                            required=required,
                            got=offset,
                        )
            self._read_vec.observe(shard, offset)
            self._causal_vec.observe(shard, offset)
        elif pending.kind == "commit" and reply.get("offsets"):
            for shard, offset in reply["offsets"].items():
                self._write_vec.observe(shard, offset)
                self._causal_vec.observe(shard, offset)
        elif pending.kind == "insert" and "obj" in reply:
            self._txn_writes.add(reply["obj"])
        return reply


class Cluster:
    """N hash-sharded servers + coordinator behind one facade.

    The facade mirrors the single-:class:`Server` surface the stress driver
    and observability stack consume (``commit_count``, ``counters``,
    ``declared``, ``certified``, ``history()``, ``flush_certification()``),
    aggregated across shards; :meth:`tick` advances the deterministic fault
    and reconfiguration schedule."""

    def __init__(
        self,
        network: SimulatedNetwork,
        scheduler: SchedulerConfig | str = "locking",
        *,
        config: Optional[ClusterConfig] = None,
        initial: Optional[Dict[str, Any]] = None,
        monitor: Optional[object] = None,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self.network = network
        self.config = config or ClusterConfig()
        self.scheduler_config = (
            scheduler
            if isinstance(scheduler, SchedulerConfig)
            else SchedulerConfig(scheduler=scheduler)
        )
        if self.config.shards > 1 and self.scheduler_config.scheduler != "locking":
            raise ValueError(
                "cross-shard two-phase commit needs the locking scheduler "
                "family (optimistic engines validate at commit, after the "
                "coordinator's decision is already final); run shards=1 or "
                "scheduler='locking'"
            )
        if self.config.shards > 1 and self.scheduler_config.deadlock == "wound-wait":
            raise ValueError(
                "deadlock='wound-wait' cannot run across shards: a wound "
                "aborts its victim wherever it holds a lock, prepared "
                "participants included, so a transaction the coordinator "
                "commits can be aborted on one shard (2PC atomicity); run "
                "shards=1 or deadlock='detect'"
            )
        self.metrics = metrics
        self.tracer = tracer
        self.admission = admission
        self.analysis = monitor
        n = self.config.shards
        self.state = _ClusterState(n)
        names = self.config.shard_names()
        self.shard_map = ShardMap(names, slots=self.config.slots)
        self._event_ticks: List[List[int]] = [[] for _ in range(n)]
        self._prepared_by_shard: List[Dict[int, dict]] = [{} for _ in range(n)]
        split: List[Dict[str, Any]] = [{} for _ in range(n)]
        by_name = {name: i for i, name in enumerate(names)}
        for obj, value in (initial or {}).items():
            split[by_name[self.shard_map.owner(_route_key(obj))]][obj] = value
        self.state.loader_participants = tuple(
            i for i in range(n) if split[i]
        )
        self.shards: List[ShardServer] = [
            ShardServer(
                self, i, network, self.scheduler_config,
                name=names[i], initial=split[i] or None,
            )
            for i in range(n)
        ]
        self.certifier: Optional[GlobalCertifier] = None
        if monitor is not None:
            self.certifier = GlobalCertifier(self, monitor)
            for shard in self.shards:
                self.certifier.attach(shard)
                shard.monitor = monitor  # base _certify consults it
        # -- replication (primary/backup log shipping) -------------------
        k = self.config.replicas
        #: Backups by (shard, ordinal); a slot goes None on promotion.
        self.replicas: List[List[Optional[ReplicaServer]]] = [
            [
                ReplicaServer(
                    self, i, j, network,
                    name=self.config.replica_names(i)[j],
                )
                for j in range(k)
            ]
            for i in range(n)
        ]
        #: Every backup ever created (promoted ones included) — the merged
        #: history walks this for replica-served reads.
        self._all_replicas: List[ReplicaServer] = [
            r for group in self.replicas for r in group
        ]
        #: Per-shard highest offset each backup acknowledged.
        self._repl_acked: List[List[int]] = [[0] * k for _ in range(n)]
        #: Per-shard replication-lag RNGs, seeded off the network seed —
        #: independent of the fault RNG, so replicated and unreplicated
        #: runs share the client traffic's exact fault schedule.
        self._repl_rngs: List[random.Random] = [
            random.Random(
                zlib.crc32(f"repl:{i}:{network.config.seed}".encode())
            )
            for i in range(n)
        ]
        #: Per-shard shared read-reply caches (at-most-once across the
        #: whole replica group: a retry landing on a different backup —
        #: or the new primary after a promote — still dedups).
        self._replica_replies: List[Dict[str, _ReadSession]] = [
            {} for _ in range(n)
        ]
        self._replica_restart_at: Dict[Tuple[int, int], int] = {}
        self._replica_crash_fired = False
        self._primary_partition_fired = False
        if k:
            for shard in self.shards:
                self._arm_replication(shard)
            if self.certifier is not None:
                for replica in self._all_replicas:
                    # Direct assignment, not attach_monitor: the recorder is
                    # empty here and replays would double-feed after restore.
                    replica.reads.monitor = _ShardFeed(
                        self.certifier, replica.shard_index
                    )
        self.coordinator = Coordinator(self, name=self.config.coordinator)
        #: Cross-shard certification verdicts (coordinator-path commits).
        self._certified: Dict[int, bool] = {}
        self._retired: List[ShardServer] = []
        self._replacements = 0
        # deterministic fault / reconfiguration schedule state
        self._map_changes = list(self.config.map_changes)
        self._restart_at: Dict[int, int] = {}
        self._heal_at: Optional[int] = None
        self._crash_fired = False
        self._partition_fired = False
        self._stress_crash: Optional[Tuple[int, int]] = None
        self._stress_crash_fired = False

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def endpoint(self, index: int) -> str:
        """The shard's *current* endpoint name (changes on replacement)."""
        return self.shards[index].name

    def owner_index(self, route_key: str) -> int:
        return self._index_of(self.shard_map.owner(route_key))

    def _index_of(self, endpoint: str) -> int:
        for shard in self.shards:
            if shard.name == endpoint:
                return shard.index
        raise KeyError(f"unknown shard endpoint {endpoint!r}")

    def home_shard(self, session: str) -> int:
        """The shard a session's transactions begin at (stable hash)."""
        return zlib.crc32(session.encode("utf-8")) % len(self.shards)

    def participants_of(self, gid: int) -> Tuple[int, ...]:
        if gid == 0:
            return self.state.loader_participants
        meta = self.state.meta.get(gid)
        return tuple(meta.participants) if meta is not None else ()

    def client(
        self,
        name: str,
        *,
        policy=None,
        read_preference: str = "primary",
        guarantees: Optional[SessionGuarantees] = None,
    ) -> ClusterClient:
        return ClusterClient(
            self, name=name, policy=policy,
            metrics=self.metrics, tracer=self.tracer,
            read_preference=read_preference, guarantees=guarantees,
        )

    # ------------------------------------------------------------------
    # replication management
    # ------------------------------------------------------------------

    def _arm_replication(self, shard: ShardServer) -> None:
        """Start (or re-start, after a primary crash) the shard's pump
        timer chain; idempotent per arm-point because each pump re-arms
        exactly one successor."""
        if not self.config.replicas:
            return
        shard.recorder.enable_replication()
        self.network.timer(
            shard.name, {"kind": "repl-pump"},
            delay=self.config.replication_every,
        )

    def replica_of(self, index: int, ordinal: int) -> Optional[ReplicaServer]:
        """The backup at (shard, ordinal), or None once promoted away."""
        group = self.replicas[index]
        return group[ordinal] if ordinal < len(group) else None

    def _note_replica_apply(self, replica: ReplicaServer) -> None:
        """Fault-schedule hook: fire the configured backup crash once the
        designated replica has applied its nth entry (crash mid-catch-up:
        the rest of the shipped batch is lost with the process)."""
        trigger = self.config.crash_replica_after_applies
        if trigger is None or self._replica_crash_fired:
            return
        shard, ordinal, count = trigger
        if (
            replica.shard_index == shard
            and replica.ordinal == ordinal
            and replica.counters["applied"] >= count
        ):
            self._replica_crash_fired = True
            replica.crash()
            if self.tracer is not None:
                self.tracer.event(
                    "replica.crash", shard=shard, replica=ordinal,
                    applied=replica.applied,
                )
            self._replica_restart_at[(shard, ordinal)] = (
                self.network.now + self.config.replica_restart_delay
            )

    # ------------------------------------------------------------------
    # commit bookkeeping / certification
    # ------------------------------------------------------------------

    def _note_commit(self, gid: int) -> None:
        self.state.stamp(gid)
        self.state.committed.add(gid)

    def certify(self, gid: int) -> Optional[bool]:
        """Global live certification for a cross-shard commit (the
        coordinator calls this after every participant applied)."""
        if self.analysis is None:
            return None
        meta = self.state.meta.get(gid)
        level = meta.declared if meta is not None else None
        if level is None:
            return None
        ok = self.analysis.provides(level)
        self._certified[gid] = ok
        record_verdict(self.metrics, self.tracer, gid, level, ok)
        return ok

    def _active_at_home(self, gid: int) -> bool:
        meta = self.state.meta.get(gid)
        if meta is None:
            return False
        home = self.shards[meta.home]
        if not home.up:
            return False
        sess = home._sessions.get(meta.session)
        return (
            sess is not None
            and sess.txn is not None
            and sess.txn.tid == gid
            and sess.txn.state is TxnState.ACTIVE
        )

    def _reap_orphan(self, gid: int, *, skip: Optional[ShardServer]) -> None:
        """Abort a given-up-on transaction everywhere it still holds locks
        (prepared shards excluded — those belong to the coordinator)."""
        meta = self.state.meta.get(gid)
        if meta is None or gid in self.state.committed:
            return
        for idx in sorted(meta.participants):
            shard = self.shards[idx]
            if shard is skip or not shard.up:
                continue
            if gid in shard._prepared:
                continue
            sess = shard._sessions.get(meta.session)
            if (
                sess is not None
                and sess.txn is not None
                and sess.txn.tid == gid
                and sess.txn.state is TxnState.ACTIVE
            ):
                sess.txn.abort()
                sess.txn = None
                shard._waits.pop(meta.session, None)
                shard._note_event_ticks()
                self.state.dead.add(gid)

    # ------------------------------------------------------------------
    # global deadlock resolution
    # ------------------------------------------------------------------

    def resolve_deadlock(self, origin: ShardServer, waiter: int) -> None:
        """:func:`~repro.service.server.break_deadlock` over every shard:
        the single server's victim rule, applied cluster-wide."""
        broken = break_deadlock(self.shards, origin, waiter)
        if broken is None:
            return
        victim, aborted_on = broken
        for shard in aborted_on:
            if shard is not origin:
                shard._note_event_ticks()
        self.state.dead.add(victim)

    # ------------------------------------------------------------------
    # deterministic fault & reconfiguration schedule
    # ------------------------------------------------------------------

    def schedule_crash(self, after_commits: int, restart_delay: int) -> None:
        """Arm the stress-level crash: shard 0 crashes once the cluster-wide
        commit count reaches ``after_commits`` (mirrors the single-server
        driver's ``crash_after_commits``)."""
        self._stress_crash = (after_commits, restart_delay)

    def tick(self) -> None:
        """Advance the fault/reconfiguration schedule one driver step:
        restart due shards, heal due partitions, fire due crash/partition
        triggers, apply due (and quiescent) map changes.  Every decision is
        a pure function of deterministic counters and the tick clock."""
        now = self.network.now
        for idx in [i for i, at in self._restart_at.items() if now >= at]:
            del self._restart_at[idx]
            self.shards[idx].restart()
        for key in [
            k for k, at in self._replica_restart_at.items() if now >= at
        ]:
            del self._replica_restart_at[key]
            replica = self.replica_of(*key)
            if replica is not None:
                replica.restart()
        if self._heal_at is not None and now >= self._heal_at:
            self._heal_at = None
            self.network.heal()
        if (
            self.config.partition_primary_after_commits is not None
            and not self._primary_partition_fired
        ):
            shard_idx, commits = self.config.partition_primary_after_commits
            if self.commit_count >= commits:
                # Isolate the primary alone: its backups keep serving reads
                # at whatever offset they reached — the stale-replica case.
                self._primary_partition_fired = True
                self.network.set_partition((self.shards[shard_idx].name,))
                self._heal_at = now + self.config.heal_after
        if self._stress_crash is not None and not self._stress_crash_fired:
            after, delay = self._stress_crash
            if self.commit_count >= after and self.shards[0].up:
                self._stress_crash_fired = True
                self.shards[0].crash()
                self._restart_at[0] = now + delay
        cfg = self.config
        if cfg.crash_shard_after_prepares is not None and not self._crash_fired:
            idx, count = cfg.crash_shard_after_prepares
            if self.shards[idx].prepare_count >= count and self.shards[idx].up:
                self._crash_fired = True
                self.shards[idx].crash()
                self._restart_at[idx] = now + cfg.shard_restart_delay
        if (
            cfg.partition_coordinator_after_prepares is not None
            and not self._partition_fired
            and self.coordinator.prepares_sent
            >= cfg.partition_coordinator_after_prepares
        ):
            self._partition_fired = True
            self.network.set_partition((self.coordinator.name,))
            self._heal_at = now + cfg.heal_after
        while (
            self._map_changes
            and self.commit_count >= self._map_changes[0].after_commits
        ):
            if not self._apply_map_change(self._map_changes[0]):
                break  # affected shard not quiescent yet; retry next tick
            self._map_changes.pop(0)

    @property
    def next_wake(self) -> Optional[int]:
        """The next tick the fault schedule needs attention at (drivers use
        this for idle jumps)."""
        due = list(self._restart_at.values())
        if self._heal_at is not None:
            due.append(self._heal_at)
        return min(due) if due else None

    def settle(self) -> None:
        """End-of-run: bring back any shard still waiting out its restart
        delay, heal any scheduled partition (mirrors the single-server
        driver's final restart), then run the network until every in-flight
        two-phase commit resolves — a prepared transaction left in doubt
        would leave the merged history non-atomic (committed on one shard,
        unfinished on another)."""
        for idx in sorted(self._restart_at):
            self.shards[idx].restart()
        self._restart_at.clear()
        for key in sorted(self._replica_restart_at):
            replica = self.replica_of(*key)
            if replica is not None:
                replica.restart()
        self._replica_restart_at.clear()
        if self._heal_at is not None:
            self._heal_at = None
            self.network.heal()
        start = self.network.now
        while self.coordinator.pending:
            if self.network.now - start > 100_000:
                raise RuntimeError(
                    f"{self.coordinator.pending} two-phase commits failed "
                    "to settle after the run (coordinator stuck?)"
                )
            if not self.network.drain_due():
                self.network.advance(1)

    # -- reconfiguration ------------------------------------------------

    def _quiescent(self, shard: ShardServer, *, allow_prepared: bool) -> bool:
        if not shard.up:
            return False
        for sess in shard._sessions.values():
            if sess.txn is None or sess.txn.state is not TxnState.ACTIVE:
                continue
            if allow_prepared and sess.txn.tid in shard._prepared:
                continue
            return False
        if shard._prepared and not allow_prepared:
            return False
        return True

    def _apply_map_change(self, change) -> bool:
        if change.kind == "migrate":
            return self._migrate_slot(change.slot, change.to_shard)
        if change.kind == "promote":
            return self._promote(change.shard, change.replica)
        return self._replace_shard(change.shard)

    def _migrate_slot(self, slot: int, to_shard: int) -> bool:
        src = self.shards[self._index_of(self.shard_map.assignment[slot])]
        dest = self.shards[to_shard]
        if src is dest:
            self.shard_map.migrate(slot, dest.name)
            return True
        # Only move a slot between quiescent endpoints: no transaction is
        # mid-flight over the keys being rehomed (in-doubt prepared state
        # included), so the copied committed state is a consistent cut.
        if not (
            self._quiescent(src, allow_prepared=False) and dest.up
        ):
            return False
        store = src.db.scheduler.store
        writes = []
        for obj in store.objects():
            if self.shard_map.slot_of(_route_key(obj)) != slot:
                continue
            stored = store.latest(obj)
            if stored is not None:
                writes.append((stored.version, stored.value, stored.dead))
        if writes:
            # Install the existing Version objects verbatim (scheduler.redo)
            # — no new history events, so the merged history is untouched by
            # where the data physically lives.
            dest.db.scheduler.redo(writes)
            for version, _value, _dead in writes:
                dest.db._note_existing(version.obj)
        for rel, count in src.db._obj_counters.items():
            if self.shard_map.slot_of(rel) == slot:
                dest.db._obj_counters[rel] = max(
                    dest.db._obj_counters.get(rel, 0), count
                )
        # Future install keys at the destination must sort after every key
        # the source ever issued for these objects.
        dest.recorder.position_base = max(
            dest.recorder.position_base,
            src.recorder.position_base + len(src.recorder.events),
        )
        version = self.shard_map.migrate(slot, dest.name)
        if self.tracer is not None:
            self.tracer.event(
                "cluster.migrate",
                slot=slot,
                src=src.name,
                dest=dest.name,
                objects=len(writes),
                map_version=version,
            )
        return True

    def _replace_shard(self, index: int) -> bool:
        old = self.shards[index]
        # Prepared (in-doubt) transactions may ride through a replacement:
        # their redo records are durable and shared with the new endpoint.
        if not self._quiescent(old, allow_prepared=True):
            return False
        self.network.down(old.name)
        self.network.flush(old.name)
        old.up = False
        self._retired.append(old)
        self._replacements += 1
        new_name = f"shard{index}r{self._replacements}"
        new = ShardServer(
            self, index, self.network, self.scheduler_config,
            name=new_name, initial=None, recover_from=old.recorder,
        )
        new.monitor = self.analysis
        self.shards[index] = new
        version = self.shard_map.replace(old.name, new_name)
        if self.tracer is not None:
            self.tracer.event(
                "cluster.replace",
                shard=index,
                old=old.name,
                new=new_name,
                map_version=version,
            )
        return True

    def _promote(self, index: int, ordinal: int) -> bool:
        """Promote a backup to primary: drain the old primary's remaining
        log suffix into the backup in-process (a controlled failover hands
        over, it does not lose the tail), retire the old endpoint, and
        stand up a fresh :class:`ShardServer` *on the backup's durable WAL
        copy* under the backup's name — clients re-route via the map, the
        surviving backups keep catching up from the new primary."""
        old = self.shards[index]
        backup = self.replica_of(index, ordinal)
        if (
            backup is None
            or not backup.up
            or not self._quiescent(old, allow_prepared=True)
        ):
            return False
        for entry in (old.recorder.repl_log or [])[backup.applied:]:
            backup.apply(entry)
        self.network.down(old.name)
        self.network.flush(old.name)
        old.up = False
        self._retired.append(old)
        self._replacements += 1
        # Future install keys from the promoted log must sort after every
        # key the retired primary ever issued.
        backup.wal.rebase(
            old.recorder._install_counter, old.recorder.position_base
        )
        backup.retire()
        self.replicas[index][ordinal] = None
        new = ShardServer(
            self, index, self.network, self.scheduler_config,
            name=backup.name, initial=None, recover_from=backup.wal,
        )
        new.monitor = self.analysis
        if self.certifier is not None:
            # Direct assignment, NOT attach_monitor: the primary's copies of
            # these events already fed the certifier — a replay would feed
            # every event twice.
            backup.wal.monitor = _ShardFeed(self.certifier, index)
        self.shards[index] = new
        version = self.shard_map.replace(old.name, backup.name)
        self._arm_replication(new)
        if self.tracer is not None:
            self.tracer.event(
                "cluster.promote",
                shard=index,
                replica=ordinal,
                old=old.name,
                new=backup.name,
                map_version=version,
            )
        return True

    # ------------------------------------------------------------------
    # aggregated facade (the single-Server surface, cluster-wide)
    # ------------------------------------------------------------------

    @property
    def up(self) -> bool:
        return all(shard.up for shard in self.shards)

    @property
    def commit_count(self) -> int:
        """Committed application transactions cluster-wide (loader
        excluded), counted once each regardless of participant count."""
        return len(self.state.committed) - 1

    @property
    def crashes(self) -> int:
        return sum(s.crashes for s in self.shards) + sum(
            s.crashes for s in self._retired
        )

    @property
    def restarts(self) -> int:
        return sum(s.restarts for s in self.shards) + sum(
            s.restarts for s in self._retired
        )

    @property
    def deadlock_victims(self) -> int:
        return sum(s.deadlock_victims for s in self.shards) + sum(
            s.deadlock_victims for s in self._retired
        )

    @property
    def counters(self) -> Dict[str, int]:
        out = {"requests": 0, "dedup_hits": 0, "busy": 0, "shed": 0}
        for shard in list(self._retired) + list(self.shards):
            for key, value in shard.counters.items():
                out[key] = out.get(key, 0) + value
        if self.config.replicas:
            for key in ("serves", "lagging", "applied", "dedup_hits"):
                out[f"replica_{key}"] = sum(
                    r.counters[key] for r in self._all_replicas
                )
        return out

    @property
    def declared(self) -> Dict[int, Optional[IsolationLevel]]:
        return {gid: meta.declared for gid, meta in self.state.meta.items()}

    @property
    def certified(self) -> Dict[int, bool]:
        merged: Dict[int, bool] = {}
        for shard in self.shards:
            merged.update(shard.certified)
        merged.update(self._certified)
        return merged

    @property
    def certification_lag(self) -> int:
        return sum(s.certification_lag for s in self.shards)

    # -- observability snapshots (read-only; never touch cluster state) --

    def shard_certification_lags(self) -> Dict[int, int]:
        """Per-shard batched-certification backlog (shard index → lag)."""
        return {s.index: s.certification_lag for s in self.shards}

    def shard_queue_depths(self) -> Dict[int, int]:
        """Per-shard count of queued network messages addressed to the
        shard's current endpoint (in-flight load, not yet delivered)."""
        by_name = {s.name: s.index for s in self.shards}
        depths = {s.index: 0 for s in self.shards}
        for message in self.network._queue:
            idx = by_name.get(message[3])
            if idx is not None:
                depths[idx] += 1
        return depths

    def replica_lags(self) -> Dict[Tuple[int, int], int]:
        """(shard, replica ordinal) → log entries the backup trails its
        primary by, measured against live applied offsets (promoted-away
        slots are omitted)."""
        lags: Dict[Tuple[int, int], int] = {}
        for shard in self.shards:
            log_len = len(shard.recorder.repl_log or ())
            for j in range(self.config.replicas):
                replica = self.replica_of(shard.index, j)
                if replica is not None:
                    lags[(shard.index, j)] = max(log_len - replica.applied, 0)
        return lags

    @property
    def in_doubt(self) -> int:
        """Cross-shard transactions whose 2PC is still in flight."""
        return self.coordinator.pending

    def flush_certification(self) -> Dict[int, Optional[bool]]:
        verdicts: Dict[int, Optional[bool]] = {}
        for shard in self.shards:
            verdicts.update(shard.flush_certification())
        return verdicts

    @property
    def repair_suggestions(self) -> List[Dict[str, Any]]:
        return [s for shard in self.shards for s in shard.repair_suggestions]

    @property
    def downgrades(self) -> List[Dict[str, Any]]:
        return [d for shard in self.shards for d in shard.downgrades]

    @property
    def monitor(self):
        return self.analysis

    # ------------------------------------------------------------------
    # the merged global history
    # ------------------------------------------------------------------

    def history(self, *, validate: bool = True) -> History:
        """The cluster's execution as *one* Adya history.

        Per-shard durable logs merge on the network tick each event was
        recorded at (ties broken by shard index, then log position).
        Begins dedup to the first copy; a cross-shard transaction's final
        event keeps its *last* copy (the commit/abort is globally complete
        only once every participant applied).  Version orders concatenate
        per object — install keys are globally monotone per object (see
        ``HistoryRecorder.position_base``), so a plain sort reconstructs
        the true install order even across migrations.  With one shard
        this is exactly the shard's own history, byte for byte.
        """
        replica_reads = [
            (r.read_ticks[li], len(self.shards) + fi, li, ev)
            for fi, r in enumerate(self._all_replicas)
            for li, ev in enumerate(r.reads.events)
        ]
        if len(self.shards) == 1 and not replica_reads:
            return self.shards[0].recorder.history(validate=validate)
        entries = []
        for shard in self.shards:
            ticks = self._event_ticks[shard.index]
            for li, ev in enumerate(shard.recorder.events):
                tick = ticks[li] if li < len(ticks) else self.network.now
                entries.append((tick, shard.index, li, ev))
        # Replica-served reads merge with their true version provenance at
        # the tick they were served — the lagging-snapshot observations the
        # global analysis certifies PL-SI / session levels over.
        entries.extend(replica_reads)
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        final_kind: Dict[int, type] = {}
        final_key: Dict[int, Tuple[int, int, int]] = {}
        for tick, si, li, ev in entries:
            if isinstance(ev, (Commit, Abort)):
                kind = type(ev)
                seen = final_kind.get(ev.tid)
                if seen is not None and seen is not kind:
                    raise ValueError(
                        f"T{ev.tid} both committed and aborted across shards "
                        "(2PC atomicity violation)"
                    )
                final_kind[ev.tid] = kind
                final_key[ev.tid] = (tick, si, li)
        events = []
        begun: Set[int] = set()
        for tick, si, li, ev in entries:
            if isinstance(ev, Begin):
                if ev.tid in begun:
                    continue
                begun.add(ev.tid)
            elif isinstance(ev, (Commit, Abort)):
                if (tick, si, li) != final_key[ev.tid]:
                    continue
            events.append(ev)
        chains: Dict[str, List[tuple]] = {}
        for shard in self.shards:
            for obj, ents in shard.recorder._install.items():
                chains.setdefault(obj, []).extend(ents)
        order = {
            obj: [v for _k, v in sorted(ents, key=lambda e: e[0])]
            for obj, ents in chains.items()
        }
        return History(
            events, order, auto_complete=True, validate=validate
        )

    def __repr__(self) -> str:
        return (
            f"<Cluster shards={len(self.shards)} map=v{self.shard_map.version} "
            f"commits={self.commit_count} pending_2pc={self.coordinator.pending}>"
        )


def connect_cluster(
    scheduler: SchedulerConfig | str = "locking",
    *,
    cluster: Optional[ClusterConfig] = None,
    network: Optional[NetworkConfig | SimulatedNetwork] = None,
    initial: Optional[Dict[str, Any]] = None,
    monitor: Optional[object] = None,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
    admission: Optional[AdmissionConfig] = None,
) -> Cluster:
    """Open a sharded cluster (the cluster-shaped :func:`repro.connect`).

    ``scheduler`` names the engine under every shard; ``cluster`` shapes
    the topology and fault schedule (:class:`ClusterConfig`); ``network``
    is either a :class:`~repro.service.config.NetworkConfig` (a fresh
    simulated network is built) or an existing
    :class:`~repro.service.network.SimulatedNetwork` to share.  Returns a
    :class:`Cluster`; open sessions with :meth:`Cluster.client`.
    """
    net = (
        network
        if isinstance(network, SimulatedNetwork)
        else SimulatedNetwork(network, metrics=metrics, tracer=tracer)
    )
    return Cluster(
        net,
        scheduler,
        config=cluster,
        initial=initial,
        monitor=monitor,
        metrics=metrics,
        tracer=tracer,
        admission=admission,
    )
