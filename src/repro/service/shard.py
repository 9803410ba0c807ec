"""One shard of the cluster: the slot that persists, the server that serves.

A shard index is served by a succession of endpoints (the first
:class:`ShardServer`, then a fresh process on the same WAL or a promoted
backup); what must outlive any one of them lives in the index's
:class:`ShardSlot`.

* **Lazy joins**: a transaction begins at its session's home shard; the
  first operation routed to another shard joins it there under the same
  global tid (reads at secondary shards therefore see per-shard views —
  the global certifier is exactly the machinery that catches any anomaly
  this distribution-level weakening admits).
* **2PC with WAL-backed prepares**: ``prepare`` snapshots a transaction's
  final writes into durable per-shard prepared state; a shard crash
  between prepare and commit recovers by *redoing* the prepared writes
  when the (retransmitted) decision arrives.  Objects touched by a
  prepared-but-in-doubt transaction are fenced: a request for one is
  parked behind the in-doubt transaction like behind any lock holder
  (``busy`` notice now, the final reply pushed when the decision lands).
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List, Optional

from ..engine.transaction import TxnState
from .replication import ReplicaServer, _ReadSession, route_key as _route_key
from .server import Server

__all__ = ["ShardServer", "ShardSlot"]


class ShardSlot:
    """What outlives an endpoint incarnation of one shard index."""

    def __init__(self, index: int, replicas: int, seed: int) -> None:
        self.index = index
        #: Durable (WAL-backed) prepared state: gid -> redo snapshot.
        self.prepared: Dict[int, dict] = {}
        #: Network tick of every event in the slot's WAL, parallel to
        #: ``recorder.events`` (the merged history sorts by these).
        self.event_ticks: List[int] = []
        #: Every endpoint that has served the slot, oldest first; the last
        #: one is the current primary.
        self.incarnations: List["ShardServer"] = []
        #: The backups by ordinal (a promoted one stays listed, retired:
        #: the merged history still carries the reads it served).
        self.replicas: List[ReplicaServer] = []
        #: Highest log offset each backup acknowledged.
        self.acked: List[int] = [0] * replicas
        #: Replication-lag RNG, seeded off the network seed — independent
        #: of the fault RNG, so replicated and unreplicated runs share the
        #: client traffic's exact fault schedule.
        self.lag_rng = random.Random(
            zlib.crc32(f"repl:{index}:{seed}".encode())
        )
        #: Certification state — the backlog batched by ``certify_every``,
        #: declared levels, verdicts and the reactions to failed ones — so
        #: a replacement flushes what its predecessor left pending.
        self.pending_certify: List[int] = []
        self.declared: Dict[int, Any] = {}
        self.certified: Dict[int, bool] = {}
        self.repair_suggestions: List[Dict[str, Any]] = []
        self.downgrades: List[Dict[str, Any]] = []
        #: Read-reply cache shared by the whole replica group (at-most-once
        #: across it: a retry landing on a different backup — or the new
        #: primary after a promote — still dedups).
        self.read_replies: Dict[str, _ReadSession] = {}

    @property
    def primary(self) -> "ShardServer":
        return self.incarnations[-1]

    def backup(self, ordinal: int) -> Optional[ReplicaServer]:
        """The backup at ``ordinal``, or None once promoted away."""
        replica = self.replicas[ordinal]
        return None if replica.retired else replica


class ShardServer(Server):
    """One shard: a full :class:`Server` plus cluster mechanics — ownership
    checks (``moved``), lazy cross-shard joins, the 2PC participant verbs
    (``prepare``/``decide``) with WAL-backed prepared state, and fencing of
    in-doubt objects after a crash."""

    #: 2PC verbs re-execute even when their rid was outrun by later traffic
    #: on the coordinator's multiplexed session (both are idempotent).
    _replayable_kinds = frozenset({"prepare", "decide"})

    def __init__(
        self, cluster, slot: ShardSlot, *, name: str,
        initial: Optional[Dict[str, Any]] = None, recover_from: Optional[object] = None,
    ) -> None:
        self._cluster = cluster
        self.slot = slot
        self.index = slot.index
        # The slot's prepared records and event ticks are bound once here:
        # the request path reads them without a hop through the slot.
        self._prepared = slot.prepared
        self.event_ticks = slot.event_ticks
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
        super().__init__(
            cluster.network, cluster.scheduler_config, name=name,
            initial=initial, recover_from=recover_from,
            monitor=None,  # the recorder feeds the global certifier instead
            metrics=cluster.metrics, tracer=cluster.tracer,
            admission=cluster.admission,
            tid_allocator=cluster.state.allocate_tid,
        )
        self.monitor = cluster.analysis  # base _certify consults it
        self._waits = cluster._waits  # one graph: the union of every shard's parks
        self._pending_certify = slot.pending_certify
        self.declared = slot.declared
        self.certified = slot.certified
        self.repair_suggestions = slot.repair_suggestions
        self.downgrades = slot.downgrades
        slot.incarnations.append(self)
        self.note_event_ticks()

    # ------------------------------------------------------------------
    # event-tick bookkeeping (merged-history ordering)
    # ------------------------------------------------------------------

    def note_event_ticks(self) -> None:
        ticks, n = self.event_ticks, len(self.recorder)
        while len(ticks) < n:
            ticks.append(self.network.now)

    def handle(self, request, src):
        kind = request.get("kind")
        if kind in ("repl-pump", "repl-ack"):
            if self.up:
                self._handle_replication(kind, request)
            return None
        reply = super().handle(request, src)
        self.note_event_ticks()
        return reply

    # ------------------------------------------------------------------
    # primary-side replication (log shipping)
    # ------------------------------------------------------------------

    def _handle_replication(self, kind, request) -> None:
        slot = self.slot
        if kind == "repl-ack":
            acked = slot.acked
            j = request["replica"]
            acked[j] = max(acked[j], request["applied"])
            self._note_repl_lag(j, acked[j])
            return
        # "repl-pump": ship the unacknowledged WAL suffix to each backup
        # with a seeded lag draw, then re-arm the pump.  Timer-based and
        # fault-free, so replication never perturbs the client traffic's
        # fault schedule; the periodic re-ship doubles as retransmission
        # for batches lost to a backup crash or a partition.
        cfg = self._cluster.config
        recorder = self.recorder
        rng = slot.lag_rng
        lag_min, lag_max = cfg.replication_lag
        shipped = None
        for j, acked in enumerate(slot.acked):
            replica = slot.backup(j)
            if replica is None or acked >= len(recorder):
                continue
            lag = rng.randint(lag_min, lag_max)
            if shipped is None:
                # One build per pump, from the furthest-behind backup on and
                # sliced for each, so the backups share the entry objects.
                start = min(
                    a for k, a in enumerate(slot.acked)
                    if slot.backup(k) is not None
                )
                shipped = recorder._shipped(start)
            entries = shipped[acked - start:]
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
        gauge.set(max(len(self.recorder) - acked, 0))

    def restart(self) -> None:
        if self.up:
            return
        super().restart()
        # The pump timer chain died with the crash (self-timers are
        # flushed); re-arm it so the backups keep catching up.
        self.arm_replication()

    def arm_replication(self) -> None:
        """Start (or re-start, after a primary crash) the pump timer chain;
        idempotent per arm-point because each pump re-arms exactly one
        successor.  Nothing is kept for the backups beside the recorder's
        rows: each pump reads the unacknowledged suffix off them."""
        cfg = self._cluster.config
        if not cfg.replicas:
            return
        self.network.timer(
            self.name, {"kind": "repl-pump"}, delay=cfg.replication_every
        )

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------

    def _execute(self, kind, request, sess, span=None, src=""):
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
                fenced = self._prepared_fence(kind, request, src)
                if fenced is not None:
                    return fenced
            gid = request.get("tid")
            if gid is not None and sess.live(gid) is None:
                self._join(gid, request["session"], sess)
        txn_before = sess.txn
        reply = super()._execute(kind, request, sess, span, src)
        if (
            kind == "commit"
            and txn_before is not None
            and reply.get("ok")
            and not reply.get("recovered")
        ):
            cluster.state.note_commit(txn_before.tid)
        if cluster.config.replicas and reply.get("ok"):
            # Watermark provenance for session guarantees: reads carry the
            # primary's current offset (the freshest possible state of this
            # shard), commits the post-commit offset every participant's
            # durable log reached.
            offset = len(self.recorder)
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
            cluster.reap_orphan(prev, skip=self)
        open_txn = sess.live()
        if open_txn is not None and open_txn.tid in self._prepared:
            # The session's previous transaction is prepared: only the
            # coordinator may finish it.  Detach it so the base begin does
            # not abort it as an orphan.
            self._detached[open_txn.tid] = open_txn
            sess.txn = None
        reply = super()._do_begin(request, sess)
        gid = sess.txn.tid
        cluster.state.begin(
            gid, session, sess.txn.level, self.declared.get(gid), self.index
        )
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
            or not cluster.shards[meta.home].runs(gid, session)
        ):
            return False
        open_txn = sess.live()
        if open_txn is not None:
            if open_txn.tid in self._prepared:
                # Prepared: the coordinator finishes it (see _do_begin).
                self._detached[open_txn.tid] = open_txn
            else:
                open_txn.abort()  # stale orphan from an earlier transaction
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
        txn = sess.live(gid) if sess is not None else None
        if txn is None:
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
        # The engine transaction, if it survived: the session's own, or the
        # one detached from a session that has moved on.
        txn = sess.live(gid) if sess is not None else None
        if txn is None:
            txn = self._detached.get(gid)
        live = txn is not None and txn.state is TxnState.ACTIVE
        if span is not None:
            span.set(tid=gid, outcome=outcome)
        reply = {"ok": True}
        if outcome != "commit":
            snap = self._prepared.pop(gid, None)
            if live:
                txn.abort()
            elif snap is not None:
                self.recorder.abort(gid)  # recovery undo for the in-doubt txn
            cluster.state.dead.add(gid)
        elif gid not in self._committed_tids:
            snap = self._prepared.get(gid)
            if snap is None:
                return {
                    "error": "bad-request",
                    "reason": "decide-commit without a prepared transaction",
                }
            if live:
                txn.commit()
            else:
                # Crash between prepare and commit: the engine transaction
                # is gone, but the prepared record survived — redo its
                # writes into the store and log the commit, exactly what a
                # WAL redo pass does.
                self.db.scheduler.redo(snap["values"])
                self.recorder.commit(
                    gid, snap["finals"], positions=snap["positions"]
                )
                reply["recovered"] = True
            del self._prepared[gid]
            self.commit_count += 1
            self._committed_tids.add(gid)
            cluster.state.note_commit(gid)
        if live and sess is not None and sess.txn is txn:
            sess.txn = None
        self._detached.pop(gid, None)
        if outcome == "commit" and cluster.config.replicas:
            reply["offset"] = len(self.recorder)
        return reply

    def _prepared_fence(self, kind, request, src):
        """Fence operations on objects belonging to an in-doubt prepared
        transaction whose engine state died with a crash (while the engine
        transaction lives, its own locks do this job).  Readers block on
        the prepared write set; writers on its whole footprint.  A fenced
        request is parked behind the in-doubt transaction: the decide that
        settles it is a commit or abort in this WAL like any other."""
        obj = request["obj"]
        for gid, snap in self._prepared.items():
            sess = self._sessions.get(snap["session"])
            if sess is not None and sess.live(gid) is not None:
                continue
            if obj in snap["write_objs"] or (
                kind != "read" and obj in snap["read_objs"]
            ):
                self._park(request, src, request.get("tid"), frozenset({gid}))
                self._waits.acyclic = False  # an edge no search follows
                return {"error": "busy", "holders": [gid]}
        return None

    # ------------------------------------------------------------------
    # what the cluster asks of a shard
    # ------------------------------------------------------------------

    def runs(self, gid: int, session: str) -> bool:
        """Whether transaction ``gid`` is live here under ``session``."""
        sess = self._sessions.get(session) if self.up else None
        return sess is not None and sess.live(gid) is not None

    def reap(self, gid: int, session: str) -> bool:
        """Abort ``gid`` here if the client gave up on it while it still
        holds locks (a prepared transaction stays: its fate belongs to the
        coordinator).  Returns whether anything was aborted."""
        if not self.runs(gid, session) or gid in self._prepared:
            return False
        sess = self._sessions[session]
        sess.txn.abort()
        sess.txn = None
        self._unpark(session, "abandoned")
        self.wake()
        return True

    def wake(self) -> None:
        """A transaction was ended here from outside a delivery to this
        shard (a reaped orphan, the victim of a deadlock found at another
        shard): run what was parked behind it now, and note the tick of the
        events — in the handler that ended it, or the merged history would
        order them by a later delivery."""
        if self._parked:
            self._wake()
        self.note_event_ticks()

    def retire(self) -> None:
        """Go dark for good (the slot's next incarnation takes over): what
        is queued for this endpoint or parked at it is lost with it, and
        the clients' own deadlines re-route them."""
        self.network.down(self.name)
        self.network.flush(self.name)
        self.up = False
        self._drop_parks("lost-crash")

    def quiescent(self, *, allow_prepared: bool) -> bool:
        """Whether a map change may touch this endpoint now: it is up and
        no transaction is mid-flight on it (in-doubt prepared ones may ride
        through when ``allow_prepared``: their redo records are durable)."""
        if not self.up:
            return False
        if self._prepared and not allow_prepared:
            return False
        return all(
            txn.tid in self._prepared for txn in self._live_txns()
        )

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
        self.note_event_ticks()

    def _resolve_deadlock(self, waiter: int) -> None:
        self._cluster.resolve_deadlock(self, waiter)
