"""Primary/backup shard replication with session-guarantee watermarks.

Each shard's primary keeps a shippable copy of its durable WAL (the
:attr:`~repro.engine.recorder.HistoryRecorder.repl_log`) and pumps the
unacknowledged suffix to K :class:`ReplicaServer` backups over the same
:class:`~repro.service.network.SimulatedNetwork` the clients use.  The
stream is *seeded-lag, lossless-in-order*: each batch travels on a
fault-free timer with a delay drawn from a dedicated per-shard RNG, so
replication never perturbs the client traffic's fault schedule — but
batches still respect crashes and partitions (delivery checks both
endpoints), which is how a partitioned primary leaves its backups
serving stale state.

A backup applies entries in log order into its own durable recorder copy
and a volatile value table, acknowledges its applied offset, and serves
plain (non-locking) reads at whatever offset it has reached.  Every read
reply carries ``(shard, offset)`` — the provenance a
:class:`SessionVector` needs to enforce (or witness violations of) the
Bayou session guarantees; see
:class:`~repro.service.config.SessionGuarantees`.

Offsets are *prefix lengths* of the primary WAL: backup state at offset
``n`` is exactly the primary's first ``n`` events applied, so "replica A
is fresher than what this session saw" is the integer comparison
``applied >= watermark``.  The same abstraction expresses the mobile
engine's disconnected operation (:mod:`repro.engine.mobile`): a
tentative transaction's ``base_seq`` is a one-shard session vector.

Served reads are recorded in a separate observability recorder (not the
applied WAL copy) with their true version provenance, and merge into the
cluster's global history — the lagging-snapshot reads are exactly what
the global :class:`~repro.core.incremental.IncrementalAnalysis` then
certifies PL-SI / session levels over.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine.recorder import HistoryRecorder
from .network import SimulatedNetwork
from .server import _ReplyCache

__all__ = ["ReplicaServer", "SessionVector"]


class SessionVector:
    """A per-key watermark vector (key → replication-log offset).

    The client-side half of the session-guarantee protocol: ``observe``
    folds in offsets learned from replies, ``covers`` asks whether an
    offered offset satisfies the recorded floor.  Keys are opaque —
    shard indices for the cluster, a server name for the mobile engine.
    """

    __slots__ = ("offsets",)

    def __init__(self, offsets: Optional[Dict[Any, int]] = None) -> None:
        self.offsets: Dict[Any, int] = dict(offsets or {})

    def get(self, key: Any) -> int:
        """The floor recorded for ``key`` (0 when nothing observed)."""
        return self.offsets.get(key, 0)

    def observe(self, key: Any, offset: int) -> bool:
        """Fold in one observed offset; returns True if the floor rose."""
        if offset > self.offsets.get(key, 0):
            self.offsets[key] = offset
            return True
        return False

    def merge(self, other: "SessionVector | Dict[Any, int]") -> None:
        items = other.offsets if isinstance(other, SessionVector) else other
        for key, offset in items.items():
            self.observe(key, offset)

    def covers(self, key: Any, offset: int) -> bool:
        """Whether state at ``offset`` is at least as fresh as the floor."""
        return offset >= self.get(key)

    def copy(self) -> "SessionVector":
        return SessionVector(self.offsets)

    def as_dict(self) -> Dict[Any, int]:
        return dict(self.offsets)

    def __repr__(self) -> str:
        inner = ",".join(f"{k}:{v}" for k, v in sorted(self.offsets.items()))
        return f"<SessionVector {inner or 'empty'}>"


class ReplicaServer:
    """One shard backup: applies the primary's replication stream, serves
    plain reads at its applied offset.

    Durable state is the applied WAL copy (``wal``); the value table it
    serves from is volatile and rebuilt from the WAL on restart, so a
    crash mid-catch-up resumes from the durable applied offset — exactly
    like the primary's own recovery.  Reads it serves are recorded (with
    the stored version's true provenance) into a separate ``reads``
    recorder that merges into the cluster's global history.
    """

    def __init__(self, cluster, slot, ordinal: int, *, name: str) -> None:
        self.cluster = cluster
        #: The shard's :class:`~repro.service.shard.ShardSlot`: the current
        #: primary and the read-reply cache the replica group shares.
        self.slot = slot
        self.shard_index = slot.index
        self.ordinal = ordinal
        self.network: SimulatedNetwork = cluster.network
        self.name = name
        self.up = True
        #: Set once promoted: the endpoint name now belongs to a primary.
        self.retired = False
        #: Called after every entry applied off the replication stream (the
        #: fault schedule polls its crash-mid-catch-up trigger here).
        self.after_apply: Optional[Callable[[], None]] = None
        self.crashes = 0
        self.restarts = 0
        #: Durable applied prefix of the primary WAL (its own repl_log is
        #: kept live so a promoted backup can ship to its new peers and a
        #: restart can replay values without re-deriving commit installs).
        self.wal = HistoryRecorder()
        self.wal.enable_replication()
        #: Reads this backup served, merged into the global history.
        self.reads = HistoryRecorder()
        #: Network tick per served read (parallel to ``reads.events``).
        self.read_ticks: List[int] = []
        # Volatile serving state, lost on crash:
        #: obj -> (version, value, dead) of the latest applied commit.
        self._values: Dict[str, Tuple[Any, Any, bool]] = {}
        #: tid -> {obj: (version, value, dead)} of applied-but-uncommitted
        #: writes (the replay scratchpad).
        self._pending: Dict[int, Dict[str, Tuple[Any, Any, bool]]] = {}
        self.counters = {
            "serves": 0, "lagging": 0, "applied": 0, "dedup_hits": 0,
        }
        #: This backup's ``service_replication_applied_total`` series,
        #: bound at the first applied batch.
        self._applied_counter: Optional[object] = None
        self.network.register_handler(name, self.handle)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def applied(self) -> int:
        """Replication-log entries applied (the backup's offset)."""
        return len(self.wal.events)

    @property
    def lag(self) -> int:
        """Log entries this backup trails its primary's durable log by."""
        log = self.slot.primary.recorder.repl_log or ()
        return max(len(log) - self.applied, 0)

    def _apply_values(self, entry: tuple) -> None:
        """Fold one log entry into the volatile value table."""
        ev, finals, _keys = entry
        kind = type(ev).__name__
        if kind == "Write":
            self._pending.setdefault(ev.tid, {})[ev.version.obj] = (
                ev.version, ev.value, ev.dead
            )
        elif kind == "Commit":
            staged = self._pending.pop(ev.tid, {})
            for obj, version in (finals or {}).items():
                _v, value, dead = staged.get(obj, (version, None, False))
                self._values[obj] = (version, value, dead)
        elif kind == "Abort":
            self._pending.pop(ev.tid, None)

    def apply(self, entry: tuple) -> None:
        """Apply one in-order replication-log entry (durable + volatile)."""
        self.wal.apply_entry(entry)
        self._apply_values(entry)
        self.counters["applied"] += 1

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the process: volatile value table and in-flight messages
        go, the durable WAL copy (and its applied offset) stays."""
        if not self.up:
            return
        self.crashes += 1
        self.up = False
        self._values.clear()
        self._pending.clear()
        self.network.down(self.name)
        self.network.flush(self.name)
        if self.cluster.tracer is not None:
            self.cluster.tracer.event(
                "replica.crash", shard=self.shard_index, replica=self.ordinal,
                applied=self.applied,
            )

    def restart(self) -> None:
        """Come back from the durable WAL copy: rebuild the value table by
        replaying the applied prefix, then resume catching up from the
        durable offset (the primary keeps re-shipping past our last ack)."""
        if self.up:
            return
        self.restarts += 1
        for entry in self.wal.repl_log or ():
            self._apply_values(entry)
        self.up = True
        self.network.up(self.name)

    def retire(self) -> None:
        """Stop serving as a backup (the endpoint is being promoted: a new
        :class:`~repro.service.cluster.ShardServer` takes over the name)."""
        self.up = False
        self.retired = True

    # ------------------------------------------------------------------
    # network entry point
    # ------------------------------------------------------------------

    def handle(
        self, payload: Dict[str, Any], src: str
    ) -> Optional[Dict[str, Any]]:
        kind = payload.get("kind")
        if kind == "repl":
            self._on_replicate(payload)
            return None
        if kind == "read":
            return self._on_read(payload)
        if kind == "ping":
            return {"ok": True, "rid": payload.get("rid"),
                    "shard": self.shard_index, "offset": self.applied}
        return {"error": "bad-request", "rid": payload.get("rid"),
                "reason": f"replica cannot serve {kind!r}"}

    def _on_replicate(self, payload: Dict[str, Any]) -> None:
        """Apply a shipped batch idempotently: entries below our applied
        offset are duplicates (re-pumped suffix), entries beyond a gap
        wait for the re-ship; either way we ack our true offset so the
        primary advances (or rewinds) its view of us."""
        start = payload["from"]
        entries = payload["entries"]
        from_offset = self.applied
        applied_tids: List[int] = []
        for pos, entry in enumerate(entries, start=start):
            if pos < self.applied:
                continue
            if pos > self.applied:
                break  # gap: a lost earlier batch; the pump re-ships
            self.apply(entry)
            applied_tids.append(entry[0].tid)
            if self.after_apply is not None:
                self.after_apply()
            if not self.up:
                # Crashed mid-catch-up: no ack, state is durable.
                self._trace_apply(from_offset, applied_tids)
                return
        self._trace_apply(from_offset, applied_tids)
        self.network.timer(
            payload["primary"],
            {
                "kind": "repl-ack",
                "shard": self.shard_index,
                "replica": self.ordinal,
                "applied": self.applied,
            },
            delay=1,
            src=self.name,
        )

    def _trace_apply(self, from_offset: int, tids: List[int]) -> None:
        """Observation only: a ``repl.apply`` span per batch that advanced
        this backup, plus the per-(shard, replica) applied counter."""
        if not tids:
            return  # pure duplicate re-ship: nothing advanced
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.span(
                "repl.apply",
                stack=False,
                shard=self.shard_index,
                replica=self.ordinal,
                offset=from_offset,
                applied=self.applied,
                count=self.applied - from_offset,
                tids=sorted(set(tids)),
            ).end()
        metrics = self.cluster.metrics
        if metrics is not None:
            if self._applied_counter is None:
                self._applied_counter = metrics.counter(
                    "service_replication_applied_total",
                    "replication-log entries applied at backups",
                ).labels(shard=self.shard_index, replica=self.ordinal)
            self._applied_counter.inc(self.applied - from_offset)

    # ------------------------------------------------------------------
    # serving reads
    # ------------------------------------------------------------------

    def _on_read(self, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        session = payload["session"]
        rid = payload["rid"]
        ctx = payload.get("trace")
        cache = self.slot.read_replies
        sess = cache.get(session)
        if sess is None:
            sess = cache[session] = _ReadSession()
        acked = payload.get("acked")
        if acked is not None and acked > sess.acked:
            sess.acked = acked
            if acked >= sess.oldest_reply:
                sess.prune(acked)
        cached = sess.replies.get(rid)
        if cached is not None:
            # Duplicate delivery: re-send the cached reply carrying the
            # *original* request's trace context (``setdefault``, exactly
            # like ``Server.handle``), so the retransmitted reply's
            # ``net.msg`` span still parents under the request that first
            # produced it.
            self.counters["dedup_hits"] += 1
            if ctx is not None:
                cached.setdefault("trace", ctx)
            return cached
        if rid <= sess.acked:
            return self._reply(ctx, {"error": "stale", "rid": rid})
        obj = payload["obj"]
        owner = self.cluster.shard_map.owner(route_key(obj))
        if owner != self.slot.primary.name:
            return self._reply(ctx, {
                "error": "moved",
                "owner": owner,
                "map_version": self.cluster.shard_map.version,
                "rid": rid,
            })
        floor = payload.get("min_offset")
        stored = self._values.get(obj)
        if stored is None or (floor is not None and self.applied < floor):
            # Behind the session's watermark (or the object has not
            # replicated here at all): the client decides — wait for
            # catch-up, redirect to the primary, or (weak levels) it never
            # sent a floor and reads stale by choice.
            self.counters["lagging"] += 1
            return self._reply(ctx, {
                "error": "lagging",
                "rid": rid,
                "applied": self.applied,
                "required": floor if stored is not None else self.applied + 1,
                "missing": stored is None,
            })
        version, value, dead = stored
        tid = payload.get("tid")
        if tid is not None:
            self.reads.read(tid, version, value=value)
            self.read_ticks.append(self.network.now)
        self.counters["serves"] += 1
        metrics = self.cluster.metrics
        if metrics is not None and self.lag > 0:
            metrics.counter(
                "service_stale_reads",
                "replica reads served behind the primary's durable log",
            ).inc(shard=self.shard_index, replica=self.ordinal)
        reply = {
            "ok": True,
            "rid": rid,
            "value": None if dead else value,
            "shard": self.shard_index,
            "offset": self.applied,
        }
        sess.remember(rid, reply)
        return self._reply(ctx, reply)

    @staticmethod
    def _reply(
        ctx: Optional[Dict[str, Any]], reply: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Echo the request's trace context on a freshly built reply (so
        the reply's ``net.msg`` span parents under the request span)."""
        if ctx is not None:
            reply.setdefault("trace", ctx)
        return reply

    def __repr__(self) -> str:
        return (
            f"<ReplicaServer {self.name} applied={self.applied} "
            f"up={self.up}>"
        )


class _ReadSession(_ReplyCache):
    """A client session's read-reply cache at one shard's replica group."""

    __slots__ = ("acked",)

    def __init__(self) -> None:
        super().__init__()
        #: Highest ``acked`` watermark seen — the stale guard: a late
        #: duplicate of an acknowledged read is not served again.
        self.acked = -1


def route_key(obj: str) -> str:
    """The string a keyed operation routes by: the relation for namespaced
    objects (``"emp:3"`` → ``"emp"``), the object itself for bare keys."""
    rel, sep, _ = obj.partition(":")
    return rel if sep else obj
