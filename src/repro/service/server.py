"""The service's server side: a :class:`~repro.engine.database.Database`
behind the simulated network.

The server is a network handler: each delivered request executes one engine
operation and returns a reply payload (which then suffers the network's
faults on the way back).  Around the engine it adds exactly the mechanisms
an unreliable boundary forces:

* **at-most-once execution** — every request carries an idempotency token
  ``(session, rid)``; final replies are cached per session, so a duplicated
  or retried request that already executed is answered from the cache
  without re-applying.
* **parked waiting** — a request that meets a lock wait
  (:class:`~repro.exceptions.WouldBlock`) stays at the server: it is
  *parked* behind the transactions holding the lock, and the client gets an
  uncached ``busy`` reply that is a notice, not a refusal — "queued behind
  ``holders``, the final reply follows".  Whenever a transaction ends here
  (its commit or abort reaches the WAL) the parked requests that waited on
  it run again, in park order; one that completes has its final reply
  cached and *pushed* through the network like any reply, one that blocks
  again stays parked in its place.  A retransmit or duplicate of a parked
  request is answered with the notice again and never runs; a later request
  of the same session means the client walked away and drops the park.  The
  parks are the waits-for graph: every (re-)park is followed by a deadlock
  search (:mod:`repro.engine.waits`) that aborts the transaction of any
  cycle whose session is youngest, and a parked victim's ``aborted`` is
  pushed like any other final reply.
* **crash/restart** — :meth:`crash` drops every volatile structure (store,
  sessions, dedup cache, parks) and records recovery-undo aborts for the
  transactions in flight; :meth:`restart` rebuilds the engine from the
  durable recorder log via :meth:`~repro.engine.database.Database.recover`.
  Committed transactions survive byte-for-byte; commit retries that cross
  the crash are recognised from the log (the reply says ``recovered``).
* **live certification** — with an online monitor attached, every commit is
  immediately checked against the transaction's declared isolation level
  (:meth:`~repro.core.incremental.IncrementalAnalysis.provides`), the
  paper's client-centric thesis machine-checked while traffic runs.
"""

from __future__ import annotations

import random
from functools import partial
from math import inf
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..core.interning import K_ABORT, K_COMMIT
from ..core.levels import IsolationLevel
from ..engine.database import Database, TransactionHandle
from ..engine.factory import SchedulerConfig, create_scheduler
from ..engine.transaction import TxnState
from ..engine.waits import WaitsFor
from ..exceptions import InvalidOperation, TransactionAborted, WouldBlock
from .client import Client
from .config import AdmissionConfig
from .network import SimulatedNetwork
from .schedule import FaultSchedule

__all__ = ["Server"]


class _ReplyCache:
    """One session's at-most-once dedup cache, pruned as the client's
    ``acked`` watermark advances (shared with the replicas' read cache)."""

    __slots__ = ("replies", "oldest_reply")

    def __init__(self) -> None:
        #: Final replies by rid.
        self.replies: Dict[int, Dict[str, Any]] = {}
        #: Lowest rid in ``replies`` (infinite when empty): a request whose
        #: ``acked`` watermark is below it has nothing to prune.
        self.oldest_reply: float = inf

    def prune(self, acked: int) -> None:
        """Forget every reply the client has acknowledged.  Callers call
        it only when ``acked >= oldest_reply``: below it there is nothing
        to forget."""
        replies = self.replies
        for old in [r for r in replies if r <= acked]:
            del replies[old]
        self.oldest_reply = min(replies, default=inf)

    def remember(self, rid: int, reply: Dict[str, Any]) -> None:
        self.replies[rid] = reply
        if rid < self.oldest_reply:
            self.oldest_reply = rid


class _Park:
    """One blocked request kept at the server until its holders end."""

    __slots__ = ("request", "src", "tid", "holders", "since", "span")

    def __init__(
        self,
        request: Dict[str, Any],
        src: str,
        tid: Optional[int],
        holders: FrozenSet[int],
        since: int,
        span: Optional[object],
    ) -> None:
        self.request = request
        #: The endpoint the final reply is pushed to.
        self.src = src
        #: The requester's own transaction: when *it* ends (deadlock victim,
        #: wound) the request runs again too, to collect its ``aborted``.
        self.tid = tid
        #: The transactions the request waits on — this session's out-edges
        #: in the waits-for graph, replaced whenever it blocks again.
        self.holders = holders
        #: Park tick, and the open ``server.wait`` span (tracing).
        self.since = since
        self.span = span


class _Session(_ReplyCache):
    """Per-client-session server state (volatile — lost on crash)."""

    __slots__ = (
        "txn", "last_rid", "first_tid",
        "pending_abort", "downgraded", "level_override",
    )

    def __init__(self) -> None:
        super().__init__()
        self.txn: Optional[TransactionHandle] = None
        #: Highest rid with a final reply — the stale guard: a
        #: delayed duplicate of an already-acked request must not
        #: re-execute after its cache entry was pruned.
        self.last_rid = -1
        #: The tid of this session's first transaction, never reset — its
        #: seniority for deadlock victim selection (the server's aging rule;
        #: :mod:`repro.engine.waits` states it beside the simulator's).
        self.first_tid: Optional[int] = None
        #: Reason the session's transaction was killed out-of-band
        #: (deadlock victim), reported on its next request.
        self.pending_abort: Optional[str] = None
        #: Set when admission control downgraded this session after a
        #: failed certification; subsequent begins declare
        #: ``level_override`` instead of the requested level.
        self.downgraded = False
        self.level_override: Optional[str] = None

    def live(self, tid: Optional[int] = None) -> Optional[TransactionHandle]:
        """The session's live transaction — its handle while that is still
        active (and, given ``tid``, is that transaction) — else ``None``."""
        txn = self.txn
        if txn is None or txn.state is not TxnState.ACTIVE:
            return None
        return txn if tid is None or txn.tid == tid else None


class Server:
    """A database server on the simulated network."""

    #: Request kinds exempt from the stale-rid guard (idempotent verbs on
    #: a session that multiplexes transactions; see ShardServer).
    _replayable_kinds: FrozenSet[str] = frozenset()
    #: Shard index carried on ``server.handle`` spans (cluster shards set
    #: it; a plain server has none).
    index: Optional[int] = None

    def __init__(
        self,
        network: SimulatedNetwork,
        config: SchedulerConfig | str = "locking",
        *,
        name: str = "server",
        initial: Optional[Dict[str, Any]] = None,
        monitor: Optional[object] = None,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
        admission: Optional[AdmissionConfig] = None,
        tid_allocator: Optional[object] = None,
        recover_from: Optional[object] = None,
    ) -> None:
        self.network = network
        self.config = (
            config
            if isinstance(config, SchedulerConfig)
            else SchedulerConfig(scheduler=config)
        )
        self.name = name
        self.monitor = monitor
        self.metrics = metrics
        self.tracer = tracer
        self.admission = admission
        #: Seeded RNG for soft-bound shed draws (admission control only;
        #: never touched when admission is off, so plain runs replay
        #: byte-identically with or without this attribute existing).
        self._admission_rng = random.Random(
            admission.seed if admission is not None else 0
        )
        self.up = True
        self.crashes = 0
        self.restarts = 0
        self.commit_count = 0
        self.deadlock_victims = 0
        self.counters = {"requests": 0, "dedup_hits": 0, "busy": 0, "shed": 0}
        #: Per-request series, bound at first use: ``service_requests_total``
        #: by verb, ``service_busy_total`` and ``service_lock_wait_ticks`` by
        #: outcome.
        self._request_counters: Dict[str, Any] = {}
        self._busy_counter: Optional[object] = None
        self._wait_histograms: Dict[str, Any] = {}
        self._sessions: Dict[str, _Session] = {}
        #: The blocked request of each waiting session, in park order (a
        #: session has one request in flight; blocking again keeps the
        #: place).  Volatile, and the waits-for graph: ``holders`` are the
        #: session's out-edges.
        self._parked: Dict[str, _Park] = {}
        #: How much of the WAL :meth:`_wake` has read for transaction ends
        #: (current while anything is parked).
        self._wal_seen = 0
        self._waking = False
        #: The search of the waits-for graph the parks here are part of
        #: (:mod:`repro.engine.waits`; a cluster's shards share one).
        self._waits = WaitsFor()
        #: Declared level per tid (for certification) and live verdicts.
        self.declared: Dict[int, Optional[IsolationLevel]] = {}
        self.certified: Dict[int, bool] = {}
        #: Committed tids awaiting a (batched) certification verdict.
        self._pending_certify: List[int] = []
        #: Session that began each tid (for downgrade-the-session).
        self._tid_session: Dict[int, str] = {}
        #: Abort-to-restore suggestions computed on failed certifications
        #: (``on_uncertified="repair"``), newest last.
        self.repair_suggestions: List[Dict[str, Any]] = []
        #: Downgrade decisions (``on_uncertified="downgrade"``), newest last.
        self.downgrades: List[Dict[str, Any]] = []
        self._committed_tids: set[int] = set()
        #: Optional shared tid source (a cluster hands every shard the same
        #: allocator so tids are globally unique); ``None`` = private counter.
        self._tid_allocator = tid_allocator
        #: The driver's fault schedule (see :meth:`schedule_crash`).
        self.faults = FaultSchedule()
        self.db: Optional[Database] = None
        self._boot(initial, recover_from)
        #: The durable WAL: survives crashes, feeds recovery.
        self.recorder = self.db.scheduler.recorder
        network.register_handler(name, self.handle)

    def _boot(
        self,
        initial: Optional[Dict[str, Any]],
        recover_from: Optional[object] = None,
    ) -> None:
        scheduler = create_scheduler(self.config)
        if self.metrics is not None or self.tracer is not None:
            scheduler.instrument(metrics=self.metrics, tracer=self.tracer)
        if recover_from is not None:
            # Recovery boot: from an existing durable log (this server's
            # own WAL on restart, a retired server's on replacement).  Any
            # online monitor is already attached to that recorder —
            # re-attaching would replay the log into it a second time, so
            # the monitor is left alone here.
            self.db = Database.recover(
                scheduler, recover_from, tid_allocator=self._tid_allocator
            )
            self._committed_tids = set(recover_from._rows().commits)
            return
        if self.monitor is not None:
            scheduler.recorder.attach_monitor(self.monitor)
        self.db = Database(scheduler, tid_allocator=self._tid_allocator)
        if initial:
            self.db.load(initial)
            self._committed_tids.add(0)

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose everything volatile.  Transactions in flight get their
        recovery-undo abort recorded in the WAL; sessions, dedup cache and
        parked requests vanish; the endpoint goes dark (in-flight messages
        to and from it are lost)."""
        if not self.up:
            return
        self.crashes += 1
        active = self._live_txns()
        if self.tracer is not None:
            self.tracer.event("server.crash", active=[txn.tid for txn in active])
        for txn in active:
            self._undo_in_flight(txn)
        self._sessions.clear()
        self._drop_parks("lost-crash")
        self.db = None
        self.up = False
        self.network.down(self.name)
        self.network.flush(self.name)
        if self.metrics is not None:
            self.metrics.counter(
                "service_server_crashes_total", "injected server crashes"
            ).inc()

    def _undo_in_flight(self, txn: TransactionHandle) -> None:
        """Crash hook: record the recovery-undo abort of one transaction
        that was active when the server went down."""
        txn.abort()

    def restart(self) -> None:
        """Recover from the WAL: a fresh scheduler, its store seeded with
        the log's committed state, attached to the same recorder (so the
        history — and any online monitor — continues seamlessly)."""
        if self.up:
            return
        self._boot(None, self.recorder)
        self.restarts += 1
        self.up = True
        self.network.up(self.name)
        if self.tracer is not None:
            self.tracer.event(
                "server.restart", committed=len(self._committed_tids)
            )

    # ------------------------------------------------------------------
    # the driver's surface (the same five members as ``Cluster``)
    # ------------------------------------------------------------------

    def client(
        self, name: str, *, policy=None, read_preference=None, guarantees=None
    ) -> Client:
        """A client session of this server (``read_preference`` and
        ``guarantees`` route replica reads: nothing to do without replicas)."""
        return Client(
            self.network, name=name, server=self.name, policy=policy,
            metrics=self.metrics, tracer=self.tracer,
        )

    def schedule_crash(self, after_commits: int, restart_delay: int) -> None:
        """Arm one crash for when the commit count reaches ``after_commits``,
        with the restart ``restart_delay`` ticks after it."""

        def crash() -> None:
            self.crash()
            self.faults.at(
                ("restart",), self.network.now + restart_delay, self.restart
            )

        self.faults.trigger(lambda: self.commit_count >= after_commits, crash)

    def tick(self) -> None:
        """Advance the fault schedule one driver step: fire the armed crash
        once its commit count is reached, restart once the delay is over (in
        the same step when the delay is zero)."""
        self.faults.fire()
        self.faults.run_due(self.network.now)

    @property
    def next_wake(self) -> Optional[int]:
        """The tick the pending restart is due at (``None`` without one)."""
        return self.faults.next_wake

    def settle(self) -> None:
        """End of run: a server still waiting out its restart delay comes
        back now."""
        self.faults.settle()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def handle(self, request: Dict[str, Any], src: str) -> Optional[Dict[str, Any]]:
        """Network delivery entry point: execute (or replay) one request.

        With a tracer attached, each delivery runs inside a ``server.handle``
        span parented under the client's request span (the envelope's trace
        context), and — being on the implicit nesting stack — every engine
        event emitted while handling (lock blocks, wounds, certification)
        nests under it without further plumbing.  The trace context is
        echoed into the reply so the reply's ``net.msg`` span parents
        correctly too.

        A delivery that ended a transaction also runs the requests parked
        behind it (:meth:`_wake`) before it returns.
        """
        if self.tracer is None:
            reply = self._handle(request, None, src)
        else:
            ctx = request.get("trace")
            attrs = self._request_attrs(request)
            attrs["verb"] = request["kind"]
            with self.tracer.span(
                "server.handle", parent=ctx.get("span") if ctx else None, **attrs
            ) as span:
                reply = self._handle(request, span, src)
                span.attrs.setdefault("outcome", reply.get("error", "ok"))
                if ctx is not None:
                    reply.setdefault("trace", ctx)
        if self._parked:
            # After this request has run and before its own reply is sent:
            # the replies of the requests it woke are pushed first.
            self._wake()
        return reply

    def _request_attrs(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """What a ``server.handle`` and a ``server.wait`` span both say
        about their request."""
        attrs: Dict[str, Any] = {
            "session": request["session"],
            "rid": request["rid"],
        }
        ctx = request.get("trace")
        if ctx:
            attrs["trace_id"] = ctx.get("id")
        # Shard servers (cluster mode) carry their shard index so the span
        # lands on the right per-shard track/ring; plain servers add nothing.
        if self.index is not None:
            attrs["shard"] = self.index
        obj = request.get("obj") or request.get("relation")
        if obj is not None:
            attrs["obj"] = obj
        return attrs

    def _handle(
        self, request: Dict[str, Any], span: Optional[object], src: str
    ) -> Dict[str, Any]:
        rid = request["rid"]
        kind = request["kind"]
        self.counters["requests"] += 1
        if self.metrics is not None:
            self._count_request(kind)
        session_id = request["session"]
        sess = self._sessions.get(session_id)
        if sess is None:
            sess = self._sessions[session_id] = _Session()
        acked = request.get("acked")
        if acked is not None and acked >= sess.oldest_reply:
            sess.prune(acked)
        cached = sess.replies.get(rid)
        if cached is not None:
            self._count_dedup()
            if span is not None:
                span.set(outcome="dedup-hit")
            return cached
        answered = sess.last_rid
        park = self._parked.get(session_id)
        if park is not None:
            parked_rid = park.request["rid"]
            if rid == parked_rid:
                # A retransmit or network duplicate of the parked request:
                # it never runs again, the notice is simply repeated.
                self._count_dedup()
                return {
                    "error": "busy", "holders": sorted(park.holders), "rid": rid,
                }
            if rid > parked_rid:
                # The client walked away from the request it had parked.
                self._unpark(session_id, "abandoned")
            else:
                answered = parked_rid  # older than what is in flight
        if rid <= answered and kind not in self._replayable_kinds:
            # A late duplicate of a request that already got its final
            # reply (cache since pruned) or was given up on: never
            # re-execute it.  Replayable kinds (a cluster's 2PC verbs,
            # idempotent by construction) are exempt: their session
            # multiplexes concurrent transactions, so rids do not arrive in
            # order and "old" is not "answered".
            self.counters["dedup_hits"] += 1
            if span is not None:
                span.set(outcome="stale")
            return {"error": "stale", "rid": rid}
        return self._settle(
            sess, rid, self._execute(kind, request, sess, span, src)
        )

    @staticmethod
    def _settle(sess: _Session, rid: int, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp ``reply`` with its rid and, if it is final, cache it.
        Busy, shed and moved replies are not: the operation has not run (a
        parked request's final reply is cached when it is pushed)."""
        reply["rid"] = rid
        if reply.get("error") not in ("busy", "shed", "moved"):
            sess.remember(rid, reply)
            sess.last_rid = max(sess.last_rid, rid)
        return reply

    def _execute(
        self,
        kind: str,
        request: Dict[str, Any],
        sess: _Session,
        span: Optional[object] = None,
        src: str = "",
    ) -> Dict[str, Any]:
        if kind == "ping":
            return {"ok": True, "t": self.network.now}
        if kind == "begin":
            shed = self._maybe_shed(request, sess)
            if shed is not None:
                return shed
            return self._do_begin(request, sess)
        if kind == "commit" and sess.txn is None:
            # A commit retry that crossed a crash: the outcome is in the
            # durable log even though the session is gone.
            if request.get("tid") in self._committed_tids:
                return {"ok": True, "recovered": True}
        if sess.pending_abort is not None:
            reason, sess.pending_abort = sess.pending_abort, None
            sess.txn = None
            return {"error": "aborted", "reason": reason}
        if sess.txn is not None and sess.txn.state is TxnState.ABORTED:
            # Killed out-of-band (e.g. wounded by an older requester under
            # wound-wait) — surface the engine's reason.
            reason = (
                getattr(sess.txn._txn, "abort_reason", None) or "aborted"
            )
            sess.txn = None
            return {"error": "aborted", "reason": reason}
        txn = sess.live()
        if txn is None:
            return {
                "error": "aborted",
                "reason": "no active transaction (server restarted?)",
            }
        if span is not None:
            span.set(tid=txn.tid)
        try:
            if kind == "read":
                value = txn.read(
                    request["obj"], for_update=request.get("for_update", False)
                )
                result: Dict[str, Any] = {"ok": True, "value": value}
            elif kind == "write":
                txn.write(request["obj"], request["value"])
                result = {"ok": True}
            elif kind == "delete":
                txn.delete(request["obj"])
                result = {"ok": True}
            elif kind == "insert":
                obj = txn.insert(request["relation"], request["value"])
                result = {"ok": True, "obj": obj}
            elif kind == "commit":
                txn.commit()
                self.commit_count += 1
                self._committed_tids.add(txn.tid)
                result = {"ok": True}
                self._pending_certify.append(txn.tid)
                certify_every = (
                    self.admission.certify_every
                    if self.admission is not None
                    else 1
                )
                if len(self._pending_certify) >= certify_every:
                    verdicts = self.flush_certification()
                    verdict = verdicts.get(txn.tid)
                    if verdict is not None:
                        result["certified"] = verdict
                sess.txn = None
            elif kind == "abort":
                txn.abort()
                result = {"ok": True}
                sess.txn = None
            else:
                return {"error": "bad-request", "reason": f"unknown verb {kind!r}"}
        except WouldBlock as block:
            if span is not None:
                span.event(
                    "blocked",
                    resource=block.resource,
                    holders=sorted(block.holders),
                    tid=txn.tid,
                )
            self._park(request, src, txn.tid, block.holders)
            self._resolve_deadlock(txn.tid)
            if sess.pending_abort is not None:
                # The requester is itself the victim: nothing to wait for.
                reason, sess.pending_abort = sess.pending_abort, None
                sess.txn = None
                self._unpark(request["session"], "aborted")
                return {"error": "aborted", "reason": reason}
            return {"error": "busy", "holders": sorted(block.holders)}
        except TransactionAborted as aborted:
            sess.txn = None
            return {"error": "aborted", "reason": aborted.reason}
        except InvalidOperation as exc:
            return {"error": "bad-request", "reason": str(exc)}
        return result

    # ------------------------------------------------------------------
    # parked requests
    # ------------------------------------------------------------------

    def _park(
        self,
        request: Dict[str, Any],
        src: str,
        tid: Optional[int],
        holders: FrozenSet[int],
    ) -> None:
        """Keep blocked ``request`` here behind ``holders``; one that was
        parked already (it ran again and blocked again) keeps its place and
        takes the fresh holders.  A new park is what the ``busy`` notice
        reports, so it is what ``busy`` counts."""
        session_id = request["session"]
        park = self._parked.get(session_id)
        if park is not None:
            park.holders = holders
            return
        self._count_busy()
        if not self._parked:
            # Nothing was parked, so nothing can have missed an ending.
            self._wal_seen = len(self.recorder)
        span = None
        if self.tracer is not None:
            ctx = request.get("trace")
            attrs = self._request_attrs(request)
            attrs.update(tid=tid, holders=sorted(holders))
            span = self.tracer.span(
                "server.wait",
                parent=ctx.get("span") if ctx else None,
                stack=False,
                **attrs,
            )
        self._parked[session_id] = _Park(
            request, src, tid, holders, self.network.now, span
        )

    def _unpark(self, session_id: str, outcome: str) -> None:
        """Forget the session's parked request, if it has one: its wait is
        over as ``outcome`` (``granted``/``aborted``: the final reply is on
        its way; ``abandoned``: the client walked away; ``lost-crash``)."""
        park = self._parked.pop(session_id, None)
        if park is None:
            return
        if park.span is not None:
            park.span.end(outcome=outcome)
        if self.metrics is not None:
            histogram = self._wait_histograms.get(outcome)
            if histogram is None:
                histogram = self._wait_histograms[outcome] = self.metrics.histogram(
                    "service_lock_wait_ticks",
                    "ticks a blocked request stayed parked at its server",
                ).labels(outcome=outcome)
            histogram.observe(self.network.now - park.since)

    def _drop_parks(self, outcome: str) -> None:
        for session_id in list(self._parked):
            self._unpark(session_id, outcome)

    def parked(self) -> Dict[str, List[int]]:
        """The sessions with a request parked here, in park order, each with
        the transactions it waits on."""
        return {sid: sorted(park.holders) for sid, park in self._parked.items()}

    def _wake(self) -> None:
        """Run again, in park order, every parked request behind a
        transaction that has ended here — or whose own transaction has
        (deadlock victim, wound) — until nothing more is due.  What ended is
        read off the WAL: the commits and aborts recorded since the last
        look, whoever recorded them."""
        if self._waking:
            return  # re-entered from a woken request's search: already looking
        self._waking = True
        try:
            log = self.recorder._rows()
            kinds, tids = log.kind, log.tid
            while self._parked and self._wal_seen < len(kinds):
                seen = self._wal_seen
                ended = {
                    tids[i]
                    for i in range(seen, len(kinds))
                    if kinds[i] == K_COMMIT or kinds[i] == K_ABORT
                }
                self._wal_seen = len(kinds)
                if not ended:
                    continue
                for session_id, park in list(self._parked.items()):
                    if (
                        park.tid in ended or not ended.isdisjoint(park.holders)
                    ) and self._parked.get(session_id) is park:
                        self._resume(session_id, park)
        finally:
            self._waking = False

    def _resume(self, session_id: str, park: _Park) -> None:
        """Run a parked request again.  If it completes, its final reply is
        cached and pushed to the client through the network — drops,
        duplicates and delays included; if it blocks again it stays parked,
        silently (:meth:`_park` has recorded the fresh edges and
        :meth:`_execute` searched them)."""
        request = park.request
        sess = self._sessions[session_id]
        park.holders = frozenset()  # void from here on, whatever happens
        if self.tracer is None:
            reply = self._execute(request["kind"], request, sess, None, park.src)
        else:
            # Engine events of the new attempt belong to the wait, not to
            # the request that happened to end the holder.
            with self.tracer.nest(park.span):
                reply = self._execute(
                    request["kind"], request, sess, park.span, park.src
                )
        if reply.get("error") == "busy":
            return
        self._settle(sess, request["rid"], reply)
        self._unpark(session_id, "aborted" if "error" in reply else "granted")
        ctx = request.get("trace")
        if ctx is not None:
            reply.setdefault("trace", ctx)
        self.network.send(self.name, park.src, reply)

    def _count_request(self, kind: Any) -> None:
        # Only ``str`` verbs are memoised: 1, True and 1.0 are one dict key
        # and three label values (and a malformed verb need not hash).
        known = type(kind) is str
        counter = self._request_counters.get(kind) if known else None
        if counter is None:
            counter = self.metrics.counter(
                "service_requests_total", "service requests handled by verb"
            ).labels(verb=kind)
            if known:
                self._request_counters[kind] = counter
        counter.inc()

    def _count_dedup(self) -> None:
        """One duplicate or retransmit answered without running it."""
        self.counters["dedup_hits"] += 1
        if self.metrics is not None:
            self.metrics.counter(
                "service_dedup_hits_total",
                "duplicate/retried requests answered from the reply cache",
            ).inc()

    def _count_busy(self) -> None:
        """One request parked and answered ``busy`` (a lock wait or an
        in-doubt fence)."""
        self.counters["busy"] += 1
        if self.metrics is not None:
            if self._busy_counter is None:
                self._busy_counter = self.metrics.counter(
                    "service_busy_total", "requests answered busy (lock waits)"
                ).labels()
            self._busy_counter.inc()

    def _live_txns(self) -> List[TransactionHandle]:
        """Every session's live transaction, in session order."""
        return [
            txn
            for txn in (s.live() for s in self._sessions.values())
            if txn is not None
        ]

    def _maybe_shed(
        self, request: Dict[str, Any], sess: _Session
    ) -> Optional[Dict[str, Any]]:
        """Admission control: shed this ``begin`` when the server is at its
        concurrency bound (``None`` = admit).  Shed replies carry a
        server-directed ``retry_after`` and are never dedup-cached."""
        cfg = self.admission
        if cfg is None or not cfg.max_active:
            return None
        if sess.live() is not None:
            return None  # re-begin on an open session frees a slot anyway
        active = len(self._live_txns())
        if active < cfg.max_active:
            return None
        if (
            cfg.shed_probability < 1.0
            and self._admission_rng.random() >= cfg.shed_probability
        ):
            return None
        self.counters["shed"] += 1
        if self.metrics is not None:
            self.metrics.counter(
                "service_admission_shed_total",
                "begins shed by admission control (server at max_active)",
            ).inc()
        if self.tracer is not None:
            self.tracer.event(
                "admission.shed",
                session=request["session"],
                active=active,
                max_active=cfg.max_active,
                retry_after=cfg.retry_after,
            )
        return {
            "error": "shed",
            "retry_after": cfg.retry_after,
            "active": active,
        }

    def _do_begin(self, request: Dict[str, Any], sess: _Session) -> Dict[str, Any]:
        orphan = sess.live()
        if orphan is not None:
            # A duplicate of a begin whose reply was lost would have hit the
            # dedup cache; reaching here means the client really wants a
            # fresh transaction while one is open — abort the orphan first.
            orphan.abort()
        sess.pending_abort = None
        level = request.get("level")
        if sess.downgraded:
            level = sess.level_override
        elif level is None and self.config.level is not None:
            level = self.config.level
        txn = self.db.begin(level)
        self._adopt(sess, request["session"], txn)
        self.declared[txn.tid] = self._declared_level(level)
        return {"ok": True, "tid": txn.tid}

    def _adopt(
        self, sess: _Session, session_id: str, txn: TransactionHandle
    ) -> None:
        """Make ``txn`` the session's transaction — the one way a session
        gets an active transaction, which the deadlock search relies on:
        ``_tid_session`` finds it.  (A session that adopts has no wait edge:
        a later request drops the park, a parked request running again has
        voided its holders.)"""
        sess.txn = txn
        if sess.first_tid is None:
            sess.first_tid = txn.tid
        self._tid_session[txn.tid] = session_id

    def _declared_level(self, level) -> Optional[IsolationLevel]:
        if level is None:
            return self.config.declared_level
        if isinstance(level, str):
            return IsolationLevel.from_string(level)
        return level

    def _certify(self, tid: int) -> Optional[bool]:
        """Live certification at commit: phenomena must not have violated
        the committed transaction's declared level."""
        if self.monitor is None:
            return None
        level = self.declared.get(tid)
        if level is None:
            return None
        ok = self.monitor.provides(level)
        self.certified[tid] = ok
        record_verdict(self.metrics, self.tracer, tid, level, ok)
        if ok is False:
            self._on_uncertified(tid, level)
        return ok

    @property
    def certification_lag(self) -> int:
        """Committed transactions still awaiting a certification verdict
        (only ever non-zero with ``AdmissionConfig.certify_every > 1``)."""
        return len(self._pending_certify)

    def flush_certification(self) -> Dict[int, Optional[bool]]:
        """Certify every commit in the pending batch, in commit order.
        Returns ``tid -> verdict`` for the flushed batch (verdicts also
        land in :attr:`certified`)."""
        verdicts: Dict[int, Optional[bool]] = {}
        if not self._pending_certify:
            return verdicts
        pending = self._pending_certify[:]
        del self._pending_certify[:]  # in place: a shard's is its slot's
        for tid in pending:
            verdicts[tid] = self._certify(tid)
        return verdicts

    def _on_uncertified(self, tid: int, level: IsolationLevel) -> None:
        """React to a failed live certification per
        :attr:`AdmissionConfig.on_uncertified` (no-op for ``"ignore"``
        or with admission control off)."""
        action = self.admission.on_uncertified if self.admission else "ignore"
        if action == "downgrade":
            sid = self._tid_session.get(tid)
            sess = self._sessions.get(sid) if sid is not None else None
            strongest = self.monitor.strongest_level()
            if sess is not None and not sess.downgraded:
                sess.downgraded = True
                sess.level_override = (
                    str(strongest) if strongest is not None else None
                )
                record = {
                    "tid": tid,
                    "session": sid,
                    "declared": str(level),
                    "downgraded_to": sess.level_override,
                }
                self.downgrades.append(record)
                if self.tracer is not None:
                    self.tracer.event("admission.downgrade", **record)
        elif action == "repair":
            from ..analysis.repair import repair

            result = repair(self.recorder.history(validate=False), level)
            suggestion = {
                "tid": tid,
                "level": str(level),
                "abort": sorted(result.aborted),
                "rounds": result.rounds,
            }
            self.repair_suggestions.append(suggestion)
            if self.tracer is not None:
                self.tracer.event("admission.repair", **suggestion)

    # ------------------------------------------------------------------
    # deadlock resolution
    # ------------------------------------------------------------------

    def _resolve_deadlock(self, waiter: int) -> None:
        """Break a waits-for cycle among this server's sessions, if any;
        ``waiter`` is the transaction that has just been parked."""
        break_deadlock([self], self, waiter)

    # ------------------------------------------------------------------

    def history(self, *, validate: bool = True):
        """The full service-side history (the durable log, materialised)."""
        return self.recorder.history(validate=validate)


def record_verdict(
    metrics: Optional[object],
    tracer: Optional[object],
    tid: int,
    level: IsolationLevel,
    ok: bool,
) -> None:
    """Count and trace one live-certification verdict."""
    if metrics is not None:
        metrics.counter(
            "service_commits_certified_total",
            "commits live-certified at their declared level",
        ).inc(ok=str(ok).lower())
    if tracer is not None:
        tracer.event("commit.certified", tid=tid, level=str(level), ok=ok)
        if not ok:
            tracer.event("certification.failure", tid=tid, level=str(level))


def _waits_for(
    live: Sequence["Server"],
) -> Tuple[Dict[int, List[Tuple["Server", str]]], Dict[int, FrozenSet[int]]]:
    """The waits-for graph the parked requests of ``live`` make: where each
    active transaction runs (``tid -> [(server, session)]``; tids are
    global, so edges compose across shards) and, per waiting transaction,
    the active transactions it waits on."""
    by_tid: Dict[int, List[Tuple[Server, str]]] = {}
    for server in live:
        for sid, s in server._sessions.items():
            txn = s.live()
            if txn is not None:
                by_tid.setdefault(txn.tid, []).append((server, sid))
    waits: Dict[int, FrozenSet[int]] = {}
    for server in live:
        for sid, park in server._parked.items():
            s = server._sessions.get(sid)
            txn = s.live() if s is not None else None
            if txn is None:
                continue
            held = frozenset(h for h in park.holders if h in by_tid)
            if held:
                waits[txn.tid] = waits.get(txn.tid, frozenset()) | held
    return by_tid, waits


def _waits_on(live: Sequence["Server"], tid: int) -> Iterator[int]:
    """The holders ``tid``'s parked requests wait on, at each server of
    ``live`` where it is still active (a holder no longer active has no
    session there, and so no edges)."""
    for server in live:
        sid = server._tid_session.get(tid)
        s = server._sessions.get(sid)
        park = server._parked.get(sid)
        if park is not None and s.live(tid) is not None:
            yield from park.holders


def break_deadlock(
    servers: Sequence["Server"], origin: "Server", waiter: int
) -> Optional[Tuple[int, List["Server"]]]:
    """Parked requests carry waits-for edges; union them over ``servers``
    and, on a cycle, abort the transaction whose *session* is youngest
    (:mod:`repro.engine.waits` states the search and both aging rules).
    The victim is charged to ``origin`` (the server that parked transaction
    ``waiter``, which triggered the search).  Returns ``(victim tid,
    servers it was aborted on)``, or ``None`` without a cycle.  A victim
    with a parked request is not answered here: its abort is in the WAL, so
    each server's next :meth:`Server._wake` runs the request again and
    pushes the ``aborted`` it finds.  The graph is rebuilt, servers then
    park order, only when the walk from ``waiter`` comes back or the flag
    is down."""
    live = [server for server in servers if server.up]
    waits_for = origin._waits
    if waits_for.settled(waiter, partial(_waits_on, live)):
        return None
    by_tid, waits = _waits_for(live)

    def seniority(tid: int) -> int:
        # A session's seniority is its oldest live first_tid across the
        # servers it has a transaction on (crash resets included).
        return min(
            server._sessions[sid].first_tid or 0 for server, sid in by_tid[tid]
        )

    found = waits_for.search(waits, seniority)
    if found is None:
        return None
    cycle, victim = found
    origin.deadlock_victims += 1
    if origin.metrics is not None:
        origin.metrics.counter(
            "service_deadlock_victims_total",
            "transactions aborted to break service-level deadlocks",
        ).inc()
    if origin.tracer is not None:
        origin.tracer.event("service.deadlock", cycle=list(cycle), victim=victim)
    for server, sid in by_tid[victim]:
        sess = server._sessions[sid]
        sess.txn.abort()
        sess.pending_abort = "deadlock"
    return victim, [server for server, _sid in by_tid[victim]]
