"""The service's client side: sessions, idempotency tokens, retries.

A :class:`Client` owns one server session.  Every logical operation gets a
fresh request id; ``(session, rid)`` is the idempotency token, and every
retry after a timeout reuses it, so the server can never apply an operation
twice no matter how the network mangles the exchange.  Retries follow the
session's :class:`~repro.service.config.RetryPolicy`: deterministic
exponential backoff in logical ticks.

A ``busy`` reply is not a refusal and is not retried: the server has parked
the request behind a lock holder and will push the final reply when the
lock is granted (or the transaction is aborted to break a deadlock).  The
request stays in flight under one *liveness deadline* — ``timeout *
max_attempts`` ticks, the whole silence the policy would have granted an
unresponsive server — whose expiry goes down the ordinary timeout path: the
retransmit finds the request still parked (the notice again), finished (the
cached reply a lost push carried) or gone with a crashed server.  So a lock
wait on a healthy network is one request, one notice and one pushed reply,
journalled ``[attempts=1]``.

Two call styles:

* **synchronous** — ``client.read("x")`` drives the network until the
  reply arrives (convenient for single-client scripts and docs);
* **split-phase** — ``submit`` returns a :class:`PendingCall`; a driver
  (see :mod:`repro.service.stress`) interleaves many clients by polling
  pendings as it steps the network, which is how concurrent traffic is
  generated without threads.

Every completed operation is journalled.  The journal is the
*client-observed history* — exactly what this client saw through the
unreliable boundary, attempt counts included — and is deterministic: same
seeds, same journal, byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from .config import RetryPolicy
from .errors import RequestTimeout, ServiceAborted, ServiceUnavailable
from .network import SimulatedNetwork

__all__ = ["Client", "PendingCall"]

#: Payload keys that are not a logical argument: the envelope, the trace
#: context (the journal must be byte-identical with and without a tracer)
#: and the replication plumbing (watermark floors, routing pins).
_PLUMBING = frozenset((
    "kind", "session", "rid", "acked", "tid", "trace",
    "min_offset", "_route", "_pin",
))


class PendingCall:
    """One logical operation in flight: request, retries, final outcome."""

    __slots__ = (
        "client", "kind", "payload", "rid", "attempts", "dest", "inbox",
        "deadline", "resume_at", "reply", "error", "span", "submitted_at",
        "arg_text",
    )

    def __init__(
        self, client: "Client", kind: str, payload: Dict[str, Any],
        arg_text: str,
    ):
        self.client = client
        self.kind = kind
        self.payload = payload
        self.rid = payload["rid"]
        #: The client's inbox list (drained in place, never rebound).
        self.inbox = client._inbox
        #: The journal's text of the logical arguments, in key order.
        self.arg_text = arg_text
        #: Destination endpoint; routed clients (cluster) re-resolve it on
        #: retries so a request never chases a retired shard forever.
        self.dest = client._route(kind, payload)
        self.attempts = 0
        #: Tick the operation was first submitted — settle time minus this
        #: is the operation's client-observed latency.
        self.submitted_at = client.network.now
        self.deadline: Optional[int] = None
        self.resume_at: Optional[int] = None
        self.reply: Optional[Dict[str, Any]] = None
        self.error: Optional[Exception] = None
        #: Open ``client.request`` span covering every attempt (tracing).
        self.span: Optional[object] = None

    @property
    def settled(self) -> bool:
        return self.reply is not None or self.error is not None

    def result(self) -> Dict[str, Any]:
        """The final reply; raises the service error on failure."""
        if self.error is not None:
            raise self.error
        assert self.reply is not None
        return self.reply

    # -- driver interface ----------------------------------------------

    def _send(self) -> None:
        self.attempts += 1
        if self.attempts > 1:
            self.client._retries_total += 1
            self.client._count("service_client_retries_total",
                               "client request retries by verb")
        if self.span is not None:
            self.span.event("send", attempt=self.attempts)
        net = self.client.network
        net.send(self.client.name, self.dest, dict(self.payload))
        self.deadline = net.now + self.client.policy.timeout
        self.resume_at = None

    def _backoff_or_fail(self, exhausted_error: Exception) -> None:
        if self.attempts >= self.client.policy.max_attempts:
            self.error = exhausted_error
            return
        self.deadline = None
        self.resume_at = (
            self.client.network.now
            + self.client.policy.backoff_before(self.attempts)
        )
        if self.span is not None:
            self.span.event("backoff", until=self.resume_at)

    def poll(self) -> bool:
        """Advance the state machine against the current network time and
        inbox; returns :attr:`settled`."""
        if self.reply is not None or self.error is not None:
            return True
        client = self.client
        now = client.network.now
        for reply in client._drain(self.rid) if self.inbox else ():
            error = reply.get("error")
            if error == "busy":
                # Parked at the server: stay in flight (no resend) and wait
                # for the pushed reply, under the liveness deadline only.
                client._busy_total += 1
                client._count("service_client_busy_total",
                              "busy replies observed by clients")
                if self.span is not None:
                    self.span.event("busy", holders=reply.get("holders"))
                self.deadline = (
                    now + client.policy.timeout * client.policy.max_attempts
                )
                self.resume_at = None
                continue  # the pushed reply may be in this very batch
            if error == "shed":
                # Admission control turned the begin away: back off for the
                # server-directed interval, not the client's own schedule.
                client._shed_total += 1
                client._count("service_client_shed_total",
                              "shed replies observed by clients")
                if self.span is not None:
                    self.span.event(
                        "shed", retry_after=reply.get("retry_after")
                    )
                if self.attempts >= client.policy.max_attempts:
                    self.error = ServiceUnavailable(
                        f"{self.kind} rid={self.rid}: shed after "
                        f"{self.attempts} attempts"
                    )
                    return True
                self.deadline = None
                self.resume_at = now + int(
                    reply.get("retry_after")
                    or client.policy.backoff_before(self.attempts)
                )
                if self.span is not None:
                    self.span.event("backoff", until=self.resume_at)
                return self.settled
            if error == "stale":
                continue  # echo of a superseded duplicate; keep waiting
            if error == "moved":
                # Shard-map change beat this request to the wire: re-route
                # against the refreshed map and resend the same idempotency
                # token to the new owner.
                if self.span is not None:
                    self.span.event("moved", owner=reply.get("owner"))
                client._on_moved(self, reply)
                return self.settled
            if error == "lagging":
                # A replica behind this session's watermark: the session's
                # guarantee policy decides — wait for catch-up, or redirect
                # to the primary (cluster clients override the hook).
                if self.span is not None:
                    self.span.event(
                        "lagging",
                        applied=reply.get("applied"),
                        required=reply.get("required"),
                    )
                client._on_lagging(self, reply)
                return self.settled
            if error == "aborted":
                self.error = ServiceAborted(reply.get("reason", "aborted"))
                client._on_abort_reply()
                return True
            self.reply = reply
            return True
        if self.deadline is not None and now >= self.deadline:
            client._timeouts_total += 1
            client._count("service_client_timeouts_total",
                          "client request timeouts")
            if self.span is not None:
                self.span.event("timeout", attempt=self.attempts)
            self._backoff_or_fail(
                RequestTimeout(
                    f"{self.kind} rid={self.rid}: no reply after "
                    f"{self.attempts} attempts"
                )
            )
            if self.settled:
                return True
        if self.resume_at is not None and now >= self.resume_at:
            # Re-resolve the destination first: a retry that raced a
            # shard-map change must consult the fresh map, not hammer the
            # stale shard (plain clients keep their fixed server).
            self.client._refresh_destination(self)
            self._send()
        return self.settled

    @property
    def next_wake(self) -> Optional[int]:
        """The tick at which this pending next needs attention."""
        if self.settled:
            return None
        return self.deadline if self.deadline is not None else self.resume_at

    def due(self, now: int) -> bool:
        """Whether :meth:`poll` can change an unsettled pending at tick
        ``now``: only with mail in the client's inbox or a deadline/backoff
        that has come due.  Both change only when the network delivers or
        the clock moves, so a driver need not poll in between (polling
        anyway stays harmless)."""
        return (
            bool(self.inbox)
            or (self.deadline is not None and self.deadline <= now)
            or (self.resume_at is not None and self.resume_at <= now)
        )


class Client:
    """One session against one server endpoint."""

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        name: str = "client",
        server: str = "server",
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.network = network
        self.name = name
        self.server = server
        self.policy = policy or RetryPolicy()
        self.metrics = metrics
        #: Trace-context origin: with a tracer attached, every transaction
        #: gets a fresh ``trace_id`` and a ``client.txn`` root span; every
        #: logical operation gets a ``client.request`` child span whose
        #: ``(trace_id, span_id)`` rides in the message envelope so the
        #: network and server parent their spans under it.
        self.tracer = tracer
        self._inbox = network.register_inbox(name)
        self._rid = 0
        self._acked = -1
        self.tid: Optional[int] = None
        self.journal: List[str] = []
        self._retries_total = 0
        self._timeouts_total = 0
        self._busy_total = 0
        self._shed_total = 0
        self._txn_span: Optional[object] = None
        self._trace_id: Optional[str] = None
        self._trace_seq = 0
        #: This session's series per counter name, bound at first use.
        self._counters: Dict[str, Any] = {}

    # -- bookkeeping -----------------------------------------------------

    def _drain(self, rid: int) -> List[Dict[str, Any]]:
        """Replies matching ``rid``; stale replies (earlier rids, network
        duplicates) are discarded."""
        matched, keep = [], []
        for src, payload in self._inbox:
            if payload.get("rid") == rid:
                matched.append(payload)
            elif payload.get("rid", -1) > rid:
                keep.append((src, payload))  # shouldn't happen; be safe
        self._inbox[:] = keep
        return matched

    def _count(self, name: str, help: str) -> None:
        if self.metrics is not None:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = self.metrics.counter(
                    name, help
                ).labels(session=self.name)
            counter.inc()

    def _on_abort_reply(self) -> None:
        self.tid = None
        self._end_txn_span("aborted")

    # -- routing ---------------------------------------------------------

    def _route(self, kind: str, payload: Dict[str, Any]) -> str:
        """Destination endpoint for one operation.  The plain client talks
        to its fixed server; cluster clients override this to consult the
        shard map (keyed operations), pick the 2PC coordinator (cross-shard
        commits), and so on."""
        return self.server

    def _refresh_destination(self, pending: "PendingCall") -> None:
        """Hook before every retry send: re-resolve ``pending.dest``.

        The fix for stale-shard retry loops lives in the cluster client's
        override — a commit retry that raced a shard-map change re-consults
        the map instead of retrying the retired endpoint forever.  The
        plain client's destination never moves."""

    def _on_moved(self, pending: "PendingCall", reply: Dict[str, Any]) -> None:
        """A ``moved`` reply: ownership of the key changed under us.
        Re-route and resend the same idempotency token immediately."""
        if pending.attempts >= self.policy.max_attempts:
            pending.error = ServiceUnavailable(
                f"{pending.kind} rid={pending.rid}: still moved after "
                f"{pending.attempts} attempts"
            )
            return
        pending.dest = self._route(pending.kind, pending.payload)
        pending._send()

    def _on_lagging(self, pending: "PendingCall", reply: Dict[str, Any]) -> None:
        """A ``lagging`` reply (replica behind the session watermark).
        The plain client never routes to replicas; treat it as transient
        and back off.  The cluster client overrides this with the
        session-guarantee policy (wait vs redirect-to-primary)."""
        pending._backoff_or_fail(
            ServiceUnavailable(
                f"{pending.kind} rid={pending.rid}: replica still lagging "
                f"after {pending.attempts} attempts"
            )
        )

    # -- trace context ---------------------------------------------------

    def _begin_trace(self) -> None:
        """Start a fresh trace for a new transaction (``begin``)."""
        self._end_txn_span("superseded")
        self._trace_seq += 1
        self._trace_id = f"{self.name}#{self._trace_seq}"
        self._txn_span = self.tracer.span(
            "client.txn",
            stack=False,
            session=self.name,
            trace_id=self._trace_id,
        )

    def _end_txn_span(self, outcome: str) -> None:
        if self._txn_span is not None:
            self._txn_span.end(outcome=outcome)
            self._txn_span = None

    def close_trace(self, outcome: str = "unfinished") -> None:
        """Close any dangling transaction span (end of a driver run)."""
        self._end_txn_span(outcome)

    def _journal(self, text: str) -> None:
        self.journal.append(f"t={self.network.now:<6} {self.name}: {text}")

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "retries": self._retries_total,
            "timeouts": self._timeouts_total,
            "busy": self._busy_total,
            "shed": self._shed_total,
        }

    # -- split-phase interface -------------------------------------------

    def submit(self, kind: str, **fields: Any) -> PendingCall:
        """Send one logical operation; returns its pending handle."""
        self._rid += 1
        payload = {
            "kind": kind,
            "session": self.name,
            "rid": self._rid,
            "acked": self._acked,
            **fields,
        }
        if self.tid is not None and kind != "begin":
            payload.setdefault("tid", self.tid)
        pending = PendingCall(self, kind, payload, ",".join([
            f"{k}={fields[k]}" for k in sorted(fields) if k not in _PLUMBING
        ]))
        if self.tracer is not None:
            if kind == "begin":
                self._begin_trace()
            trace_id = (
                self._trace_id
                if self._txn_span is not None
                else f"{self.name}#r{self._rid}"
            )
            attrs = {
                "verb": kind,
                "session": self.name,
                "rid": self._rid,
                "trace_id": trace_id,
            }
            obj = fields.get("obj") or fields.get("relation")
            if obj is not None:
                attrs["obj"] = obj
            pending.span = self.tracer.span(
                "client.request",
                parent=self._txn_span,
                stack=False,
                **attrs,
            )
            payload["trace"] = {"id": trace_id, "span": pending.span.id}
        pending._send()
        return pending

    def co_call(self, kind: str, **fields: Any) -> Iterator[PendingCall]:
        """Coroutine form: yields the pending until settled, then finishes
        the operation (journalling + error raising) — drivers interleave
        many of these.  The first yield comes before any poll: no reply can
        arrive before the network's next delivery, so a poll right after
        ``submit`` would find nothing to do."""
        pending = self.submit(kind, **fields)
        yield pending
        while not pending.poll():
            yield pending
        return self._finish(pending)

    def _finish(self, pending: PendingCall) -> Dict[str, Any]:
        """Journal the outcome and translate errors."""
        self._acked = max(self._acked, pending.rid)
        arg_text = pending.arg_text
        try:
            reply = pending.result()
        except Exception as exc:
            self._journal(
                f"{pending.kind}({arg_text}) -> {type(exc).__name__}({exc}) "
                f"[attempts={pending.attempts}]"
            )
            if pending.span is not None:
                pending.span.end(
                    outcome=type(exc).__name__, attempts=pending.attempts
                )
            raise
        if pending.span is not None:
            pending.span.end(outcome="ok", attempts=pending.attempts)
        if pending.kind == "begin":
            self.tid = reply["tid"]
            if self._txn_span is not None:
                self._txn_span.set(tid=reply["tid"])
            out = f"tid={reply['tid']}"
        elif pending.kind in ("commit", "abort"):
            out = "ok" + (" (recovered)" if reply.get("recovered") else "")
            if pending.kind == "commit" and reply.get("certified") is False:
                out += " UNCERTIFIED"
            self.tid = None
            self._end_txn_span(pending.kind + ("-recovered" if reply.get("recovered") else ""))
        elif "value" in reply:
            out = f"value={reply['value']}"
        elif "obj" in reply:
            out = f"obj={reply['obj']}"
        else:
            out = "ok"
        self._journal(
            f"{pending.kind}({arg_text}) -> {out} [attempts={pending.attempts}]"
        )
        return reply

    # -- synchronous interface -------------------------------------------

    def call(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Synchronous operation: drives the network until settled."""
        pending = self.submit(kind, **fields)
        self.network.run_until(pending.poll)
        return self._finish(pending)

    def begin(self, level: Optional[object] = None) -> int:
        """Start a transaction; returns its server-side tid."""
        reply = self.call(
            "begin", level=str(level) if level is not None else None
        )
        return reply["tid"]

    def read(self, obj: str, *, for_update: bool = False) -> Any:
        return self.call("read", obj=obj, for_update=for_update).get("value")

    def write(self, obj: str, value: Any) -> None:
        self.call("write", obj=obj, value=value)

    def delete(self, obj: str) -> None:
        self.call("delete", obj=obj)

    def insert(self, relation: str, value: Any) -> str:
        return self.call("insert", relation=relation, value=value)["obj"]

    def commit(self) -> Dict[str, Any]:
        return self.call("commit")

    def abort(self) -> Dict[str, Any]:
        return self.call("abort")

    def ping(self) -> Dict[str, Any]:
        return self.call("ping")
