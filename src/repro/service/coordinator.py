"""The cluster's two-phase-commit coordinator.

Cross-shard transactions commit through a dedicated network endpoint (by
default ``"coord"``): clients route ``commit``/``abort`` requests for
multi-shard transactions here instead of to a shard.  The coordinator then
runs classic presumed-nothing 2PC over the same unreliable simulated
network the clients use:

* **phase 1** — a ``prepare`` to every participant shard; each shard
  snapshots the transaction's final writes into its durable prepared state
  (the WAL-backed redo record) and answers ``prepared``;
* **decision** — all prepared: the transaction gets the next *global
  commit stamp* from the cluster sequencer and the decision is ``commit``;
  any refusal (the transaction already died at a shard — deadlock victim,
  crash undo): the decision is ``abort``;
* **phase 2** — a ``decide`` to every participant; shards apply (or undo)
  idempotently, surviving a crash between prepare and decide by redoing
  from the prepared record after restart;
* the client's reply is sent only after every participant acknowledged the
  decision, carrying the global certification verdict.

The coordinator is event-driven (network handlers cannot block), keeps a
per-transaction state machine, and retransmits unacknowledged
prepare/decide messages on a fault-free self-timer
(:meth:`~repro.service.network.SimulatedNetwork.timer`), so a partitioned
or crashed participant is simply retried until it answers — blocking 2PC,
the textbook trade.  All messaging uses the same ``(session, rid)``
idempotency tokens as clients (the coordinator is session ``"coord"`` to
the shards), so retransmissions are absorbed by the shards' at-most-once
caches and replies lost to the network are simply re-fetched.

Determinism: rids, participant order, stamps and timers are all derived
from the seeded message schedule — a seeded run replays the same 2PC
message flow byte for byte, which is what lets the fault matrix (shard
crash between prepare and commit, coordinator partitioned mid-prepare) be
pinned in tests.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["Coordinator"]


class _TwoPC:
    """State machine for one cross-shard commit/abort."""

    __slots__ = (
        "gid", "verb", "client_src", "client_rid", "trace", "participants",
        "phase", "prepared", "refused", "reason", "decision", "stamp",
        "decide_acks", "rids", "prepare_span", "decide_span", "offsets",
        "opened_at",
    )

    def __init__(
        self,
        gid: int,
        verb: str,
        client_src: str,
        client_rid: int,
        trace: Optional[Dict[str, Any]],
        participants: Tuple[int, ...],
    ) -> None:
        self.gid = gid
        self.verb = verb
        self.client_src = client_src
        self.client_rid = client_rid
        self.trace = trace
        self.participants = participants
        self.phase = "prepare"
        self.prepared: set[int] = set()
        self.refused = False
        self.reason: Optional[str] = None
        self.decision: Optional[str] = None
        self.stamp: Optional[int] = None
        self.decide_acks: set[int] = set()
        #: Post-commit replication-log offsets per participant (replicated
        #: clusters: the client folds these into its session write vector).
        self.offsets: Dict[int, int] = {}
        #: Idempotency token per (phase, participant) — retransmits reuse it.
        self.rids: Dict[Tuple[str, int], int] = {}
        self.prepare_span: Optional[object] = None
        self.decide_span: Optional[object] = None
        #: Network tick the coordinator first saw the transaction — the
        #: in-doubt window for observability is ``finish_tick - opened_at``.
        self.opened_at: int = 0


#: The coordinator's endpoint name on the cluster's network.
COORDINATOR = "coord"


class Coordinator:
    """2PC coordinator endpoint for one cluster."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.name = COORDINATOR
        self.network = cluster.network
        self.tracer = cluster.tracer
        self.metrics = cluster.metrics
        #: Total prepare messages sent (retransmits included) — the hook the
        #: deterministic fault schedule triggers on.
        self.prepares_sent = 0
        self.retransmits = 0
        self.decisions = {"commit": 0, "abort": 0}
        self._rid = 0
        #: Conservative acked watermark: every rid at or below it settled.
        self._acked = -1
        self._settled_rids: set[int] = set()
        self._pending: Dict[int, _TwoPC] = {}
        #: rid -> (gid, shard index, phase) for reply matching.
        self._inflight: Dict[int, Tuple[int, int, str]] = {}
        #: Final client replies per gid (client commit retries re-fetch).
        self._completed: Dict[int, Dict[str, Any]] = {}
        self.network.register_handler(COORDINATOR, self.handle)

    # ------------------------------------------------------------------
    # network entry point
    # ------------------------------------------------------------------

    def handle(
        self, payload: Dict[str, Any], src: str
    ) -> Optional[Dict[str, Any]]:
        kind = payload.get("kind")
        if kind == "timer":
            self._on_timer(payload)
            return None
        if kind in ("commit", "abort"):
            return self._on_client(payload, src, kind)
        # Anything else is a shard's reply to one of our prepare/decide
        # requests (replies carry no "kind").
        self._on_shard_reply(payload)
        return None

    # ------------------------------------------------------------------
    # client requests
    # ------------------------------------------------------------------

    def _on_client(
        self, payload: Dict[str, Any], src: str, verb: str
    ) -> Optional[Dict[str, Any]]:
        gid = payload.get("tid")
        rid = payload["rid"]
        if gid is None:
            return {"error": "bad-request",
                    "reason": f"cross-shard {verb} without tid", "rid": rid}
        done = self._completed.get(gid)
        if done is not None:
            # A retry of an already-decided transaction: re-send the final
            # outcome (the durable log's answer, like a shard's recovered
            # commit reply).
            reply = dict(done)
            reply["rid"] = rid
            if payload.get("trace") is not None:
                reply["trace"] = payload["trace"]
            return reply
        st = self._pending.get(gid)
        if st is not None:
            # Duplicate/retry while the protocol is still running: absorb
            # (same idempotency token; the eventual reply settles it).
            st.client_src, st.client_rid = src, rid
            return None
        meta = self.cluster.state.meta.get(gid)
        if meta is None:
            return {"error": "aborted",
                    "reason": "unknown transaction", "rid": rid}
        st = _TwoPC(
            gid, verb, src, rid, payload.get("trace"),
            tuple(sorted(meta.participants)),
        )
        st.opened_at = self.network.now
        self._pending[gid] = st
        self._note_in_doubt()
        if self.tracer is not None and st.trace is not None:
            st.prepare_span = self.tracer.span(
                "2pc.prepare",
                stack=False,
                parent=st.trace.get("span"),
                trace_id=st.trace.get("id"),
                tid=gid,
                verb=verb,
                participants=[self.cluster.endpoint(i) for i in st.participants],
            )
        if verb == "commit":
            self._send_prepares(st)
        else:
            self._decide(st, "abort", "client abort")
        self.network.timer(
            self.name, {"kind": "timer", "gid": gid},
            delay=self.cluster.config.retry_every,
        )
        return None

    # ------------------------------------------------------------------
    # phase 1: prepare
    # ------------------------------------------------------------------

    def _token(self, st: _TwoPC, phase: str, idx: int) -> int:
        key = (phase, idx)
        rid = st.rids.get(key)
        if rid is None:
            self._rid += 1
            rid = st.rids[key] = self._rid
            self._inflight[rid] = (st.gid, idx, phase)
        return rid

    def _trace_ctx(self, st: _TwoPC, span: Optional[object]):
        if st.trace is None or span is None:
            return None
        return {"id": st.trace.get("id"), "span": span.id}

    def _send_prepares(self, st: _TwoPC) -> None:
        for idx in st.participants:
            if idx in st.prepared:
                continue
            payload: Dict[str, Any] = {
                "kind": "prepare",
                "session": self.name,
                "rid": self._token(st, "prepare", idx),
                "acked": self._acked,
                "tid": st.gid,
            }
            ctx = self._trace_ctx(st, st.prepare_span)
            if ctx is not None:
                payload["trace"] = ctx
            self.prepares_sent += 1
            self.network.send(self.name, self.cluster.endpoint(idx), payload)

    # ------------------------------------------------------------------
    # phase 2: decide
    # ------------------------------------------------------------------

    def _decide(self, st: _TwoPC, outcome: str, reason: Optional[str]) -> None:
        st.phase = "decide"
        st.decision = outcome
        st.reason = reason
        self.decisions[outcome] += 1
        if self.metrics is not None:
            self.metrics.counter(
                "service_2pc_decisions_total", "2PC decisions by outcome"
            ).inc(outcome=outcome)
        if outcome == "commit":
            st.stamp = self.cluster.state.stamp(st.gid)
        if st.prepare_span is not None and st.verb == "commit":
            st.prepare_span.end(
                outcome=outcome,
                prepared=sorted(st.prepared),
            )
            st.prepare_span = None
        if self.tracer is not None and st.trace is not None:
            st.decide_span = self.tracer.span(
                "2pc.decide",
                stack=False,
                parent=st.trace.get("span"),
                trace_id=st.trace.get("id"),
                tid=st.gid,
                outcome=outcome,
                stamp=st.stamp,
            )
        self._send_decides(st)

    def _send_decides(self, st: _TwoPC) -> None:
        for idx in st.participants:
            if idx in st.decide_acks:
                continue
            payload: Dict[str, Any] = {
                "kind": "decide",
                "session": self.name,
                "rid": self._token(st, "decide", idx),
                "acked": self._acked,
                "tid": st.gid,
                "outcome": st.decision,
            }
            if st.stamp is not None:
                payload["stamp"] = st.stamp
            ctx = self._trace_ctx(st, st.decide_span or st.prepare_span)
            if ctx is not None:
                payload["trace"] = ctx
            self.network.send(self.name, self.cluster.endpoint(idx), payload)

    # ------------------------------------------------------------------
    # shard replies
    # ------------------------------------------------------------------

    def _on_shard_reply(self, reply: Dict[str, Any]) -> None:
        entry = self._inflight.get(reply.get("rid"))
        if entry is None:
            return  # stale/duplicate for an already-finalised transaction
        gid, idx, phase = entry
        st = self._pending.get(gid)
        if st is None:
            return
        if phase == "prepare" and st.phase == "prepare":
            if reply.get("ok") and reply.get("prepared"):
                st.prepared.add(idx)
                if len(st.prepared) == len(st.participants):
                    self._decide(st, "commit", None)
            else:
                # The transaction already died at this shard (deadlock
                # victim, crash undo): global abort.
                self._decide(
                    st, "abort",
                    reply.get("reason", "participant refused to prepare"),
                )
        elif phase == "decide" and st.phase == "decide":
            if reply.get("ok"):
                st.decide_acks.add(idx)
                if reply.get("offset") is not None:
                    st.offsets[idx] = reply["offset"]
                if len(st.decide_acks) == len(st.participants):
                    self._finish(st)

    def _finish(self, st: _TwoPC) -> None:
        if st.decision == "commit":
            reply: Dict[str, Any] = {"ok": True}
            certified = self.cluster.certify(st.gid)
            if certified is not None:
                reply["certified"] = certified
            if st.offsets:
                reply["offsets"] = dict(st.offsets)
        elif st.verb == "abort":
            reply = {"ok": True}
        else:
            reply = {"error": "aborted", "reason": st.reason or "aborted"}
        self._completed[st.gid] = dict(reply)
        reply["rid"] = st.client_rid
        if st.trace is not None:
            reply["trace"] = st.trace
        if st.decide_span is not None:
            st.decide_span.end(acks=len(st.decide_acks))
        if st.prepare_span is not None:  # client abort without decide span
            st.prepare_span.end(outcome=st.decision)
        del self._pending[st.gid]
        self._note_in_doubt()
        if self.metrics is not None:
            self.metrics.histogram(
                "service_2pc_in_doubt_ticks",
                "ticks from first client request to final 2PC settlement",
            ).observe(
                self.network.now - st.opened_at, outcome=st.decision or "?"
            )
        for rid in st.rids.values():
            self._inflight.pop(rid, None)
            self._settled_rids.add(rid)
        # Advance the acked watermark only over a contiguous settled prefix:
        # pruning a still-inflight rid's cached reply at a shard would turn
        # its retransmit into a stale/no-op answer.
        while (self._acked + 1) in self._settled_rids:
            self._acked += 1
            self._settled_rids.discard(self._acked)
        self.network.send(self.name, st.client_src, reply)

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------

    def _on_timer(self, payload: Dict[str, Any]) -> None:
        st = self._pending.get(payload.get("gid"))
        if st is None:
            return  # resolved; let the timer chain die
        self.retransmits += 1
        if self.metrics is not None:
            self.metrics.counter(
                "service_2pc_retransmits_total",
                "2PC prepare/decide retransmission rounds",
            ).inc(phase=st.phase)
        if st.phase == "prepare":
            self._send_prepares(st)
        else:
            self._send_decides(st)
        self.network.timer(
            self.name, {"kind": "timer", "gid": st.gid},
            delay=self.cluster.config.retry_every,
        )

    def _note_in_doubt(self) -> None:
        """Keep the in-doubt gauge on the live pending count (observation
        only — never touches protocol state)."""
        if self.metrics is not None:
            self.metrics.gauge(
                "service_2pc_in_doubt",
                "cross-shard transactions with 2PC still in flight",
            ).set(len(self._pending))

    @property
    def pending(self) -> int:
        """Cross-shard transactions whose 2PC is still in flight."""
        return len(self._pending)

    def snapshot(self) -> Dict[str, Any]:
        """Read-only 2PC state (the dossier's ``two_pc`` block): one row per
        in-flight transaction by gid, the decision tally, the retransmits."""
        return {
            "pending": [
                {
                    "gid": gid, "phase": st.phase, "decision": st.decision,
                    "participants": list(st.participants),
                    "prepared": sorted(st.prepared), "opened_at": st.opened_at,
                }
                for gid, st in sorted(self._pending.items())
            ],
            "decisions": dict(self.decisions),
            "retransmits": self.retransmits,
        }

    def __repr__(self) -> str:
        return (
            f"<Coordinator {self.name} pending={self.pending} "
            f"decisions={self.decisions}>"
        )
