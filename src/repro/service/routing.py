"""Client-side routing against the cluster's shard map.

Routing is client-side against a versioned in-process
:class:`~repro.service.shardmap.ShardMap` (the config service).  Objects
route by relation (``"emp:3"`` routes by ``"emp"``; bare keys by
themselves), so a relation and everything inserted into it colocate.  A
shard answers ``moved`` for keys it no longer owns; clients re-consult the
map and resend the same idempotency token.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Set

from ..engine.sessions import SessionVector
from .client import Client
from .config import SessionGuarantees
from .errors import ServiceUnavailable
from .replication import route_key as _route_key

__all__ = ["ClusterClient"]


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
        cluster,
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
        return max(
            self._write_vec.get(idx) if g.read_your_writes else 0,
            self._read_vec.get(idx) if g.monotonic_reads else 0,
            self._causal_vec.get(idx) if g.causal else 0,
        )

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
            checks = (
                ("read-your-writes", self._write_vec),
                ("monotonic-reads", self._read_vec),
                ("causal", self._causal_vec),
            )
            for kind, vec in checks:
                required = vec.get(shard)
                if offset < required:
                    witness = {
                        "kind": kind,
                        "session": self.name,
                        "shard": shard,
                        "obj": pending.payload.get("obj"),
                        "tid": pending.payload.get("tid"),
                        "required": required,
                        "got": offset,
                    }
                    self.violations.append({**witness, "tick": self.network.now})
                    if self.metrics is not None:
                        self.metrics.counter(
                            "service_session_violations",
                            "witnessed session-guarantee violations",
                        ).inc(kind=kind, shard=shard)
                    if self.tracer is not None:
                        self.tracer.event("session.violation", **witness)
            self._read_vec.observe(shard, offset)
            self._causal_vec.observe(shard, offset)
        elif pending.kind == "commit" and reply.get("offsets"):
            for shard, offset in reply["offsets"].items():
                self._write_vec.observe(shard, offset)
                self._causal_vec.observe(shard, offset)
        elif pending.kind == "insert" and "obj" in reply:
            self._txn_writes.add(reply["obj"])
        return reply
