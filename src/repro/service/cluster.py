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

This module keeps the shared transaction registry, the :class:`Cluster`
facade with its fault schedule and reconfiguration, and
:func:`connect_cluster`; routing is :mod:`~repro.service.routing`, a shard
and what outlives it :mod:`~repro.service.shard`, the fold of N shard logs
into one history :mod:`~repro.service.certifier`.  Cluster-wide:

* **Global transaction ids** come from one shared allocator, and commits
  get **global commit stamps** from one shared sequencer (cross-shard
  transactions are stamped by the coordinator at the commit decision,
  single-shard commits at apply), so per-shard histories merge into one
  totally-ordered execution.
* **Determinism**: every decision — routing, rids, stamps, fault
  injection points, reconfiguration — is a pure function of configs and
  seeds, so cluster runs replay byte for byte; a ``shards=1`` cluster is
  *byte-identical* (histories, journals, certification verdicts) to the
  plain single-:class:`Server` stack.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.history import History
from ..core.levels import IsolationLevel
from ..engine.factory import SchedulerConfig
from .certifier import GlobalCertifier, merge_history
from .config import (
    AdmissionConfig,
    ClusterConfig,
    MapChange,
    NetworkConfig,
    SessionGuarantees,
)
from .coordinator import Coordinator
from .network import SimulatedNetwork
from .replication import ReplicaServer, route_key as _route_key
from .routing import ClusterClient
from .schedule import FaultSchedule
from .server import break_deadlock, record_verdict
from .shard import ShardServer, ShardSlot
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
        #: Transactions known dead (any shard aborted them) — joins refuse.
        self.dead: Set[int] = set()
        self.meta: Dict[int, _TxnMeta] = {}
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

    def begin(self, gid: int, session: str, level, declared, home: int) -> None:
        """Register transaction ``gid``, just begun at shard ``home``."""
        self.meta[gid] = _TxnMeta(session, level, declared, home)
        self.session_current[session] = gid

    def note_commit(self, gid: int) -> None:
        self.stamp(gid)
        self.committed.add(gid)


#: Timed-action kinds of the cluster's fault schedule.  Actions that come
#: due together run kind by kind: shard restarts, backup restarts, the heal.
_RESTART, _REPLICA_RESTART, _HEAL = range(3)


class Cluster:
    """N hash-sharded servers + coordinator behind one facade.

    The facade mirrors the single-:class:`Server` surface the stress driver
    and observability stack consume (``commit_count``, ``counters``,
    ``declared``, ``history()``, ``flush_certification()``), aggregated
    across shards; :meth:`tick` advances the deterministic fault and
    reconfiguration schedule."""

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
        #: What outlives an endpoint incarnation, one slot per shard index.
        self.shard_slots: List[ShardSlot] = [
            ShardSlot(i, self.config.replicas, network.config.seed)
            for i in range(n)
        ]
        split: List[Dict[str, Any]] = [{} for _ in range(n)]
        by_name = {name: i for i, name in enumerate(names)}
        for obj, value in (initial or {}).items():
            split[by_name[self.shard_map.owner(_route_key(obj))]][obj] = value
        self.state.loader_participants = tuple(i for i in range(n) if split[i])
        #: The current primary of every slot, by shard index.
        self.shards: List[ShardServer] = [
            ShardServer(self, slot, name=name, initial=part or None)
            for slot, name, part in zip(self.shard_slots, names, split)
        ]
        self.certifier: Optional[GlobalCertifier] = None
        if monitor is not None:
            self.certifier = GlobalCertifier(monitor, self.participants_of)
            for shard in self.shards:
                shard.recorder.attach_monitor(self.certifier)
        # -- replication (primary/backup log shipping) -------------------
        for slot in self.shard_slots:
            for j, name in enumerate(self.config.replica_names(slot.index)):
                replica = ReplicaServer(self, slot, j, name=name)
                if self.certifier is not None:
                    # Direct assignment, not attach_monitor: the recorder is
                    # empty here and replays would double-feed after restore.
                    replica.reads.monitor = self.certifier
                slot.replicas.append(replica)
        for shard in self.shards:
            shard.arm_replication()
        self.coordinator = Coordinator(self)
        self._replacements = 0
        #: The deterministic fault and reconfiguration schedule.
        self.faults = FaultSchedule()
        self._arm_faults()

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

    def replica_of(self, index: int, ordinal: int) -> Optional[ReplicaServer]:
        """The backup at (shard, ordinal), or None once promoted away."""
        return self.shard_slots[index].backup(ordinal)

    def client(
        self, name: str, *, policy=None, read_preference: str = "primary",
        guarantees: Optional[SessionGuarantees] = None,
    ) -> ClusterClient:
        return ClusterClient(
            self, name=name, policy=policy,
            metrics=self.metrics, tracer=self.tracer,
            read_preference=read_preference, guarantees=guarantees,
        )

    # ------------------------------------------------------------------
    # certification / orphans / deadlocks
    # ------------------------------------------------------------------

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
        record_verdict(self.metrics, self.tracer, gid, level, ok)
        return ok

    def reap_orphan(self, gid: int, *, skip: Optional[ShardServer]) -> None:
        """Abort a given-up-on transaction everywhere it still holds locks
        (prepared shards excluded — those belong to the coordinator)."""
        meta = self.state.meta.get(gid)
        if meta is None or gid in self.state.committed:
            return
        for idx in sorted(meta.participants):
            shard = self.shards[idx]
            if shard is not skip and shard.reap(gid, meta.session):
                self.state.dead.add(gid)

    def resolve_deadlock(self, origin: ShardServer, waiter: int) -> None:
        """:func:`~repro.service.server.break_deadlock` over every shard:
        the single server's victim rule, applied cluster-wide."""
        broken = break_deadlock(self.shards, origin, waiter)
        if broken is None:
            return
        victim, aborted_on = broken
        for shard in aborted_on:
            if shard is not origin:  # origin wakes as its own delivery ends
                shard.wake()
        self.state.dead.add(victim)

    # ------------------------------------------------------------------
    # deterministic fault & reconfiguration schedule
    # ------------------------------------------------------------------

    def _arm_faults(self) -> None:
        """One trigger per configured fault and map change, created in the
        order :meth:`tick` polls them."""
        cfg, arm = self.config, self.faults.trigger
        if cfg.partition_primary_after_commits is not None:
            # Isolate the primary alone: its backups keep serving reads at
            # whatever offset they reached — the stale-replica case.
            primary, commits = cfg.partition_primary_after_commits
            arm(
                lambda: self.commit_count >= commits,
                lambda: self._partition(self.shards[primary].name),
            )
        self._stress_crash = arm()  # holds its place for schedule_crash
        if cfg.crash_shard_after_prepares is not None:
            victim, prepares = cfg.crash_shard_after_prepares
            arm(
                lambda: self.shards[victim].prepare_count >= prepares
                and self.shards[victim].up,
                lambda: self._crash(
                    self.shards[victim], cfg.shard_restart_delay, _RESTART, victim
                ),
            )
        if cfg.partition_coordinator_after_prepares is not None:
            arm(
                lambda: self.coordinator.prepares_sent
                >= cfg.partition_coordinator_after_prepares,
                lambda: self._partition(self.coordinator.name),
            )
        if cfg.crash_replica_after_applies is not None:
            shard, ordinal, applies = cfg.crash_replica_after_applies
            replica = self.shard_slots[shard].replicas[ordinal]
            # The backup polls this one itself after every applied entry, so
            # the crash lands mid-catch-up: the rest of the shipped batch is
            # lost with the process.  (``up``: a promoted backup is retired,
            # whatever a hand-over drained into it.)
            replica.after_apply = arm(
                lambda: replica.up and replica.counters["applied"] >= applies,
                lambda: self._crash(
                    replica, cfg.replica_restart_delay,
                    _REPLICA_RESTART, shard, ordinal,
                ),
            ).poll
        previous = None
        for change in cfg.map_changes:
            # In order, each once it is due and its endpoints are quiescent
            # (polled again every tick until then).
            previous = arm(
                lambda change=change, previous=previous: (
                    self.commit_count >= change.after_commits
                    and (previous is None or previous.condition is None)
                    and self._ready(change)
                ),
                lambda change=change: self._apply_map_change(change),
            )

    def _partition(self, endpoint: str) -> None:
        """Cut ``endpoint`` off from everything; heal ``heal_after`` on."""
        self.network.set_partition((endpoint,))
        self.faults.at(
            (_HEAL,), self.network.now + self.config.heal_after,
            self.network.heal,
        )

    def _crash(self, server, restart_delay: int, *key: int) -> None:
        """Crash a shard or a backup; restart it ``restart_delay`` on."""
        server.crash()
        self.faults.at(key, self.network.now + restart_delay, server.restart)

    def schedule_crash(self, after_commits: int, restart_delay: int) -> None:
        """Arm the stress-level crash: shard 0 crashes once the cluster-wide
        commit count reaches ``after_commits`` (mirrors the single-server
        driver's ``crash_after_commits``)."""
        self._stress_crash.arm(
            lambda: self.commit_count >= after_commits and self.shards[0].up,
            lambda: self._crash(self.shards[0], restart_delay, _RESTART, 0),
        )

    def tick(self) -> None:
        """Advance the fault/reconfiguration schedule one driver step:
        restart due shards and backups, heal a due partition, then fire due
        crash/partition triggers and apply due (and quiescent) map changes
        — so a restart armed with a zero delay waits for the next step."""
        self.faults.run_due(self.network.now)
        self.faults.fire()

    @property
    def next_wake(self) -> Optional[int]:
        """The next tick the fault schedule needs attention at (drivers use
        this for idle jumps)."""
        return self.faults.next_wake

    def settle(self) -> None:
        """End-of-run: bring back any shard or backup still waiting out its
        restart delay, heal any scheduled partition (mirrors the
        single-server driver's final restart), then run the network until
        every in-flight two-phase commit resolves — a prepared transaction
        left in doubt would leave the merged history non-atomic (committed
        on one shard, unfinished on another)."""
        self.faults.settle()
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

    def _ready(self, change: MapChange) -> bool:
        """Whether a due map change can apply now.  A slot only moves
        between quiescent endpoints: no transaction is mid-flight over the
        keys being rehomed (in-doubt prepared state included), so the
        copied committed state is a consistent cut.  Prepared transactions
        may ride through a replacement or promotion: their redo records
        are durable and shared with the new endpoint."""
        if change.kind == "migrate":
            src = self._slot_owner(change.slot)
            dest = self.shards[change.to_shard]
            return src is dest or (
                src.quiescent(allow_prepared=False) and dest.up
            )
        if change.kind == "promote":
            backup = self.replica_of(change.shard, change.replica)
            if backup is None or not backup.up:
                return False
        return self.shards[change.shard].quiescent(allow_prepared=True)

    def _apply_map_change(self, change: MapChange) -> None:
        if change.kind == "migrate":
            self._migrate_slot(change.slot, change.to_shard)
        elif change.kind == "promote":
            self._promote(change.shard, change.replica)
        else:
            self._replace_shard(change.shard)

    def _slot_owner(self, slot: int) -> ShardServer:
        return self.shards[self._index_of(self.shard_map.assignment[slot])]

    def _migrate_slot(self, slot: int, to_shard: int) -> None:
        src = self._slot_owner(slot)
        dest = self.shards[to_shard]
        if src is dest:
            self.shard_map.migrate(slot, dest.name)
            return
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
                "cluster.migrate", slot=slot, src=src.name, dest=dest.name,
                objects=len(writes), map_version=version,
            )

    def _succeed(
        self, old: ShardServer, wal, name: Optional[str] = None
    ) -> Tuple[ShardServer, int]:
        """Retire ``old`` and stand its slot's next incarnation up on the
        durable log ``wal``, under ``name`` (default: the next
        ``shard<i>r<n>``).  Returns it with the new map version."""
        old.retire()
        self._replacements += 1
        if name is None:
            name = f"shard{old.index}r{self._replacements}"
        new = ShardServer(self, old.slot, name=name, recover_from=wal)
        self.shards[old.index] = new
        return new, self.shard_map.replace(old.name, name)

    def _replace_shard(self, index: int) -> None:
        old = self.shards[index]
        new, version = self._succeed(old, old.recorder)
        if self.tracer is not None:
            self.tracer.event(
                "cluster.replace", shard=index, old=old.name, new=new.name,
                map_version=version,
            )

    def _promote(self, index: int, ordinal: int) -> None:
        """Promote a backup to primary: drain the old primary's remaining
        log suffix into the backup in-process (a controlled failover hands
        over, it does not lose the tail), retire the old endpoint, and
        stand up a fresh :class:`ShardServer` *on the backup's durable WAL
        copy* under the backup's name — clients re-route via the map, the
        surviving backups keep catching up from the new primary."""
        old = self.shards[index]
        backup = self.replica_of(index, ordinal)
        for entry in (old.recorder.repl_log or [])[backup.applied:]:
            backup.apply(entry)
        # Future install keys from the promoted log must sort after every
        # key the retired primary ever issued.
        backup.wal.rebase(
            old.recorder._install_counter, old.recorder.position_base
        )
        backup.retire()
        new, version = self._succeed(old, backup.wal, backup.name)
        if self.certifier is not None:
            # Direct assignment, NOT attach_monitor: the primary's copies of
            # these events already fed the certifier — a replay would feed
            # every event twice.
            backup.wal.monitor = self.certifier
        new.arm_replication()
        if self.tracer is not None:
            self.tracer.event(
                "cluster.promote", shard=index, replica=ordinal,
                old=old.name, new=backup.name, map_version=version,
            )

    # ------------------------------------------------------------------
    # aggregated facade (the single-Server surface, cluster-wide)
    # ------------------------------------------------------------------

    def _incarnations(self) -> List[ShardServer]:
        """Every endpoint that ever served a slot: a retired one still
        counts toward the run's tallies."""
        return [s for slot in self.shard_slots for s in slot.incarnations]

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
        return sum(s.crashes for s in self._incarnations())

    @property
    def restarts(self) -> int:
        return sum(s.restarts for s in self._incarnations())

    @property
    def deadlock_victims(self) -> int:
        return sum(s.deadlock_victims for s in self._incarnations())

    @property
    def counters(self) -> Dict[str, int]:
        out = {"requests": 0, "dedup_hits": 0, "busy": 0, "shed": 0}
        for shard in self._incarnations():
            for key, value in shard.counters.items():
                out[key] = out.get(key, 0) + value
        if self.config.replicas:
            replicas = [r for slot in self.shard_slots for r in slot.replicas]
            for key in ("serves", "lagging", "applied", "dedup_hits"):
                out[f"replica_{key}"] = sum(r.counters[key] for r in replicas)
        return out

    @property
    def declared(self) -> Dict[int, Optional[IsolationLevel]]:
        return {gid: meta.declared for gid, meta in self.state.meta.items()}

    @property
    def certification_lag(self) -> int:
        return sum(s.certification_lag for s in self.shards)

    def flush_certification(self) -> Dict[int, Optional[bool]]:
        verdicts: Dict[int, Optional[bool]] = {}
        for shard in self.shards:
            verdicts.update(shard.flush_certification())
        return verdicts

    # -- observability (read-only; never touches cluster state) ----------

    @property
    def in_doubt(self) -> int:
        """Cross-shard transactions whose 2PC is still in flight."""
        return self.coordinator.pending

    def shard_certification_lags(self) -> Dict[int, int]:
        """Per-shard batched-certification backlog (shard index → lag)."""
        return {s.index: s.certification_lag for s in self.shards}

    def shard_queue_depths(self) -> Dict[int, int]:
        """Per-shard count of queued network messages addressed to the
        shard's current endpoint (in-flight load, not yet delivered)."""
        queued = self.network.queued_by_destination()
        return {s.index: queued.get(s.name, 0) for s in self.shards}

    def snapshot(self) -> Dict[str, Any]:
        """The cluster's state as plain data, for readers that look rarely
        (an anomaly dossier, the run report, the flight recorder's lanes):
        2PC in flight, one row per shard, one per live backup with the log
        entries it trails its primary by, and the map version.  The
        per-iteration gauges above stay the cheap way to watch a run."""
        state: Dict[str, Any] = {
            "two_pc": self.coordinator.snapshot(),
            "shards": [
                {
                    "shard": s.index, "name": s.name, "up": s.up,
                    "commits": s.commit_count,
                    "certification_lag": s.certification_lag,
                }
                for s in self.shards
            ],
        }
        if self.config.replicas:
            state["replicas"] = [
                {
                    "shard": slot.index, "replica": r.ordinal, "name": r.name,
                    "up": r.up, "applied": r.applied, "lag": r.lag,
                }
                for slot in self.shard_slots
                for r in slot.replicas
                if not r.retired
            ]
        state["map_version"] = self.shard_map.version
        return state

    # ------------------------------------------------------------------
    # the merged global history
    # ------------------------------------------------------------------

    def history(self, *, validate: bool = True) -> History:
        """The cluster's execution as *one* Adya history: the per-shard
        durable logs and the replica-served reads, folded by
        :func:`~repro.service.certifier.merge_history`."""
        return merge_history(
            self.shard_slots, now=self.network.now, validate=validate
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
        net, scheduler, config=cluster, initial=initial, monitor=monitor,
        metrics=metrics, tracer=tracer, admission=admission,
    )
