"""Service-layer configuration: frozen, keyword-only dataclasses.

Every knob of the client/server stack lives in one of three configs —
:class:`NetworkConfig` (the simulated unreliable network),
:class:`RetryPolicy` (client timeout/retry/backoff behaviour) and
:class:`~repro.engine.factory.SchedulerConfig` (the engine under the
server, re-exported here).  All three are frozen and keyword-only: a
config value is an immutable fact about a run, and two runs built from
equal configs and seeds replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from ..engine.factory import SchedulerConfig

__all__ = [
    "AdmissionConfig",
    "ClusterConfig",
    "MapChange",
    "NetworkConfig",
    "RetryPolicy",
    "SchedulerConfig",
    "SessionGuarantees",
    "StressConfig",
]


@dataclass(frozen=True, kw_only=True)
class NetworkConfig:
    """Fault schedule of the simulated network (labrpc-style, but fully
    deterministic: one seeded RNG, logical-tick delays, no threads).

    Probabilities apply independently to every message — requests *and*
    replies — so a lost reply after an applied write really happens, which
    is exactly the case idempotency tokens exist for.
    """

    #: RNG seed for every network fault decision.
    seed: int = 0
    #: P(message silently lost).
    drop: float = 0.0
    #: P(message delivered a second time, at an independent delay).
    duplicate: float = 0.0
    #: Delivery delay bounds in logical ticks (inclusive); with
    #: ``min_delay < max_delay`` messages genuinely reorder.
    min_delay: int = 1
    max_delay: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop < 1.0):
            raise ValueError("drop must be in [0, 1)")
        if not (0.0 <= self.duplicate <= 1.0):
            raise ValueError("duplicate must be in [0, 1]")
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError("need 0 <= min_delay <= max_delay")

    @property
    def faulty(self) -> bool:
        """Whether any fault is enabled (zero-fault runs skip the RNG for
        delays only when the bounds pin them)."""
        return self.drop > 0 or self.duplicate > 0 or self.min_delay != self.max_delay

    def with_seed(self, seed: int) -> "NetworkConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True, kw_only=True)
class AdmissionConfig:
    """Server-side admission control and certification backpressure.

    With ``max_active`` set, a ``begin`` that would push the number of
    concurrently active transactions past the bound is **load-shed**: the
    server answers ``{"error": "shed", "retry_after": ticks}`` without
    touching the engine, and the client backs off for the server-directed
    interval before retrying the same idempotency token.  ``shed_probability``
    makes the bound soft: above the bound each begin is shed with that
    seeded probability (1.0 = hard bound); draws come from the server's own
    admission RNG, so shedding replays identically per seed.

    ``on_uncertified`` wires :mod:`repro.analysis.repair` into the serve
    path: when a live certification fails (a committed transaction's
    declared level was violated), the server either

    * ``"ignore"`` — record the verdict only (the default);
    * ``"downgrade"`` — downgrade *the session*: subsequent transactions
      on the violating session are declared at the strongest level the
      monitor still certifies (emitted as an ``admission.downgrade`` trace
      event);
    * ``"repair"`` — compute the abort-to-restore suggestion (which
      committed transactions would have to abort, cascades included, for
      the history to provide the declared level again) and emit it as an
      ``admission.repair`` trace event plus
      :attr:`~repro.service.server.Server.repair_suggestions`.
    """

    #: Maximum concurrently active transactions (0 disables shedding).
    max_active: int = 0
    #: Ticks the shed reply tells the client to stay away.
    retry_after: int = 8
    #: P(shed | over the bound); draws are seeded (see ``seed``).
    shed_probability: float = 1.0
    #: RNG seed for the soft-bound shed draws.
    seed: int = 0
    #: Reaction to a failed live certification; see class docstring.
    on_uncertified: str = "ignore"
    #: Certify commits in batches of this size instead of one by one —
    #: commits awaiting a verdict are the *certification lag*.  1 keeps
    #: today's certify-every-commit behaviour (replies carry the verdict).
    certify_every: int = 1

    def __post_init__(self) -> None:
        if self.max_active < 0 or self.retry_after < 1:
            raise ValueError("need max_active >= 0 and retry_after >= 1")
        if not (0.0 <= self.shed_probability <= 1.0):
            raise ValueError("shed_probability must be in [0, 1]")
        if self.on_uncertified not in ("ignore", "downgrade", "repair"):
            raise ValueError(
                "on_uncertified must be 'ignore', 'downgrade' or 'repair'"
            )
        if self.certify_every < 1:
            raise ValueError("certify_every must be >= 1")


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """Client-side timeout/retry/backoff policy.

    All durations are logical network ticks.  Retries reuse the original
    request's idempotency token, so a retry can never double-apply an
    operation the server already executed.
    """

    #: Attempts per logical operation (first try included).
    max_attempts: int = 10
    #: Ticks to wait for a reply before retrying.
    timeout: int = 20
    #: Backoff before retry *n* is ``backoff * factor**(n-1)``, capped.
    backoff: int = 2
    factor: float = 2.0
    max_backoff: int = 64

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout < 1 or self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("timeout must be >= 1 and backoffs >= 0")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1.0")

    def backoff_before(self, attempt: int) -> int:
        """Ticks of backoff before retry ``attempt`` (attempt 1 = first
        retry).  Deterministic — the schedule is part of the observable
        history, so no jitter."""
        if attempt < 1:
            return 0
        return min(int(self.backoff * self.factor ** (attempt - 1)), self.max_backoff)

    def schedule(self) -> tuple:
        """The full backoff schedule, one entry per possible retry."""
        return tuple(
            self.backoff_before(n) for n in range(1, self.max_attempts)
        )


@dataclass(frozen=True, kw_only=True)
class MapChange:
    """One scheduled shard-map reconfiguration, triggered when the
    cluster-wide committed-transaction count reaches ``after_commits``
    (commit counts are deterministic per seed, so the schedule replays
    byte-for-byte).

    ``kind="migrate"`` moves one hash slot — and the committed state of
    every key in it — from its current owner to ``to_shard``.
    ``kind="replace"`` retires shard ``shard``'s endpoint and brings up a
    replacement endpoint recovered from the same durable recorder log (the
    regression case for clients retrying a commit against the old name).
    ``kind="promote"`` drains the replication stream of shard ``shard``,
    retires its primary and promotes backup ``replica`` (0-based ordinal)
    to primary under the backup's own endpoint name — the planned-failover
    reconfiguration of a replicated shard.  Every change waits until the
    affected source shard is quiescent (no active or prepared
    transactions), then applies atomically between delivery sweeps.
    """

    #: Apply once the cluster-wide commit count reaches this.
    after_commits: int
    #: ``"migrate"``, ``"replace"`` or ``"promote"``.
    kind: str
    #: Hash slot to move (``migrate`` only).
    slot: Optional[int] = None
    #: Destination shard index (``migrate`` only).
    to_shard: Optional[int] = None
    #: Shard index whose endpoint is replaced/promoted
    #: (``replace``/``promote``).
    shard: Optional[int] = None
    #: Backup ordinal to promote (``promote`` only).
    replica: Optional[int] = None

    def __post_init__(self) -> None:
        if self.after_commits < 0:
            raise ValueError("after_commits must be >= 0")
        if self.kind == "migrate":
            if self.slot is None or self.to_shard is None:
                raise ValueError("migrate changes need slot= and to_shard=")
        elif self.kind == "replace":
            if self.shard is None:
                raise ValueError("replace changes need shard=")
        elif self.kind == "promote":
            if self.shard is None or self.replica is None:
                raise ValueError("promote changes need shard= and replica=")
        else:
            raise ValueError("kind must be 'migrate', 'replace' or 'promote'")


@dataclass(frozen=True, kw_only=True)
class SessionGuarantees:
    """Bayou-style per-session guarantees for replica-served reads.

    A session tracks a vector of per-shard *watermarks* — replication-log
    offsets of the primary WAL.  Commit replies raise the session's write
    watermark for every participant shard; replica read replies raise the
    read watermark.  A guarantee turns a watermark into a floor the next
    replica read must satisfy:

    * ``read_your_writes`` — reads must reflect the session's own
      committed writes (floor = write watermark);
    * ``monotonic_reads`` — reads never observe state older than a state
      the session already observed (floor = read watermark);
    * ``causal`` — both, plus every offset the session has learned from
      any reply (floor = the merged session vector), the per-shard
      approximation of causal consistency.

    ``on_lag`` picks what happens when the chosen replica is behind the
    floor: ``"redirect"`` re-routes that read to the shard primary (fresh
    by construction), ``"wait"`` backs off and retries the same replica
    until it catches up.  With every guarantee off the session reads
    stale-by-choice: no floor is sent, and the client instead *records* a
    violation witness whenever a reply would have broken a guarantee.
    """

    read_your_writes: bool = False
    monotonic_reads: bool = False
    causal: bool = False
    #: ``"redirect"`` or ``"wait"`` — reaction to a lagging replica.
    on_lag: str = "redirect"

    def __post_init__(self) -> None:
        if self.on_lag not in ("redirect", "wait"):
            raise ValueError("on_lag must be 'redirect' or 'wait'")

    @property
    def enforced(self) -> bool:
        """Whether any guarantee is switched on."""
        return self.read_your_writes or self.monotonic_reads or self.causal

    @classmethod
    def parse(cls, text: str) -> "SessionGuarantees":
        """Build from a CLI-style spec: comma-separated guarantee names
        (``ryw``/``read-your-writes``, ``mr``/``monotonic-reads``,
        ``causal``), optionally ``wait`` or ``redirect``; ``none`` or an
        empty string disables everything."""
        kwargs: dict = {}
        for raw in text.split(","):
            token = raw.strip().lower().replace("_", "-")
            if token in ("", "none", "off"):
                continue
            elif token in ("ryw", "read-your-writes"):
                kwargs["read_your_writes"] = True
            elif token in ("mr", "monotonic-reads"):
                kwargs["monotonic_reads"] = True
            elif token == "causal":
                kwargs["causal"] = True
            elif token in ("wait", "redirect"):
                kwargs["on_lag"] = token
            else:
                raise ValueError(f"unknown session guarantee {raw.strip()!r}")
        return cls(**kwargs)


@dataclass(frozen=True, kw_only=True)
class ClusterConfig:
    """Shape and fault schedule of a sharded cluster (mirrors
    :class:`~repro.engine.factory.SchedulerConfig` / :class:`NetworkConfig`:
    frozen, keyword-only, fully deterministic).

    A cluster is ``shards`` deterministic servers, each owning the hash
    slots the versioned :class:`~repro.service.shardmap.ShardMap` assigns
    it, plus a two-phase-commit coordinator endpoint for cross-shard
    transactions.  ``map_changes`` schedules mid-run reconfigurations;
    the ``*_after_prepares`` knobs schedule the cross-shard fault matrix
    (a shard crash between prepare and commit, the coordinator partitioned
    mid-prepare) at deterministic points in the 2PC message flow.
    """

    #: Number of shard servers.
    shards: int = 2
    #: Hash slots in the shard map (keys hash to slots, slots to shards).
    slots: int = 16
    #: Scheduled reconfigurations, applied in order.
    map_changes: Tuple[MapChange, ...] = ()
    #: Coordinator retransmit period for unacked prepare/decide messages
    #: (the 2PC timeout; logical ticks).
    retry_every: int = 25
    #: Crash shard ``(index, n)`` right after it executes its ``n``-th
    #: prepare — between prepare and commit, the WAL-recovery fault case.
    crash_shard_after_prepares: Optional[Tuple[int, int]] = None
    #: Ticks until a fault-schedule-crashed shard restarts.
    shard_restart_delay: int = 30
    #: Partition the coordinator away from every shard once it has sent
    #: this many prepares (mid-prepare), healing after ``heal_after``.
    partition_coordinator_after_prepares: Optional[int] = None
    #: Ticks until the coordinator partition heals.
    heal_after: int = 40
    #: Backups per shard (0 = unreplicated; the primary then ships no
    #: replication log and the run is byte-identical to the plain path).
    replicas: int = 0
    #: Replication pump period: every this many ticks a primary ships its
    #: unacknowledged WAL suffix to each backup (logical ticks).
    replication_every: int = 4
    #: Seeded shipping-delay bounds per replication batch (inclusive
    #: ticks) — the lag distribution replica reads observe.
    replication_lag: Tuple[int, int] = (1, 4)
    #: Crash backup ``(shard, replica, n)`` once it has applied ``n`` log
    #: entries — the backup-crash-mid-catch-up fault case; it restarts
    #: from its durable log after ``replica_restart_delay``.
    crash_replica_after_applies: Optional[Tuple[int, int, int]] = None
    #: Ticks until a fault-schedule-crashed backup restarts.
    replica_restart_delay: int = 30
    #: Partition shard ``(index)``'s primary from everything once the
    #: cluster-wide commit count reaches ``(commits)`` — backups keep
    #: serving (stale) reads; heals after ``heal_after``.
    partition_primary_after_commits: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.slots < self.shards:
            raise ValueError("need at least one slot per shard")
        if self.retry_every < 1:
            raise ValueError("retry_every must be >= 1")
        if self.shard_restart_delay < 1 or self.heal_after < 1:
            raise ValueError("restart/heal delays must be >= 1")
        try:
            changes = tuple(self.map_changes)
        except TypeError:
            raise TypeError(
                "map_changes must be a tuple of MapChange entries"
            ) from None
        if any(not isinstance(c, MapChange) for c in changes):
            raise TypeError("map_changes must be a tuple of MapChange entries")
        object.__setattr__(self, "map_changes", changes)
        for change in changes:
            if change.kind == "migrate":
                if not (0 <= change.slot < self.slots):
                    raise ValueError(f"migrate slot {change.slot} out of range")
                if not (0 <= change.to_shard < self.shards):
                    raise ValueError(
                        f"migrate to_shard {change.to_shard} out of range"
                    )
            elif not (0 <= change.shard < self.shards):
                raise ValueError(f"replace shard {change.shard} out of range")
            elif change.kind == "promote" and not (
                0 <= change.replica < self.replicas
            ):
                raise ValueError(
                    f"promote replica {change.replica} out of range"
                )
        if self.crash_shard_after_prepares is not None:
            shard, count = self.crash_shard_after_prepares
            if not (0 <= shard < self.shards) or count < 1:
                raise ValueError(
                    "crash_shard_after_prepares is (shard index, nth prepare)"
                )
        if (
            self.partition_coordinator_after_prepares is not None
            and self.partition_coordinator_after_prepares < 1
        ):
            raise ValueError(
                "partition_coordinator_after_prepares must be >= 1"
            )
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        if self.replication_every < 1:
            raise ValueError("replication_every must be >= 1")
        lag_min, lag_max = self.replication_lag
        if lag_min < 1 or lag_max < lag_min:
            raise ValueError("need 1 <= replication_lag[0] <= [1]")
        if self.crash_replica_after_applies is not None:
            shard, replica, count = self.crash_replica_after_applies
            if (
                not (0 <= shard < self.shards)
                or not (0 <= replica < self.replicas)
                or count < 1
            ):
                raise ValueError(
                    "crash_replica_after_applies is (shard, replica, "
                    "nth applied log entry)"
                )
        if self.replica_restart_delay < 1:
            raise ValueError("replica_restart_delay must be >= 1")
        if self.partition_primary_after_commits is not None:
            shard, commits = self.partition_primary_after_commits
            if not (0 <= shard < self.shards) or commits < 0:
                raise ValueError(
                    "partition_primary_after_commits is (shard, commits)"
                )

    def shard_names(self) -> Tuple[str, ...]:
        return tuple(f"shard{i}" for i in range(self.shards))

    def replica_names(self, shard: int) -> Tuple[str, ...]:
        """Endpoint names of shard ``shard``'s backups."""
        return tuple(
            f"shard{shard}.r{j + 1}" for j in range(self.replicas)
        )


@dataclass(frozen=True, kw_only=True)
class StressConfig:
    """Everything that shapes one :func:`~repro.service.stress.run_stress`
    run, as a single frozen config.

    Two runs built from equal configs replay byte-for-byte.  Build one and
    pass it to :func:`~repro.service.stress.run_stress`,
    :func:`~repro.service.capacity.run_capacity` or the CLI.
    """

    #: Engine under the server(s): a family name or full config.
    scheduler: Any = "locking"
    #: Declared isolation level for every transaction (None = natural).
    level: Optional[Any] = None
    #: Concurrent client sessions (the worker pool in open-loop mode).
    clients: int = 4
    #: Closed-loop commit quota per client (ignored in open-loop mode).
    txns_per_client: int = 25
    #: Size of the hot key space (``k0 .. k{keys-1}``).
    keys: int = 8
    #: Read-modify-write pairs per transaction.
    ops_per_txn: int = 2
    #: Master seed (driver, scripts, network fault schedule).
    seed: int = 0
    #: Simulated-network fault schedule (None = default, re-seeded).
    network: Optional[NetworkConfig] = None
    #: Client retry/backoff policy (None = default).
    retry: Optional[RetryPolicy] = None
    #: Crash the server (shard 0 in cluster mode) after N commits.
    crash_after_commits: Optional[int] = None
    #: Ticks until the crashed server restarts.
    restart_delay: int = 25
    #: Hard budget on the run's logical ticks.
    max_ticks: int = 2_000_000
    #: Open-loop arrival process (None = closed loop).
    arrivals: Optional[Any] = None
    #: Offered-load horizon in ticks (open loop only).
    horizon: Optional[int] = None
    #: Zipf-skewed key sampler (None = uniform picks).
    hot_keys: Optional[Any] = None
    #: Server-side admission control / certification batching.
    admission: Optional[AdmissionConfig] = None
    #: A WindowedTelemetry to feed (purely observational).
    windows: Optional[Any] = None
    #: Run against a sharded cluster instead of one server.
    cluster: Optional[ClusterConfig] = None
    #: Where plain (non-locking) reads go in a replicated cluster:
    #: ``"primary"``, ``"replica"`` (rotate over backups) or ``"nearest"``
    #: (one deterministic session-pinned endpoint, primary included).
    read_preference: str = "primary"
    #: Per-session guarantees for replica reads (None = stale-by-choice).
    session_guarantees: Optional[SessionGuarantees] = None
    #: Fraction of transactions that are pure read-only (no writes, plain
    #: reads that honour ``read_preference``); 0.0 draws nothing and keeps
    #: unreplicated runs byte-identical to earlier releases.
    read_only_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1 or self.txns_per_client < 0:
            raise ValueError("need clients >= 1 and txns_per_client >= 0")
        if self.keys < 1 or self.ops_per_txn < 1:
            raise ValueError("need keys >= 1 and ops_per_txn >= 1")
        if self.arrivals is not None and self.horizon is None:
            raise ValueError(
                "open-loop runs need horizon= (ticks of offered load)"
            )
        if self.read_preference not in ("primary", "replica", "nearest"):
            raise ValueError(
                "read_preference must be 'primary', 'replica' or 'nearest'"
            )
        if not (0.0 <= self.read_only_fraction <= 1.0):
            raise ValueError("read_only_fraction must be in [0, 1]")
