"""Deterministic client/server service layer over the engine.

A single-process, seeded simulation of a database service: a
:class:`Server` wraps a :class:`~repro.engine.database.Database` behind a
:class:`SimulatedNetwork` that drops, delays, duplicates and partitions
messages; :class:`Client` sessions retry with idempotency tokens and
exponential backoff; the server can :meth:`~Server.crash` and
:meth:`~Server.restart`, recovering committed state from the recorder log.
:func:`run_stress` drives seeded multi-client workloads through the whole
stack and live-certifies every commit against its declared isolation level
with the online :class:`~repro.core.incremental.IncrementalAnalysis`.

Everything is deterministic: same seeds and configs, same history and same
client journals, byte for byte.
"""

from .._surface import exports

__all__ = exports(__name__, {
    "AdmissionConfig": ".config",
    "CapacityResult": ".capacity",
    "CapacityRung": ".capacity",
    "Client": ".client",
    "Cluster": ".cluster",
    "ClusterClient": ".cluster",
    "ClusterConfig": ".config",
    "Coordinator": ".coordinator",
    "MapChange": ".config",
    "NetworkConfig": ".config",
    "PendingCall": ".client",
    "ReplicaServer": ".replication",
    "RequestTimeout": ".errors",
    "RetryPolicy": ".config",
    "SchedulerConfig": ".config",
    "Server": ".server",
    "ServiceAborted": ".errors",
    "ServiceError": ".errors",
    "ServiceUnavailable": ".errors",
    "SessionGuarantees": ".config",
    "SessionVector": ".replication",
    "ShardMap": ".shardmap",
    "ShardServer": ".cluster",
    "SimulatedNetwork": ".network",
    "StressConfig": ".config",
    "StressResult": ".stress",
    "build_capacity_report": ".capacity",
    "connect_cluster": ".cluster",
    "find_knee": ".capacity",
    "run_capacity": ".capacity",
    "run_stress": ".stress",
})
