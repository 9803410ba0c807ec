"""Cluster observability table: what watching the cluster records.

One bare and one fully instrumented run (metrics registry + tracer +
flight recorder, the ``repro dossier`` configuration) of the same seeded
replicated workload, the regenerated table recording wall time, span
count and dossier count.  (The traced-vs-bare *bound* is the ladder's
business: ``svc_cluster_traced`` in ``benchmarks/ladder``.)
"""

from __future__ import annotations

import time

from repro.observability import FlightRecorder, MetricsRegistry, Tracer
from repro.service import (
    ClusterConfig,
    NetworkConfig,
    StressConfig,
    run_stress,
)

_REPLICATED = StressConfig(
    scheduler="locking",
    clients=4,
    txns_per_client=15,
    keys=8,
    ops_per_txn=2,
    seed=17,
    network=NetworkConfig(min_delay=1, max_delay=3),
    cluster=ClusterConfig(
        shards=2, replicas=2, replication_every=12, replication_lag=(4, 10)
    ),
    read_preference="replica",
    read_only_fraction=0.5,
)


def _best_of(config: StressConfig, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run_stress(config)
        best = min(best, time.perf_counter() - start)
    return best


def test_observability_table(record_table):
    rows = [f"{'mode':>22} {'ms':>8} {'spans':>7} {'dossiers':>8}"]
    bare = _best_of(_REPLICATED)
    rows.append(f"{'bare':>22} {bare * 1000:8.1f} {0:7d} {0:8d}")
    tracer, flight = Tracer(), FlightRecorder()
    start = time.perf_counter()
    result = run_stress(
        _REPLICATED, metrics=MetricsRegistry(), tracer=tracer, flight=flight
    )
    traced = time.perf_counter() - start
    spans = sum(1 for r in tracer.records if r["kind"] == "span")
    rows.append(
        f"{'metrics+trace+flight':>22} {traced * 1000:8.1f} "
        f"{spans:7d} {len(result.dossiers()):8d}"
    )
    record_table("cluster_observability", "\n".join(rows))
