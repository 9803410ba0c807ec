"""Cluster guard: the scaling table must stay honest.

**Shard-count scaling table** — one seeded cross-shard stress run per
shard count, the regenerated table recording commits, 2PC decisions,
retransmits and the certification verdict.  Every row must end fully
certified: sharding costs messages, never isolation.  (What sharding
costs in time is the ladder's business: ``svc_single`` against
``svc_cluster_2x2`` in ``benchmarks/ladder``.)
"""

from __future__ import annotations

from dataclasses import replace

from repro.service import (
    ClusterConfig,
    NetworkConfig,
    StressConfig,
    run_stress,
)

_BASE = StressConfig(
    scheduler="locking",
    clients=4,
    txns_per_client=15,
    keys=8,
    ops_per_txn=2,
    seed=17,
    network=NetworkConfig(min_delay=1, max_delay=3),
)


def test_shard_scaling_table(record_table):
    rows = [
        f"{'shards':>6} {'commits':>7} {'2pc-commit':>10} {'2pc-abort':>9} "
        f"{'retrans':>7} {'ticks':>6} {'certified':>9}"
    ]
    for shards in (1, 2, 3, 4):
        result = run_stress(
            replace(_BASE, cluster=ClusterConfig(shards=shards))
        )
        assert result.committed == 60
        assert result.all_certified, f"shards={shards}: certification failed"
        coord = result.cluster.coordinator
        assert coord.pending == 0
        if shards > 1:
            # The workload genuinely crosses shards.
            assert coord.decisions["commit"] > 0
        rows.append(
            f"{shards:6d} {result.committed:7d} "
            f"{coord.decisions['commit']:10d} {coord.decisions['abort']:9d} "
            f"{coord.retransmits:7d} {result.ticks:6d} "
            f"{'yes' if result.all_certified else 'NO':>9}"
        )
    record_table("cluster_scaling", "\n".join(rows))
