"""Replication guard: the replica-lag table must stay honest.

**Replica-lag table** — one seeded replicated run per read preference /
guarantee combination, recording replica serves, lagging redirects,
session-guarantee violations and the opcheck verdict.  Enforced sessions
must end violation-free; stale-by-choice rows must witness what they
served.  (What replication costs in time is the ladder's business:
``svc_cluster_2x2`` in ``benchmarks/ladder``.)
"""

from __future__ import annotations

from dataclasses import replace

from repro.service import (
    ClusterConfig,
    NetworkConfig,
    SessionGuarantees,
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
    cluster=ClusterConfig(shards=2),
)


def test_replica_lag_table(record_table):
    rows = [
        f"{'config':>24} {'commits':>7} {'serves':>6} {'lagging':>7} "
        f"{'violations':>10} {'opcheck':>8}"
    ]
    cases = [
        (
            "primary",
            replace(
                _BASE,
                cluster=ClusterConfig(shards=2, replicas=2),
                read_only_fraction=0.5,
            ),
        ),
        (
            "replica+causal",
            replace(
                _BASE,
                level="PL-2",
                cluster=ClusterConfig(shards=2, replicas=2),
                read_preference="replica",
                session_guarantees=SessionGuarantees(causal=True),
                read_only_fraction=0.5,
            ),
        ),
        (
            "replica+stale",
            replace(
                _BASE,
                level="PL-2",
                keys=4,
                cluster=ClusterConfig(
                    shards=2, replicas=2, replication_every=12,
                    replication_lag=(4, 10),
                ),
                read_preference="replica",
                read_only_fraction=0.5,
            ),
        ),
    ]
    for name, config in cases:
        result = run_stress(config)
        assert result.all_certified, f"{name}: certification failed"
        counters = result.cluster.counters
        verdict = result.opcheck()
        violations = len(result.session_violations)
        if config.session_guarantees is not None:
            assert violations == 0, f"{name}: enforced session violated"
        rows.append(
            f"{name:>24} {result.committed:>7} "
            f"{counters['replica_serves']:>6} "
            f"{counters['replica_lagging']:>7} {violations:>10} "
            f"{'ok' if verdict.ok else 'diverged':>8}"
        )
    record_table("replication_lag", "\n".join(rows))
