"""Service-layer guard: the client/server stack must stay honest.

**Fault-schedule table** — one stress run per fault schedule, the
regenerated table recording commits, retries, dedup hits and the
certification verdict.  Every schedule must end fully certified: faults
cost retries and aborts, never isolation.  (What the stack costs in time
is the ladder's business: ``engine_direct`` against ``svc_single`` and
``svc_single_faulty`` in ``benchmarks/ladder``.)
"""

from __future__ import annotations

from repro.core.levels import IsolationLevel
from repro.service import NetworkConfig, RetryPolicy, StressConfig, run_stress

_SCHEDULES = [
    ("perfect", NetworkConfig()),
    ("reorder", NetworkConfig(min_delay=1, max_delay=6)),
    ("drops", NetworkConfig(drop=0.1, min_delay=1, max_delay=3)),
    ("dups", NetworkConfig(duplicate=0.15, min_delay=1, max_delay=3)),
    (
        "drops+dups",
        NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4),
    ),
]


def test_fault_schedule_table(record_table):
    rows = [
        f"{'schedule':12} {'commits':>7} {'aborts':>6} {'retries':>7} "
        f"{'dedup':>5} {'busy':>5} {'certified':>9}"
    ]
    for name, cfg in _SCHEDULES:
        result = run_stress(
            StressConfig(
                clients=3,
                txns_per_client=10,
                seed=17,
                network=cfg,
                retry=RetryPolicy(timeout=12),
                crash_after_commits=10,
            )
        )
        assert result.committed == 30
        assert result.all_certified, f"{name}: certification failed"
        assert result.strongest_level() is IsolationLevel.PL_3
        rows.append(
            f"{name:12} {result.committed:7d} {result.client_aborts:6d} "
            f"{result.client_stats['retries']:7d} "
            f"{result.server_counters['dedup_hits']:5d} "
            f"{result.server_counters['busy']:5d} "
            f"{'yes' if result.all_certified else 'NO':>9}"
        )
    record_table("service_faults", "\n".join(rows))
