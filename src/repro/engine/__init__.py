"""Transactional engine: storage, schedulers, database facade, simulator.

The engine exists to generate *real* histories from real concurrency-control
implementations — locking per Figure 1, backward-validation OCC, and
multi-version schemes — which the checker then classifies, demonstrating the
paper's central claim of implementation-independence.
"""

from .._surface import exports

__all__ = exports(__name__, {
    "Database": ".database",
    "TransactionHandle": ".database",
    "SCHEDULERS": ".factory",
    "SchedulerConfig": ".factory",
    "connect": ".factory",
    "create_scheduler": ".factory",
    "PROFILES": ".locking",
    "LockProfile": ".locking",
    "LockingScheduler": ".locking",
    "profile_for_level": ".locking",
    "LockDuration": ".locks",
    "LockManager": ".locks",
    "LockMode": ".locks",
    "MixedOptimisticScheduler": ".mixed_optimistic",
    "MobileClient": ".mobile",
    "MobileCluster": ".mobile",
    "MobileTxn": ".mobile",
    "SyncResult": ".mobile",
    "ReadCommittedMVScheduler": ".mvcc",
    "SnapshotIsolationScheduler": ".mvcc",
    "OptimisticScheduler": ".optimistic",
    "Compute": ".programs",
    "Conditional": ".programs",
    "Count": ".programs",
    "Delete": ".programs",
    "DeleteWhere": ".programs",
    "Increment": ".programs",
    "Insert": ".programs",
    "PredicateReadStep": ".programs",
    "Program": ".programs",
    "Read": ".programs",
    "Select": ".programs",
    "Step": ".programs",
    "UpdateWhere": ".programs",
    "Write": ".programs",
    "HistoryRecorder": ".recorder",
    "PredicateResult": ".scheduler",
    "Scheduler": ".scheduler",
    "ProgramOutcome": ".simulator",
    "SimulationResult": ".simulator",
    "Simulator": ".simulator",
    "MultiVersionStore": ".storage",
    "StoredVersion": ".storage",
    "Transaction": ".transaction",
    "TxnState": ".transaction",
})
