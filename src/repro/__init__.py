"""repro — Generalized Isolation Level Definitions.

A complete implementation of Adya, Liskov & O'Neil, *Generalized Isolation
Level Definitions* (ICDE 2000): Adya-style multi-version transaction
histories with predicates, direct serialization graphs, the generalized
phenomena G0/G1/G2, the portable isolation levels PL-1 … PL-3 (plus the
thesis extensions PL-2+, PL-SI, PL-CS), mixed-level correctness, the
preventative P0–P3 baseline, an isolation checker, and a deterministic
multi-scheduler transactional engine for generating real histories.

Quick start::

    import repro

    report = repro.check("r1(x0, 5) w1(x1, 1) r2(x1, 1) r2(y0, 5) c2 "
                         "r1(y0, 5) w1(y1, 9) c1")
    print(report.strongest_level)   # PL-2: the history exhibits G2
    print(report.explain())

Run transactions against a real engine (``repro.connect`` opens any
scheduler family), or push them through the fault-injected client/server
layer (``repro.service``) and watch every commit get live-certified::

    db = repro.connect("locking", level="serializable", initial={"x": 0})
    t = db.begin()
    t.write("x", t.read("x") + 1)
    t.commit()

    result = repro.run_stress(repro.StressConfig(seed=7, crash_after_commits=30))
    assert result.all_certified

Scale the service out: a sharded cluster with cross-shard two-phase
commit and global certification is one config away
(``repro.connect_cluster`` opens it interactively)::

    sharded = repro.StressConfig(cluster=repro.ClusterConfig(shards=3))
    assert repro.run_stress(sharded).all_certified
"""

from ._surface import exports

__version__ = "1.0.0"

__all__ = [*exports(__name__, {
    "ANSI_CHAIN": ".core",
    "DSG": ".core",
    "MSG": ".core",
    "SSG": ".core",
    "Analysis": ".core",
    "Cycle": ".core",
    "DepKind": ".core",
    "Edge": ".core",
    "History": ".core",
    "IncrementalAnalysis": ".core",
    "IsolationLevel": ".core",
    "LevelVerdict": ".core",
    "Phenomenon": ".core",
    "PhenomenonReport": ".core",
    "PredicateDepMode": ".core",
    "Version": ".core",
    "VersionKind": ".core",
    "classify": ".core",
    "format_history": ".core",
    "mixing_correct": ".core",
    "parse_history": ".core",
    "satisfies": ".core",
    "CheckReport": ".checker",
    "check": ".checker",
    "check_level": ".checker",
    "check_many": ".checker",
    "Database": ".engine",
    "SchedulerConfig": ".engine",
    "SimulationResult": ".engine",
    "Simulator": ".engine",
    "TransactionHandle": ".engine",
    "connect": ".engine",
    "create_scheduler": ".engine",
    "Client": ".service",
    "ClusterConfig": ".service",
    "NetworkConfig": ".service",
    "OpCheckResult": ".analysis",
    "RetryPolicy": ".service",
    "Server": ".service",
    "SessionGuarantees": ".service",
    "ShardMap": ".service",
    "SimulatedNetwork": ".service",
    "StressConfig": ".service",
    "StressResult": ".service",
    "check_operations": ".analysis",
    "connect_cluster": ".service",
    "run_stress": ".service",
    "FlightRecorder": ".observability",
    "MetricsRegistry": ".observability",
    "Tracer": ".observability",
    "HistoryError": ".exceptions",
    "MalformedHistoryError": ".exceptions",
    "ParseError": ".exceptions",
    "ReproError": ".exceptions",
    "TransactionAborted": ".exceptions",
    "VersionOrderError": ".exceptions",
}), "__version__"]
