"""The seven workloads ("rungs") of the ladder and their correctness gates.

Each rung is three plain functions:

* ``build(seed, shrink)`` — generate the list of inputs the repeats rotate
  through (part of ``setup_s``; the program only ever sees its elements).
  Where the work per commit depends on the seed (deadlock patterns), the
  list holds :data:`SUBSEEDS` inputs from sub-seeds of ``seed``, so one run
  averages over them and runs with different seeds stay comparable;
* ``run(inputs)`` — the timed call on one element, nothing else;
* ``inspect(inputs, raw)`` — untimed: count events/commits, check the
  outputs and digest the per-seed artifact.

``shrink`` divides every size (1 = full ladder, 10 = ``--smoke``).  The
service rungs share one contended :data:`BASE` config on purpose: lock
waits and busy replies are what the stress driver's polling multiplies, so
single-server and cluster numbers stay comparable layer by layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import repro
from repro.core.formatting import format_history
from repro.core.incremental import IncrementalAnalysis
from repro.core.levels import IsolationLevel
from repro.engine import Database, Simulator
from repro.observability import FlightRecorder, MetricsRegistry, Tracer
from repro.service import ClusterConfig, NetworkConfig, StressConfig, run_stress
from repro.workloads import WorkloadConfig, random_programs, synthetic_history

__all__ = ["FAMILIES", "Outcome", "RUNGS", "Rung"]

#: Engine families ``engine_direct`` sweeps, in run order.
FAMILIES = ("locking", "optimistic", "snapshot-isolation")

#: The synthetic checker history reads stale committed versions half the
#: time: anti-dependency cycles (G2) are certain, dirty reads and G1c
#: cycles impossible, so every seed must classify exactly here.
PINNED_CHECKER_LEVEL = IsolationLevel.PL_2

#: Inputs per run for the contended rungs: by call count alone their work
#: per commit spreads 3-9 % (quartile distance) from seed to seed.
SUBSEEDS = 4

BASE = dict(scheduler="locking", clients=8, keys=16, ops_per_txn=4)
BASE_TXNS_PER_CLIENT = 60


@dataclass
class Outcome:
    """What one call of a rung produced, as counted by ``inspect``."""

    #: History events produced or classified.
    events: int
    #: Transactions committed (``checker_*``: committed in the input).
    commits: int
    #: Transactions offered — the ``attempted`` of the result line.
    offered: int
    #: sha256 of the per-seed artifact; identical on every repeat.
    artifact: str
    #: Counters only the result object knows (ticks, retries, edges, ...).
    stats: Dict[str, float] = field(default_factory=dict)
    #: Failed operations and failed gates — the ``failed`` of the result
    #: line — with one explanatory line per contribution.
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)


@dataclass(frozen=True)
class Rung:
    name: str
    #: Layer the root span belongs to: what the timed call itself is.
    root_layer: str
    build: Callable[[int, int], List[Any]]
    run: Callable[[Any], Any]
    inspect: Callable[[Any, Any], Outcome]
    #: ``run`` with observability off, where ``run`` has it on — the
    #: denominator of ``observability.overhead_ratio``.
    bare: Optional[Callable[[Any], Any]] = None
    #: Open benchmark-side sub-spans while tracing (``engine_direct``).
    run_traced: Optional[Callable[[Any, Any], Any]] = None


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# checker_batch / checker_ingest
# ----------------------------------------------------------------------


def _synthetic(seed: int, shrink: int):
    n_txns = 5000 // shrink
    return synthetic_history(
        n_txns=n_txns,
        n_objects=n_txns // 10,
        ops_per_txn=5,
        stale_read_fraction=0.5,
        write_fraction=0.6,
        seed=seed,
    )


def _build_history(seed: int, shrink: int):
    return [_synthetic(seed, shrink)]


def _verdict_text(levels, ok) -> str:
    return " ".join(
        f"{level}={'ok' if ok(level) else 'violated'}" for level in levels
    )


def _inspect_history(history, strongest, verdicts: str, stats) -> Outcome:
    committed = len(history.committed)
    outcome = Outcome(
        events=len(history.events),
        commits=committed,
        offered=committed,
        artifact=_sha(str(strongest), verdicts),
        stats=stats,
    )
    if strongest != PINNED_CHECKER_LEVEL:
        outcome.fail(
            1, f"strongest level {strongest}, pinned {PINNED_CHECKER_LEVEL}"
        )
    return outcome


def _run_batch(history):
    return repro.check(history)


def _inspect_batch(history, report) -> Outcome:
    timings = report.timings
    g1 = sum(timings.get(k, 0.0) for k in ("G1a", "G1b", "G1c", "G1"))
    g2 = sum(timings.get(k, 0.0) for k in ("G2-item", "G2"))
    return _inspect_history(
        history,
        report.strongest_level,
        _verdict_text(report.levels, report.ok),
        {
            "checker.extract_s": timings["extract"],
            "checker.g0_s": timings["G0"],
            "checker.g1_s": g1,
            "checker.g2_s": g2,
            "checker.total_s": timings["total"],
        },
    )


def _build_ingest(seed: int, shrink: int):
    history = _synthetic(seed, shrink)
    # The batch checker is the oracle the online monitors must agree with.
    report = repro.check(history)
    return [(history, report.levels, _verdict_text(report.levels, report.ok))]


def _run_ingest(inputs):
    history, levels, _expected = inputs
    monitor = IncrementalAnalysis(order_mode="commit")
    add = monitor.add
    for event in history.events:
        add(event)
    monitor.finish()
    return monitor, [monitor.provides(level) for level in levels]


def _inspect_ingest(inputs, raw) -> Outcome:
    history, levels, expected = inputs
    monitor, provided = raw
    verdicts = _verdict_text(levels, dict(zip(levels, provided)).__getitem__)
    outcome = _inspect_history(
        history,
        monitor.strongest_level(),
        verdicts,
        {"incremental.edges_inserted": monitor.edges_inserted},
    )
    if verdicts != expected:
        outcome.fail(
            1, f"incremental verdicts [{verdicts}] differ from batch [{expected}]"
        )
    return outcome


# ----------------------------------------------------------------------
# engine_direct
# ----------------------------------------------------------------------

_ENGINE_WAVES = 12
_ENGINE_CFG = WorkloadConfig(
    n_programs=32,
    steps_per_program=4,
    n_keys=64,
    hot_keys=8,
    hot_fraction=0.2,
    write_fraction=0.5,
)


def _build_engine(seed: int, shrink: int):
    waves = max(1, _ENGINE_WAVES // shrink)
    wave_seeds = [
        [(seed * SUBSEEDS + k) * 1000 + wave for wave in range(waves)]
        for k in range(SUBSEEDS)
    ]
    return [
        [(s, random_programs(_ENGINE_CFG, seed=s)) for s in seeds]
        for seeds in wave_seeds
    ]


def _run_family(family: str, waves) -> list:
    results = []
    for wave_seed, programs in waves:
        # A fresh database per wave: Simulator.run rematerialises the whole
        # history, so reusing one would time the history, not the engine.
        db = Database(family)
        db.load(_ENGINE_CFG.initial_state())
        # The locking engine can starve one program for dozens of restarts
        # on a hot key; none may give up, or the run has failed operations.
        results.append(
            Simulator(db, programs, seed=wave_seed, max_retries=1000).run()
        )
    return results


def _run_engine(waves):
    return {family: _run_family(family, waves) for family in FAMILIES}


def _run_engine_traced(waves, log):
    out = {}
    for family in FAMILIES:
        with log.span(f"family.{family}", "bench"):
            out[family] = _run_family(family, waves)
    return out


def _inspect_engine(waves, raw) -> Outcome:
    events = commits = deadlocks = 0
    texts = []
    for family in FAMILIES:
        for result in raw[family]:
            events += len(result.history)
            commits += result.committed_count
            deadlocks += result.deadlocks
            texts.append(format_history(result.history))
    outcome = Outcome(
        events=events,
        commits=commits,
        offered=len(FAMILIES) * len(waves) * _ENGINE_CFG.n_programs,
        artifact=_sha(*texts),
        stats={"engine.deadlock_victims": deadlocks},
    )
    if commits != outcome.offered:
        outcome.fail(
            outcome.offered - commits,
            f"committed {commits} of {outcome.offered} programs",
        )
    return outcome


# ----------------------------------------------------------------------
# svc_*
# ----------------------------------------------------------------------


def _stress_configs(
    seed: int,
    shrink: int,
    *,
    txns_per_client: int = BASE_TXNS_PER_CLIENT,
    faults: Optional[Dict[str, float]] = None,
    **extra: Any,
) -> List[StressConfig]:
    return [
        StressConfig(
            seed=seed * SUBSEEDS + k,
            txns_per_client=max(1, txns_per_client // shrink),
            network=NetworkConfig(min_delay=1, max_delay=3, **(faults or {})),
            **BASE,
            **extra,
        )
        for k in range(SUBSEEDS)
    ]


def _build_single(seed: int, shrink: int) -> List[StressConfig]:
    return _stress_configs(seed, shrink)


def _build_cluster(seed: int, shrink: int) -> List[StressConfig]:
    return _stress_configs(
        seed, shrink, cluster=ClusterConfig(shards=2, replicas=2)
    )


def _build_faulty(seed: int, shrink: int) -> List[StressConfig]:
    return _stress_configs(
        seed,
        shrink,
        faults=dict(drop=0.05, duplicate=0.05),
        crash_after_commits=240 // shrink,
    )


def _build_traced(seed: int, shrink: int) -> List[StressConfig]:
    return _stress_configs(
        seed,
        shrink,
        txns_per_client=20,
        cluster=ClusterConfig(shards=2, replicas=2),
    )


def _run_observed(config: StressConfig):
    return run_stress(
        config,
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        flight=FlightRecorder(),
    )


def _inspect_stress(config: StressConfig, result) -> Outcome:
    net, server, client = (
        result.network_counters, result.server_counters, result.client_stats,
    )
    stats = {
        "commit_latency_ticks_p50": result.latency_percentile(50),
        "commit_latency_ticks_p95": result.latency_percentile(95),
        "ticks_per_commit": result.ticks / result.committed,
        "client.retries": client["retries"],
        "client.timeouts": client["timeouts"],
        "client.busy": client["busy"],
        "network.dropped": net["dropped"],
        "network.duplicated": net["duplicated"],
        "network.msgs_per_commit": net["sent"] / result.committed,
        "server.busy_replies": server["busy"],
        "server.busy_ratio": server["busy"] / server["requests"],
        "server.dedup_hits": server["dedup_hits"],
        "engine.deadlock_victims": result.deadlock_victims,
        "incremental.edges_inserted": result.monitor.edges_inserted,
    }
    if result.cluster is not None:
        coordinator = result.cluster.coordinator
        stats["coordinator.decisions_commit"] = coordinator.decisions["commit"]
        stats["coordinator.decisions_abort"] = coordinator.decisions["abort"]
        stats["coordinator.retransmits"] = coordinator.retransmits
    if result.tracer is not None:
        stats["observability.spans"] = sum(
            1 for record in result.tracer.records if record["kind"] == "span"
        )
        stats["observability.dossiers"] = len(result.dossiers())
    outcome = Outcome(
        events=len(result.history),
        commits=result.committed,
        offered=result.offered,
        artifact=_sha(result.history_text, result.journal_text()),
        stats=stats,
    )
    if result.committed != result.offered:
        outcome.fail(
            abs(result.offered - result.committed),
            f"committed {result.committed} of {result.offered} offered",
        )
    uncertified = sum(1 for _lvl, ok in result.certification.values() if not ok)
    if uncertified:
        outcome.fail(uncertified, f"{uncertified} commits failed certification")
    return outcome


RUNGS: Dict[str, Rung] = {
    rung.name: rung
    for rung in (
        Rung("checker_batch", "checker", _build_history, _run_batch, _inspect_batch),
        Rung("checker_ingest", "bench", _build_ingest, _run_ingest, _inspect_ingest),
        Rung(
            "engine_direct", "bench", _build_engine, _run_engine, _inspect_engine,
            run_traced=_run_engine_traced,
        ),
        Rung("svc_single", "stress", _build_single, run_stress, _inspect_stress),
        Rung("svc_cluster_2x2", "stress", _build_cluster, run_stress, _inspect_stress),
        Rung("svc_single_faulty", "stress", _build_faulty, run_stress, _inspect_stress),
        Rung(
            "svc_cluster_traced", "stress", _build_traced, _run_observed,
            _inspect_stress, bare=run_stress,
        ),
    )
}
