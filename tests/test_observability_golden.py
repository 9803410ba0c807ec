"""Cross-commit golden gate for the observability plane.

What a run *emits* — trace records, the registry's three expositions, the
flight recorder's rings and every dossier — is a pure function of the config
and the seed, exactly like the history it narrates.  ``test_stress_golden``
pins trace bytes for one clean-network config and ``test_simulator_golden``
for the in-process engines; nothing pinned a faulty service run's exposition,
a dossier, or the rings across commits.  This module pins, per config and
seed, the sha256 of

* the canonical trace JSONL (one ``json.dumps(record, sort_keys=True)`` line
  per record — what :class:`~repro.observability.JsonlSink` writes),
* ``render_prometheus()``, ``render_text()`` and the canonical ``snapshot()``,
* every ``dossier_json(...)`` and ``FlightRecorder.rings()``

in ``tests/data/observability_golden.json``, so a commit that rebuilds the
emission path (attr sanitising, bound series, lane lookup) fails here on the
first byte it moves.

The same runs feed the **vocabulary pin** in
``tests/data/observability_vocabulary.json``: every ``(kind, name, attr
keys)`` a record carried and every ``(metric, type, label names)`` a series
carried.  The suite asserts the change emits exactly that set and that each
name in it appears in ``docs/observability.md`` — the drift guard for edits
at the call sites, and the end of the hand-edited catalogue.

``python tests/test_observability_golden.py`` regenerates both files (only
ever on a commit whose output is the intended one: a perf PR commits its
parent's digests unchanged); ``--print CONFIG...`` prints the digests of the
named configs as JSON, which is how the hash-seed test reads them back from
a subprocess started under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import pytest

import repro
from repro.engine import Database, Simulator, create_scheduler
from repro.observability import (
    SLO,
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    WindowedTelemetry,
    dossier_json,
    watching_analysis,
)
from repro.service import (
    AdmissionConfig,
    ClusterConfig,
    MapChange,
    NetworkConfig,
    SessionGuarantees,
    StressConfig,
    run_stress,
)
from repro.workloads import PoissonArrivals, WorkloadConfig, random_programs

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "observability_golden.json"
VOCABULARY = DATA / "observability_vocabulary.json"
DOC = Path(__file__).parents[1] / "docs" / "observability.md"
SEEDS = range(8)

#: The contended closed-loop shape of ``test_stress_golden``: lock waits
#: (parked requests) and deadlock victims on every seed.
BASE = dict(scheduler="locking", clients=8, txns_per_client=8, keys=8, ops_per_txn=3)
DELAYS = dict(min_delay=1, max_delay=3)


class Observed(NamedTuple):
    """The sinks of one finished run."""

    tracer: Tracer
    metrics: MetricsRegistry
    flight: Optional[FlightRecorder] = None


def _observed_stress(config: StressConfig, *, capacity: int = 256) -> Observed:
    result = run_stress(
        config,
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        flight=FlightRecorder(capacity=capacity),
    )
    return Observed(result.tracer, result.metrics, result.flight)


def _single_faulty_crash(seed: int) -> Observed:
    # ``net.drop`` events, ``lost-down``/``lost-crash`` fates, ``timeout``
    # and ``server.crash``/``server.restart``.
    return _observed_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(drop=0.05, duplicate=0.05, **DELAYS),
        crash_after_commits=24,
        **BASE,
    ))


def _cluster_faults_map_changes(seed: int) -> Observed:
    # A shard crash between prepare and commit, the coordinator partitioned
    # mid-prepare (2PC retransmits), a slot migration and an endpoint
    # replacement: the recorder's lane table is rebuilt twice, the second
    # time because ``shard0`` was renamed.  The rings keep every record, so
    # each record's lane is pinned, not only the last 256 per lane.
    return _observed_stress(
        StressConfig(
            seed=seed,
            network=NetworkConfig(drop=0.03, duplicate=0.03, **DELAYS),
            crash_after_commits=30,
            cluster=ClusterConfig(
                shards=2,
                replicas=1,
                crash_shard_after_prepares=(1, 6),
                partition_coordinator_after_prepares=14,
                map_changes=(
                    MapChange(after_commits=20, kind="migrate", slot=3, to_shard=0),
                    MapChange(after_commits=44, kind="replace", shard=0),
                ),
            ),
            **BASE,
        ),
        capacity=1 << 20,
    )


def _dossier_workload(seed: int) -> Observed:
    # What ``repro dossier --opcheck`` runs: stale-by-choice replica reads
    # behind a partitioned primary.  Two phenomenon dossiers and an opcheck
    # dossier per seed; the provenance events' nested cycle/edge attrs are
    # the tracer's slow sanitising path.
    result = run_stress(
        StressConfig(
            scheduler="locking",
            level="PL-2",
            clients=4,
            txns_per_client=10,
            keys=6,
            ops_per_txn=4,
            seed=seed,
            network=NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4),
            cluster=ClusterConfig(
                shards=2,
                replicas=2,
                replication_every=12,
                replication_lag=(4, 10),
                partition_primary_after_commits=(1, 5),
                heal_after=60,
            ),
            read_preference="replica",
            read_only_fraction=0.5,
        ),
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        flight=FlightRecorder(),
    )
    result.flight.opcheck_dossier(result)
    return Observed(result.tracer, result.metrics, result.flight)


def _replica_sessions(seed: int) -> Observed:
    # Causal sessions over lagging replicas, a backup crash mid-catch-up, a
    # planned promotion, soft admission with batched certification and the
    # downgrade reaction: ``lagging``/``shed``/``replica.crash``/
    # ``cluster.promote``/``certification.failure``/``admission.*``.
    return _observed_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(**DELAYS),
        cluster=ClusterConfig(
            shards=2,
            replicas=2,
            replication_every=8,
            replication_lag=(2, 8),
            crash_replica_after_applies=(0, 1, 30),
            map_changes=(
                MapChange(after_commits=30, kind="promote", shard=1, replica=0),
            ),
        ),
        read_preference="replica",
        session_guarantees=SessionGuarantees(causal=True),
        read_only_fraction=0.5,
        admission=AdmissionConfig(
            max_active=5, retry_after=6, certify_every=2,
            on_uncertified="downgrade",
        ),
        **{**BASE, "txns_per_client": 6},
    ))


def _open_loop_slo(seed: int) -> Observed:
    # Open-loop arrivals against a single server with a latency objective
    # no seed can hold: one ``slo`` dossier (with the ``server`` state
    # snapshot) per run.
    return _observed_stress(StressConfig(
        seed=seed,
        scheduler="locking",
        clients=4,
        keys=6,
        ops_per_txn=2,
        arrivals=PoissonArrivals(rate=0.08),
        horizon=500,
        network=NetworkConfig(**DELAYS),
        windows=WindowedTelemetry(
            window=100,
            sample_every=25,
            slos=(SLO(name="p99", kind="latency", threshold=30),),
        ),
    ))


#: Predicate reads, predicate updates and inserts on few keys: every engine
#: family aborts, and the weak ones latch phenomena.
PROGRAMS = WorkloadConfig(
    n_programs=8, steps_per_program=4, n_keys=6, hot_keys=2,
    hot_fraction=0.5, write_fraction=0.5, predicate_fraction=0.3,
    insert_fraction=0.15,
)


def _simulator(family: str, **engine: Any) -> Callable[[int], Observed]:
    """One ``Simulator`` run on a fresh ``family`` engine with a registry, a
    tracer on the registry clock (whole records exact) and a provenance
    monitor counting into the same registry."""

    def run(seed: int) -> Observed:
        metrics = MetricsRegistry()
        tracer = Tracer(clock=lambda: float(metrics.clock))
        db = Database(create_scheduler(family, **engine))
        db.load(PROGRAMS.initial_state())
        Simulator(
            db,
            random_programs(PROGRAMS, seed=seed),
            seed=seed,
            metrics=metrics,
            tracer=tracer,
            monitor=watching_analysis(tracer, metrics=metrics),
        ).run()
        return Observed(tracer, metrics)

    return run


CONFIGS: Dict[str, Callable[[int], Observed]] = {
    "single_faulty_crash": _single_faulty_crash,
    "cluster_faults_map_changes": _cluster_faults_map_changes,
    "dossier_workload": _dossier_workload,
    "replica_sessions": _replica_sessions,
    "open_loop_slo": _open_loop_slo,
    "sim_locking": _simulator("locking", profile="read-uncommitted"),
    "sim_optimistic": _simulator("optimistic"),
    "sim_snapshot_isolation": _simulator("snapshot-isolation"),
    "sim_mixed_optimistic": _simulator("mixed-optimistic"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


#: ``[kind, name, sorted attr keys]`` per record shape and ``[metric, type,
#: sorted label names]`` per series shape, as JSON-ready lists.
Vocabulary = Dict[str, List[List[Any]]]


def _vocabulary_of(observed: Observed) -> Tuple[Set[tuple], Set[tuple]]:
    records = {
        (r["kind"], r["name"], tuple(sorted(r["attrs"])))
        for r in observed.tracer.records
    }
    series = {
        (name, entry["type"], tuple(sorted(row["labels"])))
        for name, entry in observed.metrics.snapshot().items()
        for row in entry["series"]
    }
    return records, series


@functools.lru_cache(maxsize=None)
def _fingerprint(name: str, seed: int):
    """``(digest, record shapes, series shapes)`` of one (config, seed);
    the run itself is dropped, so a whole-suite pass keeps no trace alive."""
    observed = CONFIGS[name](seed)
    tracer, metrics, flight = observed
    out: Dict[str, Any] = {
        "trace": _sha("\n".join(_canonical(r) for r in tracer.records)),
        "trace_records": len(tracer.records),
        "prometheus": _sha(metrics.render_prometheus()),
        "text": _sha(metrics.render_text()),
        "snapshot": _sha(_canonical(metrics.snapshot())),
    }
    if flight is not None:
        dossiers = flight.dossiers()
        rings = flight.rings()
        out["dossiers"] = [_sha(dossier_json(d)) for d in dossiers]
        out["dossier_kinds"] = [d["kind"] for d in dossiers]
        out["rings"] = _sha(_canonical(rings))
        out["ring_sizes"] = {lane: len(ring) for lane, ring in rings.items()}
    return (out, *_vocabulary_of(observed))


def digest(name: str, seed: int) -> Dict[str, Any]:
    """The pinned fingerprint of one run: artifact hashes plus the small
    counts in clear (so a mismatch says *what* moved)."""
    return _fingerprint(name, seed)[0]


def _checker_vocabulary() -> Tuple[Set[tuple], Set[tuple]]:
    """``repro.check`` narrates too, but its histograms hold wall-clock
    seconds: its names are pinned, its bytes cannot be."""
    metrics, tracer = MetricsRegistry(), Tracer()
    history = repro.parse_history(
        "r1(x0, 5) w1(x1, 1) r2(x1, 1) r2(y0, 5) c2 r1(y0, 5) w1(y1, 9) c1"
    )
    repro.check(history, metrics=metrics, tracer=tracer)
    return _vocabulary_of(Observed(tracer, metrics))


def vocabulary() -> Vocabulary:
    """Every record shape and series shape the pinned runs emit."""
    records, series = _checker_vocabulary()
    for name in CONFIGS:
        for seed in SEEDS:
            _digest, run_records, run_series = _fingerprint(name, seed)
            records |= run_records
            series |= run_series
    return {
        "records": [[k, n, list(keys)] for k, n, keys in sorted(records)],
        "series": [[n, t, list(labels)] for n, t, labels in sorted(series)],
    }


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_matches_committed_digest(name: str, seed: int) -> None:
    assert digest(name, seed) == _golden()[name][str(seed)]


def test_golden_file_covers_every_config_and_seed() -> None:
    golden = _golden()
    assert sorted(golden) == sorted(CONFIGS)
    for name in CONFIGS:
        assert sorted(golden[name], key=int) == [str(s) for s in SEEDS]


def test_golden_file_pins_the_paths_it_is_named_for() -> None:
    """A golden without a dossier of each kind, a rebuilt lane table or a
    lossy network would pin nothing about those branches."""
    golden = _golden()
    for run in golden["dossier_workload"].values():
        assert run["dossier_kinds"] == ["phenomenon", "phenomenon", "opcheck"]
    for run in golden["open_loop_slo"].values():
        assert run["dossier_kinds"] == ["slo"]
        assert list(run["ring_sizes"]) == ["cluster"]
    for run in golden["cluster_faults_map_changes"].values():
        assert sorted(run["ring_sizes"]) == ["cluster", "shard0", "shard1"]
        assert sum(run["ring_sizes"].values()) == run["trace_records"]
    names = {name for _kind, name, _keys in _pinned_vocabulary()["records"]}
    assert {
        "net.drop", "server.crash", "server.restart", "timeout", "phenomenon",
        "2pc.prepare", "2pc.decide", "cluster.migrate", "cluster.replace",
        "cluster.promote", "replica.crash", "lagging", "admission.shed",
        "admission.downgrade", "certification.failure", "checker.check",
    } <= names


#: One config with every cluster container live and both lane rebuilds, one
#: whose provenance attrs go through the tracer's ``set`` sorting.
HASHSEED_CONFIGS = ("cluster_faults_map_changes", "dossier_workload")


@pytest.mark.parametrize("hashseed", ["0", "1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed: str) -> None:
    """Attr sanitising sorts sets by ``str`` and the registry sorts label
    keys; neither may let ``PYTHONHASHSEED`` reach an emitted byte."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--print", *HASHSEED_CONFIGS],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    theirs = json.loads(proc.stdout)
    golden = _golden()
    for name in HASHSEED_CONFIGS:
        assert theirs[name] == {s: golden[name][s] for s in theirs[name]}, name


# ----------------------------------------------------------------------
# vocabulary
# ----------------------------------------------------------------------


def _pinned_vocabulary() -> Vocabulary:
    return json.loads(VOCABULARY.read_text())


def _describe(shapes: List[List[Any]]) -> List[str]:
    return [f"{a} {b} [{', '.join(keys)}]" for a, b, keys in shapes]


def test_emitted_vocabulary_is_the_pinned_one() -> None:
    """Every record shape and series shape, across every pinned run: a
    renamed span, a dropped attr or a new label shows up as a set
    difference (regenerate the file when the change is meant)."""
    emitted, pinned = vocabulary(), _pinned_vocabulary()
    for section in ("records", "series"):
        assert _describe(emitted[section]) == _describe(pinned[section]), section


def test_every_pinned_name_is_documented() -> None:
    """``docs/observability.md`` names every span, event and metric the
    pinned runs emit (in backticks, as its tables write them)."""
    documented = set(re.findall(r"`([^`\s]+)`", DOC.read_text()))
    pinned = _pinned_vocabulary()
    names = {name for _kind, name, _keys in pinned["records"]}
    names |= {name for name, _type, _labels in pinned["series"]}
    assert sorted(names - documented) == []


# ----------------------------------------------------------------------
# regeneration / subprocess entry point
# ----------------------------------------------------------------------

#: Seeds the ``--print`` form digests (a subset keeps the subprocess short).
PRINT_SEEDS = (0, 1, 2)


def _digests(names, seeds) -> Dict[str, Dict[str, Any]]:
    return {
        name: {str(seed): digest(name, seed) for seed in seeds}
        for name in names
    }


def _main(argv) -> int:
    if argv[:1] == ["--print"]:
        print(_canonical(_digests(argv[1:], PRINT_SEEDS)))
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [--print CONFIG...]", file=sys.stderr)
        return 2
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(_digests(CONFIGS, SEEDS), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
    # One shape per line: a vocabulary change reads as a one-line diff.
    VOCABULARY.write_text(
        "{\n"
        + ",\n".join(
            f' "{section}": [\n'
            + ",\n".join(f"  {json.dumps(shape)}" for shape in shapes)
            + "\n ]"
            for section, shapes in vocabulary().items()
        )
        + "\n}\n"
    )
    print(f"wrote {VOCABULARY}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
