"""Cross-commit golden gate for the report plane.

``test_observability_golden`` pins what a run *emits*; this module pins what
the toolkit in :mod:`repro.observability.traceview` *says* about it.  Every
rendering there is a pure function of the records (and, for the run report,
of the finished :class:`~repro.service.StressResult`), so per config and
seed the sha256 of

* ``RunReport.to_markdown()`` and ``to_json()``,
* ``latency_table``, ``contention_table`` and ``waterfall`` (cut at 60 lines
  and whole, down to the synthetic ``orphans`` row of a truncated trace),
* the canonical JSON of ``critical_path`` (tree root and first
  ``client.txn`` span), ``cross_shard_critical_path``, ``twopc_summary``,
  ``replication_lag_timeline``, ``cluster_summary`` and ``to_chrome_trace``
  (whose ``from_chrome_trace`` round trip must give the records back),
* ``StressResult.summary()``

is committed in ``tests/data/report_golden.json``, next to the stdout of
``repro report --stress``, ``cluster-report`` and ``capacity`` in both
``--format``s and two edge inputs (an orphan-only waterfall, a report over a
trace with a skipped non-record line).  A commit that rebuilds a table renderer, a summary builder or
a tree walker fails here on the first byte it moves.

``python tests/test_report_golden.py`` regenerates the file (only ever on a
commit whose output is meant to move: a refactor commits its parent's digests
unchanged); ``--print CONFIG...`` prints the digests of the named configs as
JSON for the hash-seed test's subprocesses.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

import pytest

import repro
from repro.cli import main
from repro.observability import (
    SLO,
    MetricsRegistry,
    Tracer,
    build_run_report,
    cluster_summary,
    contention_table,
    critical_path,
    cross_shard_critical_path,
    from_chrome_trace,
    latency_table,
    read_trace,
    replication_lag_timeline,
    span_tree,
    to_chrome_trace,
    twopc_summary,
    waterfall,
)
from repro.observability.traceview import RunReport
from repro.service import (
    AdmissionConfig,
    ClusterConfig,
    NetworkConfig,
    StressConfig,
    build_capacity_report,
    run_capacity,
    run_stress,
)
from repro.workloads import ZipfianKeys

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "report_golden.json"
SEEDS = range(4)


class Reported(NamedTuple):
    """One report and what it was built from."""

    report: RunReport
    records: List[Dict[str, Any]]
    result: Optional[Any] = None


def _reported_stress(config: StressConfig, title: str) -> Reported:
    result = run_stress(config, metrics=MetricsRegistry(), tracer=Tracer())
    report = build_run_report(result=result, title=title)
    return Reported(report, result.tracer.records, result)


def _single_faulty(seed: int) -> Reported:
    # Drops, duplicates and a crash+restart against one locking server:
    # retries stretch the request spans, parked waits fill the contention
    # table, no Cluster section.
    return _reported_stress(
        StressConfig(
            scheduler="locking", clients=4, txns_per_client=6, keys=4,
            ops_per_txn=3, seed=seed,
            network=NetworkConfig(drop=0.05, duplicate=0.08, min_delay=1, max_delay=5),
            crash_after_commits=8, restart_delay=30,
        ),
        title=f"single faulty seed={seed}",
    )


def _cluster_2x2(seed: int) -> Reported:
    # Two shards, two replicas each, lossy links: cross-shard 2PC with
    # in-doubt windows, per-shard rows, four replication streams.
    return _reported_stress(
        StressConfig(
            scheduler="locking", clients=4, txns_per_client=6, keys=6,
            ops_per_txn=3, seed=seed,
            network=NetworkConfig(drop=0.03, duplicate=0.03, min_delay=1, max_delay=3),
            cluster=ClusterConfig(
                shards=2, replicas=2, replication_every=8, replication_lag=(2, 8),
            ),
        ),
        title=f"cluster 2x2 seed={seed}",
    )


def _stale_config(seed: int) -> StressConfig:
    """Stale-by-choice replica reads behind a partitioned primary (the
    ``repro dossier`` workload): latches G2/G2-item on every seed and
    witnesses session-guarantee violations."""
    return StressConfig(
        scheduler="locking", level="PL-2", clients=4, txns_per_client=8,
        keys=6, ops_per_txn=4, seed=seed,
        network=NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4),
        cluster=ClusterConfig(
            shards=2, replicas=2, replication_every=12, replication_lag=(4, 10),
            partition_primary_after_commits=(1, 5), heal_after=60,
        ),
        read_preference="replica",
        read_only_fraction=0.5,
    )


def _stale_replica(seed: int) -> Reported:
    return _reported_stress(_stale_config(seed), title=f"stale replica seed={seed}")


def _capacity_sweep(seed: int) -> Reported:
    # What ``repro capacity`` assembles: an admission-controlled open-loop
    # ladder with SLOs, the knee rung's run as the report's result, the
    # ladder / SLO-verdict / heatmap tables in the Capacity section.
    sweep = run_capacity(
        StressConfig(
            scheduler="locking", clients=4, keys=10, ops_per_txn=2,
            admission=AdmissionConfig(max_active=3, retry_after=8),
            hot_keys=ZipfianKeys(10, theta=0.5),
        ),
        rates=[0.03, 0.1, 0.3],
        horizon=400,
        seed=seed,
        slos=(
            SLO(name="p99-commit", kind="latency", threshold=30, verb="txn"),
            SLO(name="queue-depth", kind="queue_depth", threshold=6),
        ),
        window=200,
        sample_every=50,
    )
    knee = sweep.knee or sweep.rungs[-1]
    report = build_run_report(
        result=knee.stress,
        config=sweep.config,
        title=f"capacity sweep seed={seed}",
        capacity=build_capacity_report(sweep),
    )
    return Reported(report, knee.stress.tracer.records, knee.stress)


def _records_only(seed: int) -> Reported:
    # A recorded trace read back with no result behind it — and cut short:
    # the JSONL of the stale-replica run stops about two thirds in, right
    # after a ``2pc.prepare`` span and mid-line, so spans that had not closed
    # leave orphan events, that prepare never sees its decide and
    # ``read_trace`` skips the partial line.  Metrics arrive as an
    # already-snapshotted dict.
    result = run_stress(
        _stale_config(seed), metrics=MetricsRegistry(), tracer=Tracer()
    )
    recorded = result.tracer.records
    cut = 1 + max(
        i for i, r in enumerate(recorded[: len(recorded) * 2 // 3])
        if r["name"] == "2pc.prepare"
    )
    lines = [json.dumps(r, sort_keys=True) for r in recorded[: cut + 1]]
    kept = lines[:cut] + [lines[cut][:40]]
    records = read_trace(kept)
    report = build_run_report(
        records, metrics=result.metrics.snapshot(), title=f"trace seed={seed}"
    )
    return Reported(report, records)


CONFIGS: Dict[str, Callable[[int], Reported]] = {
    "single_faulty": _single_faulty,
    "cluster_2x2": _cluster_2x2,
    "stale_replica": _stale_replica,
    "capacity_sweep": _capacity_sweep,
    "records_only": _records_only,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _nodes(roots: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    for node in roots:
        yield node
        yield from _nodes(node["children"])


@functools.lru_cache(maxsize=None)
def digest(name: str, seed: int) -> Dict[str, Any]:
    """The pinned fingerprint of one report: rendering hashes plus the small
    counts in clear (so a mismatch says *what* moved)."""
    report, records, result = CONFIGS[name](seed)
    roots = span_tree(records)
    first_txn = next(
        (n for n in _nodes(roots) if n["record"]["name"] == "client.txn"), None
    )
    two_pc = twopc_summary(records)
    chrome = to_chrome_trace(records)
    back = from_chrome_trace(json.loads(json.dumps(chrome)))
    assert list(back) == sorted(records, key=lambda r: r["seq"])
    assert back.skipped == 0
    out: Dict[str, Any] = {
        "markdown": _sha(report.to_markdown()),
        "json": _sha(report.to_json()),
        "latency_table": _sha(latency_table(records)),
        "contention_table": _sha(contention_table(records)),
        "waterfall": _sha(waterfall(records, max_lines=60)),
        "waterfall_all": _sha(waterfall(records, max_lines=100_000)),
        "critical_path_root": _sha(_canonical(critical_path(roots[0]))),
        "critical_path_txn": _sha(
            _canonical(critical_path(first_txn) if first_txn else None)
        ),
        "cross_shard_critical_path": _sha(
            _canonical(cross_shard_critical_path(records))
        ),
        "twopc_summary": _sha(_canonical(two_pc)),
        "replication_lag_timeline": _sha(
            _canonical(replication_lag_timeline(records))
        ),
        "cluster_summary": _sha(
            _canonical(cluster_summary(records, result=result))
        ),
        "chrome": _sha(_canonical(chrome)),
        "records": len(records),
        "phenomena": [p["phenomenon"] for p in report.phenomena],
        "two_pc": two_pc["transactions"],
        "two_pc_pending": sum(
            1 for t in two_pc["per_txn"] if t["in_doubt"] is None
        ),
        "orphan_events": sum(
            len(n["events"]) for n in roots if n["record"]["id"] is None
        ),
        "sections": [
            line[3:]
            for line in report.to_markdown().splitlines()
            if line.startswith("## ")
        ],
    }
    if result is not None:
        out["summary"] = _sha(result.summary())
    return out


#: The run-report commands, as ``(key, argv before --seed)``.
COMMANDS = (
    ("report --stress", ["report", "--stress"]),
    ("cluster-report", ["cluster-report"]),
    ("capacity", ["capacity", "--rates", "0.03,0.1", "--horizon", "300"]),
)
FORMATS = ("markdown", "json")


@functools.lru_cache(maxsize=None)
def cli_digest(seed: int) -> Dict[str, str]:
    """sha256 of each report command's stdout, per ``--format``."""
    out: Dict[str, str] = {}
    for key, argv in COMMANDS:
        for fmt in FORMATS:
            stdout = io.StringIO()
            code = main([*argv, "--seed", str(seed), "--format", fmt], out=stdout)
            # ``capacity`` exits 1 when an SLO is violated; there is none.
            assert code == 0, (key, fmt, code)
            out[f"{key} --format {fmt}"] = _sha(stdout.getvalue())
    return out


@functools.lru_cache(maxsize=None)
def edge_digest(seed: int) -> Dict[str, str]:
    """Two inputs that used to end in a traceback: a trace with nothing but
    orphan events (every span lost), and a JSONL with a decodable line that
    is not a record (counted in ``skipped lines``, like an undecodable one)."""
    recorded = CONFIGS["single_faulty"](seed).records
    lines = [json.dumps(r, sort_keys=True) for r in recorded] + ['{"name": "x"}']
    records = read_trace(lines)
    assert list(records) == list(recorded) and records.skipped == 1
    return {
        "orphan_only_waterfall": _sha(
            waterfall([r for r in recorded if r["kind"] == "event"])
        ),
        "report_with_skipped_line": _sha(
            build_run_report(records, title=f"edge seed={seed}").to_markdown()
        ),
    }


#: Sections of the golden file that are not a ``CONFIGS`` entry.
EXTRA = {"cli": cli_digest, "edges": edge_digest}


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_matches_committed_digest(name: str, seed: int) -> None:
    assert digest(name, seed) == _golden()[name][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("section", EXTRA)
def test_cli_stdout_and_edge_cases_match_committed_digest(
    section: str, seed: int
) -> None:
    assert EXTRA[section](seed) == _golden()[section][str(seed)]


def test_golden_file_covers_every_config_and_seed() -> None:
    golden = _golden()
    assert sorted(golden) == sorted([*CONFIGS, *EXTRA])
    for name in golden:
        assert sorted(golden[name], key=int) == [str(s) for s in SEEDS]


def test_golden_file_pins_the_paths_it_is_named_for() -> None:
    """A golden whose runs never reach a table pins nothing about it."""
    golden = _golden()
    common = [
        "Logical latency by verb (ticks)", "Top contended objects",
        "Phenomena", "Metrics", "Trace",
    ]
    run = ["Fault schedule and configuration", "Outcome"]
    for name, sections in (
        ("single_faulty", run + common),
        ("cluster_2x2", run + ["Cluster"] + common),
        ("stale_replica", run + ["Cluster"] + common),
        ("capacity_sweep", run + ["Capacity"] + common[:3] + ["Trace"]),
        ("records_only", ["Cluster"] + common),
    ):
        for pinned in golden[name].values():
            assert pinned["sections"] == sections, name
    for pinned in golden["single_faulty"].values():
        assert pinned["two_pc"] == 0 and pinned["orphan_events"] == 0
    for pinned in golden["cluster_2x2"].values():
        assert pinned["two_pc"] > 0 and pinned["two_pc_pending"] == 0
    for name in ("stale_replica", "records_only"):
        for pinned in golden[name].values():
            assert {"G2", "G2-item"} <= set(pinned["phenomena"]), name
    # The cut trace: orphan events under the synthetic root and a prepare
    # whose decide was never written.
    for pinned in golden["records_only"].values():
        assert pinned["orphan_events"] > 0 and pinned["two_pc_pending"] > 0
        assert "summary" not in pinned


#: The config with the most tables live (Cluster, phenomena, violations).
HASHSEED_CONFIGS = ("stale_replica",)
PRINT_SEEDS = (0, 1)


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed: str) -> None:
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
# regeneration / subprocess entry point
# ----------------------------------------------------------------------


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
    golden = _digests(CONFIGS, SEEDS)
    for section, of_seed in EXTRA.items():
        golden[section] = {str(seed): of_seed(seed) for seed in SEEDS}
    DATA.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
