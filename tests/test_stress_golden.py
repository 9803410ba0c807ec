"""Cross-commit golden gate for the stress driver.

Every per-seed artifact of :func:`repro.service.run_stress` — history
text, journals, trace records, tick counts, network/server/client counters,
the windowed-telemetry timeline — is a pure function of the config.  The
in-suite determinism tests only compare a run with a second run *of the same
commit*; this module pins the digests in ``tests/data/stress_golden.json``,
so a commit that changes the message schedule (poll order, RNG draws,
deadlock victims, fault timing) fails here even though it still agrees with
itself.

``python tests/test_stress_golden.py`` regenerates the file (only ever run
on a commit whose schedule is the intended one: a perf PR commits its
parent's digests unchanged); ``--print CONFIG...`` prints the digests of the
named configs as JSON, which is how the hash-seed test reads them back from
a subprocess started under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

import repro
from repro.cli import main
from repro.observability import FlightRecorder, MetricsRegistry, Tracer
from repro.observability.windows import SLO, WindowedTelemetry
from repro.service import (
    AdmissionConfig,
    ClusterConfig,
    MapChange,
    NetworkConfig,
    RetryPolicy,
    StressConfig,
    run_stress,
)
from repro.workloads import PoissonArrivals

GOLDEN = Path(__file__).parent / "data" / "stress_golden.json"
SEEDS = range(8)

#: One contended shape for every closed-loop config: 8 clients so poll order
#: and ``driver_rng.choice(ready)`` have something to decide, few keys so
#: lock waits (parked requests) and deadlock victims are frequent.
BASE = dict(scheduler="locking", clients=8, txns_per_client=8, keys=8, ops_per_txn=3)
DELAYS = dict(min_delay=1, max_delay=3)


def _single(seed: int):
    return run_stress(
        StressConfig(seed=seed, network=NetworkConfig(**DELAYS), **BASE)
    )


def _single_faulty_crash(seed: int):
    return run_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(drop=0.05, duplicate=0.05, **DELAYS),
        crash_after_commits=24,
        **BASE,
    ))


def _cluster_2x2(seed: int):
    return run_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(**DELAYS),
        cluster=ClusterConfig(shards=2, replicas=2),
        **BASE,
    ))


def _cluster_2x1_faults_crash(seed: int):
    return run_stress(StressConfig(
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
            ),
        ),
        **BASE,
    ))


def _cluster_2x2_observed(seed: int):
    return run_stress(
        StressConfig(
            seed=seed,
            network=NetworkConfig(**DELAYS),
            cluster=ClusterConfig(shards=2, replicas=2),
            **{**BASE, "txns_per_client": 5},
        ),
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        flight=FlightRecorder(),
    )


def _open_loop_windows(seed: int):
    # The `_TickWait` and `windows` branches of the driver loop.
    return run_stress(StressConfig(
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
            slos=(SLO(name="p99", kind="latency", threshold=60),),
        ),
    ))


def _admission_shed(seed: int):
    # The `shed` / `retry_after` branch of `PendingCall.poll`.
    return run_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(**DELAYS),
        admission=AdmissionConfig(max_active=3, retry_after=6),
        **BASE,
    ))


def _read_mix(seed: int):
    # Shared read locks: waits-for out-degree > 1 on a single server.
    return run_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(**DELAYS),
        read_only_fraction=0.5,
        **BASE,
    ))


def _zero_delays(seed: int):
    # Degenerate-but-legal timing: a timeout backoff that is due in the tick
    # it was armed, and a cluster restart due in the tick of its crash.
    return run_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(drop=0.05, min_delay=0, max_delay=2),
        retry=RetryPolicy(backoff=0),
        crash_after_commits=20,
        restart_delay=0,
        cluster=ClusterConfig(shards=2),
        **BASE,
    ))


def _cluster_windows(seed: int):
    # The cluster rows of the windows timeline (`in_doubt`, per-shard
    # certification lag and queue depth): batched certification keeps the
    # lag gauge off zero, the 2x2 shape keeps 2PC and queues busy.
    return run_stress(StressConfig(
        seed=seed,
        network=NetworkConfig(**DELAYS),
        cluster=ClusterConfig(shards=2, replicas=2),
        admission=AdmissionConfig(certify_every=3),
        windows=WindowedTelemetry(
            window=100,
            sample_every=25,
            slos=(SLO(name="doubt", kind="in_doubt", threshold=0),),
        ),
        **{**BASE, "txns_per_client": 5},
    ))


CONFIGS: Dict[str, Callable[[int], Any]] = {
    "single": _single,
    "single_faulty_crash": _single_faulty_crash,
    "cluster_2x2": _cluster_2x2,
    "cluster_2x1_faults_crash": _cluster_2x1_faults_crash,
    "cluster_2x2_observed": _cluster_2x2_observed,
    "open_loop_windows": _open_loop_windows,
    "admission_shed": _admission_shed,
    "read_mix": _read_mix,
    "zero_delays": _zero_delays,
    "cluster_windows": _cluster_windows,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def digest(name: str, seed: int) -> Dict[str, Any]:
    """The pinned fingerprint of one run: artifact hashes plus the small
    counters in clear (so a mismatch says *what* moved)."""
    result = CONFIGS[name](seed)
    out: Dict[str, Any] = {
        "history": _sha(result.history_text),
        "journal": _sha(result.journal_text()),
        "ticks": result.ticks,
        "committed": result.committed,
        "deadlock_victims": result.deadlock_victims,
        "crashes": result.crashes,
        "restarts": result.restarts,
        "network_counters": result.network_counters,
        "server_counters": result.server_counters,
        "client_stats": result.client_stats,
    }
    if result.tracer is not None:
        out["trace"] = _sha(
            "\n".join(_canonical(r) for r in result.tracer.records)
        )
        out["trace_records"] = len(result.tracer.records)
    if result.windows is not None:
        out["windows_timeline"] = _sha(_canonical(result.windows.timeline))
    return out


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


#: Two configs are enough for the hash-seed check: one single-server, one
#: with every cluster container (shards, replicas, coordinator, tracer) live.
HASHSEED_CONFIGS = ("single_faulty_crash", "cluster_2x2_observed")


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed: str) -> None:
    """Set/dict-of-str iteration order follows ``PYTHONHASHSEED``, and the
    ladder always runs under ``PYTHONHASHSEED=0``: a driver that iterated a
    *set* of client names would pass every in-process check and still change
    schedule from one interpreter start to the next."""
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


NIGHTLY = Path(__file__).parent / "data" / "nightly_stress_digests.txt"


@pytest.mark.parametrize("seed", [0, 19])
def test_nightly_digest_file_matches_the_cli(seed: int) -> None:
    """``nightly.yml`` checks 20 ``repro stress --seed N --journal
    --history`` outputs against this file with ``sha256sum -c``; two of
    them are checked here so the file cannot rot between nights."""
    out = io.StringIO()
    assert main(
        ["stress", "--seed", str(seed), "--journal", "--history"], out=out
    ) == 0
    pinned = dict(
        reversed(line.split()) for line in NIGHTLY.read_text().splitlines()
    )
    assert len(pinned) == 20
    assert _sha(out.getvalue()) == pinned[f"sweep-artifacts/stress-{seed}.txt"]


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
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(_digests(CONFIGS, SEEDS), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
