"""Cross-commit pin of what replication ships, applies and promotes.

Four replicated :func:`repro.service.run_stress` shapes — a backup crash
mid-catch-up, a primary crash, a partitioned primary and a ``promote`` map
change — on seeds 0-3, each digested into:

* every backup's counters, and the applied offset of every backup still
  serving (a promoted backup's offset is its successor primary's business);
* the ``offset``/``count``/``tids`` attributes of every ``repl.ship`` and
  ``repl.apply`` span, in record order;
* ``format_history`` of every current primary's ``recorder.history()`` (the
  promoted primary's included) and the merged history text.

The digests live in ``tests/data/replication_pin.json``.  A change to how a
shard's log is stored, shipped, replayed or promoted leaves them as they
are; ``python tests/test_replication_pin.py`` regenerates the file, only on
a commit whose replication stream is meant to move.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.core.formatting import format_history
from repro.observability import Tracer
from repro.service import (
    ClusterConfig,
    MapChange,
    NetworkConfig,
    StressConfig,
    run_stress,
)

PIN = Path(__file__).parent / "data" / "replication_pin.json"
SEEDS = range(4)

BASE = dict(
    scheduler="locking", clients=6, txns_per_client=8, keys=8, ops_per_txn=3,
    network=NetworkConfig(min_delay=1, max_delay=3),
    read_only_fraction=0.3, read_preference="replica",
)

CLUSTERS: Dict[str, ClusterConfig] = {
    "backup_crash_mid_catch_up": ClusterConfig(
        shards=2, replicas=2, crash_replica_after_applies=(0, 1, 25),
    ),
    "primary_crash": ClusterConfig(
        shards=2, replicas=2, crash_shard_after_prepares=(1, 4),
    ),
    "partitioned_primary": ClusterConfig(
        shards=2, replicas=2, partition_primary_after_commits=(0, 10),
    ),
    "promote": ClusterConfig(
        shards=2, replicas=2,
        map_changes=(
            MapChange(after_commits=15, kind="promote", shard=0, replica=1),
        ),
    ),
}


def _sha(value: Any) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(name: str, seed: int) -> Dict[str, Any]:
    tracer = Tracer()
    result = run_stress(
        StressConfig(seed=seed, cluster=CLUSTERS[name], **BASE), tracer=tracer
    )
    cluster = result.cluster
    backups = [
        {
            "name": r.name,
            "retired": r.retired,
            "applied": None if r.retired else r.applied,
            "counters": r.counters,
            "crashes": [r.crashes, r.restarts],
        }
        for slot in cluster.shard_slots
        for r in slot.replicas
    ]
    spans = [
        [r["name"], r["attrs"]["offset"], r["attrs"]["count"], r["attrs"]["tids"]]
        for r in tracer.records
        if r.get("name") in ("repl.ship", "repl.apply")
    ]
    primaries = [
        [shard.name, _sha(format_history(shard.recorder.history()))]
        for shard in cluster.shards
    ]
    return {
        "backups": backups,
        "spans": _sha(spans),
        "span_count": len(spans),
        "primaries": primaries,
        "history": _sha(result.history_text),
        "crashes": [result.crashes, result.restarts],
    }


def _pinned() -> Dict[str, Dict[str, Any]]:
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_replication_matches_its_pin(name: str, seed: int) -> None:
    assert digest(name, seed) == _pinned()[name][str(seed)]


def test_the_pin_reaches_every_fault() -> None:
    pinned = _pinned()
    assert sorted(pinned) == sorted(CLUSTERS)
    promoted = [
        b for runs in pinned["promote"].values() for b in runs["backups"]
        if b["retired"]
    ]
    assert len(promoted) == len(SEEDS)
    crashed = [
        b for runs in pinned["backup_crash_mid_catch_up"].values()
        for b in runs["backups"] if b["name"] == "shard0.r2"
    ]
    assert all(b["crashes"][0] == 1 for b in crashed)
    assert all(
        runs["crashes"][0] >= 1 for runs in pinned["primary_crash"].values()
    )


if __name__ == "__main__":
    PIN.write_text(
        json.dumps(
            {
                name: {str(seed): digest(name, seed) for seed in SEEDS}
                for name in sorted(CLUSTERS)
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    sys.exit(0)
