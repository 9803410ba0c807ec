"""Cross-commit golden gate for the schedulers' shared read path.

Every scheduler family reads, scans, buffers and aborts the same way except
for which version a transaction sees.  ``tests/test_simulator_golden.py``
pins most families on the contended key-value workload only, where no
transaction ever scans a relation it has written into or deletes a row;
this module pins all five families (locking at three Figure 1 rows) on a
workload with predicate reads, inserts *and* deletes, so a read or a scan
that forgets the transaction's own writes, or its own deletes, moves a
digest.  Multi-version read-committed is pinned on the contended workload
too: no other golden runs it.

The configurations live here, not in ``test_simulator_golden.CONFIGS``:
that dict also feeds the checker, witness and extension corpora, whose
goldens would grow with it.

``python -m tests.test_scheduler_golden`` (from the repository root)
regenerates ``tests/data/scheduler_golden.json`` — only ever on a commit
whose schedule is meant to move.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.core.formatting import format_history

from .test_simulator_golden import (
    CONTENDED,
    MIXED_LEVELS,
    PREDICATES,
    SEEDS,
    _config,
    digest,
)

GOLDEN = Path(__file__).parent / "data" / "scheduler_golden.json"

#: ``PREDICATES`` plus row deletes: scans over the transaction's own
#: inserts, updates and deletes.
DELETES = dataclasses.replace(PREDICATES, delete_fraction=0.15)

CONFIGS: Dict[str, Callable[..., Any]] = {
    **{
        f"locking_{profile.replace('-', '_')}_deletes": _config(
            "locking", DELETES, engine=dict(profile=profile)
        )
        for profile in ("serializable", "read-committed", "degree-0")
    },
    "optimistic_deletes": _config("optimistic", DELETES),
    "snapshot_isolation_deletes": _config("snapshot-isolation", DELETES),
    "mv_read_committed_deletes": _config("mv-read-committed", DELETES),
    "mixed_optimistic_deletes": _config(
        "mixed-optimistic", DELETES, levels=MIXED_LEVELS
    ),
    "mv_read_committed": _config("mv-read-committed", CONTENDED),
}


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_matches_committed_digest(name: str, seed: int) -> None:
    assert digest(name, seed, CONFIGS) == _golden()[name][str(seed)]


def test_golden_file_covers_every_config_and_seed() -> None:
    golden = _golden()
    assert sorted(golden) == sorted(CONFIGS)
    for name in CONFIGS:
        assert sorted(golden[name], key=int) == [str(s) for s in SEEDS]


@pytest.mark.parametrize(
    "name", [n for n in CONFIGS if n.endswith("_deletes")]
)
def test_the_deletes_workload_scans_its_own_writes(name: str) -> None:
    """A pin on this workload pins the own-write paths only if some
    transaction deletes a row and scans the relation it wrote into."""
    deletes = own_scans = 0
    for seed in SEEDS:
        history = CONFIGS[name](seed).history
        text = format_history(history)
        deletes += text.count("dead")
        wrote = set()
        for event in history.events:
            kind = type(event).__name__
            if kind == "Write" and ":" in event.version.obj:
                wrote.add(event.tid)
            elif kind == "PredicateRead" and event.tid in wrote:
                own_scans += 1
    assert deletes > 0, name
    assert own_scans > 0, name


def _digests() -> Dict[str, Dict[str, Any]]:
    return {
        name: {str(seed): digest(name, seed, CONFIGS) for seed in SEEDS}
        for name in CONFIGS
    }


def _main(argv) -> int:
    if argv:
        print(f"usage: python -m tests.test_scheduler_golden", file=sys.stderr)
        return 2
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
