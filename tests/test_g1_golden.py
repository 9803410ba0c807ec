"""Cross-commit golden gate for the read phenomena G1a and G1b.

G1a (aborted reads) and G1b (intermediate reads) condemn single reads, not
cycles (Section 5), and ``tests/test_checker_golden.py``'s corpus hardly
reaches them: three item G1a and twenty item G1b witnesses over its 136
histories, and almost no predicate-read ones.  This module pins them on
histories that read dirty and intermediate versions on purpose: every
``core/canonical.py`` and ``workloads/anomalies.py`` history, and the
recorder histories of the three Figure-1 locking profiles that take no long
read locks (``degree-0``, ``read-uncommitted``, ``read-committed``) over the
contended and the predicate workloads of ``tests/test_simulator_golden.py``,
seeds 0-31.

Per history and per :class:`~repro.core.conflicts.PredicateDepMode`, the
sha256 of ``report(p).describe()`` for G1a, G1b and G1 (the witness text and
its order), plus the witness counts by kind in clear — item or predicate
read, G1a or G1b — so a mismatch says what moved.

``python -m tests.test_g1_golden`` (from the repository root) regenerates
``tests/data/g1_golden.json`` — only ever on a commit whose witnesses are
meant to move; ``--print NAME...`` prints the digests of the named histories
as JSON for the hash-seed test's subprocesses.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from typing import Any, Callable, Dict

import pytest

from repro.core.canonical import ALL_CANONICAL
from repro.core.conflicts import PredicateDepMode
from repro.core.history import History
from repro.core.phenomena import Analysis, Phenomenon
from repro.workloads.anomalies import ALL_ANOMALIES

from .test_checker_golden import ROOT, _sha
from .test_simulator_golden import CONTENDED, PREDICATES, _config

GOLDEN = ROOT / "tests" / "data" / "g1_golden.json"

PROFILES = ("degree-0", "read-uncommitted", "read-committed")
WORKLOADS = {"contended": CONTENDED, "predicates": PREDICATES}
SEEDS = range(32)
PHENOMENA = (Phenomenon.G1A, Phenomenon.G1B, Phenomenon.G1)
#: The witness kinds the coverage test asks for, at least this many each.
COVERAGE = 40


def _histories() -> Dict[str, Callable[[], History]]:
    out: Dict[str, Callable[[], History]] = {}
    for entry in ALL_CANONICAL:
        out[f"canonical/{entry.name}"] = functools.partial(getattr, entry, "history")
    for entry in ALL_ANOMALIES:
        out[f"anomaly/{entry.name}"] = functools.partial(getattr, entry, "history")
    for profile in PROFILES:
        for workload, cfg in WORKLOADS.items():
            run = _config("locking", cfg, engine=dict(profile=profile))
            for seed in SEEDS:
                out[f"recorder/{profile}/{workload}/{seed}"] = functools.partial(
                    lambda run, seed: run(seed).history, run, seed
                )
    return out


HISTORIES = _histories()


def _kinds(report) -> Dict[str, int]:
    predicate = sum("'s read of predicate" in w.description for w in report.witnesses)
    return {"item": len(report.witnesses) - predicate, "predicate": predicate}


@functools.lru_cache(maxsize=None)
def digest(name: str) -> Dict[str, Any]:
    history = HISTORIES[name]()
    out: Dict[str, Any] = {"events": len(history.events)}
    for mode in PredicateDepMode:
        analysis = Analysis(history, mode)
        reports = {str(p): analysis.report(p) for p in PHENOMENA}
        out[mode.value] = {
            "exhibited": [p for p, r in reports.items() if r.present],
            "reports_sha": _sha("\n".join(r.describe() for r in reports.values())),
        }
    # G1a and G1b do not depend on the mode: count the last one's.
    out["witnesses"] = {p: _kinds(reports[p]) for p in ("G1a", "G1b")}
    return out


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", HISTORIES)
def test_matches_committed_digest(name: str) -> None:
    assert digest(name) == _golden()[name]


def test_golden_file_covers_every_history() -> None:
    assert sorted(_golden()) == sorted(HISTORIES)


def test_golden_file_pins_the_paths_it_is_named_for() -> None:
    """Item and predicate reads, aborted and intermediate, each witnessed
    often enough that a slip in one kind cannot hide."""
    totals = {
        (p, kind): sum(pinned["witnesses"][p][kind] for pinned in _golden().values())
        for p in ("G1a", "G1b")
        for kind in ("item", "predicate")
    }
    assert all(n >= COVERAGE for n in totals.values()), totals


#: Predicate reads under short predicate locks, where the engine's lock order
#: once followed the hash seed, and a catalogue history with predicate reads.
HASHSEED_HISTORIES = (
    "recorder/read-committed/predicates/2",
    "recorder/read-committed/predicates/16",
    "recorder/read-uncommitted/predicates/3",
    "anomaly/aborted-read-predicate",
)


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed: str) -> None:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_g1_golden", "--print", *HASHSEED_HISTORIES],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    golden = _golden()
    assert json.loads(proc.stdout) == {name: golden[name] for name in HASHSEED_HISTORIES}


def _main(argv) -> int:
    if argv[:1] == ["--print"]:
        print(json.dumps({name: digest(name) for name in argv[1:]}, sort_keys=True))
        return 0
    if argv:
        print(
            "usage: python -m tests.test_g1_golden [--print NAME...]", file=sys.stderr
        )
        return 2
    GOLDEN.write_text(
        json.dumps({name: digest(name) for name in HISTORIES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
