"""Cross-commit golden gate for the batch checker.

``repro.check`` is a pure function of the history: the direct conflicts come
out in one order (ww, item wr, predicate wr, item rw, predicate rw), every
cycle search visits them in that order, and so every witness — which cycle,
through which edges, starting where — is fixed.  The unit tests compare
verdicts; this module pins the bytes.  Per history the sha256 of

* ``Analysis.edges`` (``str``, ``describe()`` and the ``cursor`` flag of every
  edge, in order) under both :class:`~repro.core.conflicts.PredicateDepMode`\\ s,
* ``report(p).describe()`` for G0, G1a, G1b, G1c, G1, G2-item, G2 and the six
  extension phenomena, again under both modes,
* the rendered ``check(h, extensions=True)`` report

is committed in ``tests/data/checker_golden.json``, over every
``core/canonical.py`` and ``workloads/anomalies.py`` history,
``synthetic_history`` x {defaults, stale reads, predicates, aborts, all
knobs} x seeds 0-7 x {explicit, derived} version order, and the recorder
histories of the 15 ``test_simulator_golden`` configs x 2 seeds.  A commit
that rebuilds the extractor, an adjacency or a graph walk fails here on the
first edge or witness it moves.

``python -m tests.test_checker_golden`` (from the repository root)
regenerates the file — only ever on a commit whose output is meant to move: a
refactor commits its parent's digests unchanged; ``--print NAME...`` prints
the digests of the named histories as JSON for the hash-seed test's
subprocesses.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

import repro
from repro.core.canonical import ALL_CANONICAL
from repro.core.conflicts import PredicateDepMode
from repro.core.history import History
from repro.core.phenomena import Analysis, Phenomenon
from repro.workloads import synthetic_history
from repro.workloads.anomalies import ALL_ANOMALIES

from .test_simulator_golden import CONFIGS as SIMULATOR_CONFIGS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "checker_golden.json"

#: ``synthetic_history`` knobs, one regime each: serial-looking single-version
#: runs, multi-version stale reads (item anti-dependency cycles), predicate
#: reads over every object (both predicate flavours), aborted writers, and
#: everything at once.
SYNTHETIC: Dict[str, Dict[str, float]] = {
    "defaults": {},
    "stale": {"stale_read_fraction": 0.5, "write_fraction": 0.6},
    "predicates": {"predicate_fraction": 0.2},
    "aborts": {"abort_fraction": 0.3, "stale_read_fraction": 0.2},
    "all": {
        "stale_read_fraction": 0.4,
        "predicate_fraction": 0.15,
        "abort_fraction": 0.15,
        "write_fraction": 0.5,
    },
}
SYNTHETIC_SEEDS = range(8)
RECORDER_SEEDS = range(2)

PHENOMENA = (
    Phenomenon.G0,
    Phenomenon.G1A,
    Phenomenon.G1B,
    Phenomenon.G1C,
    Phenomenon.G1,
    Phenomenon.G2_ITEM,
    Phenomenon.G2,
    Phenomenon.G_SINGLE,
    Phenomenon.G_SIA,
    Phenomenon.G_SIB,
    Phenomenon.G_SI,
    Phenomenon.G_CURSOR,
    Phenomenon.G_SS,
)


def _synthetic(knobs: Dict[str, float], seed: int, explicit: bool) -> History:
    history = synthetic_history(
        n_txns=40, n_objects=6, ops_per_txn=4, seed=seed, **knobs
    )
    if explicit:
        return history
    # The same events with the version order left to the constructor, which
    # follows the final write events where the generator follows the commits.
    return History(history.events)


def _histories() -> Dict[str, Callable[[], History]]:
    out: Dict[str, Callable[[], History]] = {}
    for entry in ALL_CANONICAL:
        out[f"canonical/{entry.name}"] = functools.partial(getattr, entry, "history")
    for entry in ALL_ANOMALIES:
        out[f"anomaly/{entry.name}"] = functools.partial(getattr, entry, "history")
    for knob, knobs in SYNTHETIC.items():
        for seed in SYNTHETIC_SEEDS:
            for order in ("explicit", "derived"):
                out[f"synthetic/{knob}/{seed}/{order}"] = functools.partial(
                    _synthetic, knobs, seed, order == "explicit"
                )
    for config, run in SIMULATOR_CONFIGS.items():
        for seed in RECORDER_SEEDS:
            out[f"recorder/{config}/{seed}"] = functools.partial(
                lambda run, seed: run(seed).history, run, seed
            )
    return out


HISTORIES = _histories()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _edge_lines(analysis: Analysis) -> List[str]:
    return [f"{e} | {e.describe()} | {e.cursor}" for e in analysis.edges]


@functools.lru_cache(maxsize=None)
def digest(name: str) -> Dict[str, Any]:
    """The pinned fingerprint of one history: hashes of the edge list and of
    every phenomenon report per mode and of the full rendered check, plus the
    small facts in clear (so a mismatch says *what* moved)."""
    history = HISTORIES[name]()
    out: Dict[str, Any] = {"events": len(history.events)}
    for mode in PredicateDepMode:
        analysis = Analysis(history, mode)
        lines = _edge_lines(analysis)
        reports = {str(p): analysis.report(p).describe() for p in PHENOMENA}
        out[mode.value] = {
            "edges": len(lines),
            "edges_sha": _sha("\n".join(lines)),
            "exhibited": [p for p, text in reports.items() if "EXHIBITED" in text],
            "reports_sha": _sha("\n".join(reports.values())),
        }
    report = repro.check(history, extensions=True)
    strongest = report.strongest_level
    out["check_sha"] = _sha(report.explain())
    out["strongest"] = None if strongest is None else str(strongest)
    return out


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", HISTORIES)
def test_matches_committed_digest(name: str) -> None:
    assert digest(name) == _golden()[name]


def test_golden_file_covers_every_history() -> None:
    assert sorted(_golden()) == sorted(HISTORIES)


def test_golden_file_pins_the_paths_it_is_named_for() -> None:
    """A golden whose histories never reach an extractor branch or a cycle
    search pins nothing about it."""
    golden = _golden()
    exhibited = {
        p for pinned in golden.values() for p in pinned["latest"]["exhibited"]
    }
    assert exhibited == {str(p) for p in PHENOMENA}
    # Both predicate quantifications, and a history where they differ.
    assert any(
        pinned["all"]["edges"] > pinned["latest"]["edges"]
        for pinned in golden.values()
    )
    for knob in SYNTHETIC:
        runs = [v for k, v in golden.items() if k.startswith(f"synthetic/{knob}/")]
        assert len(runs) == 2 * len(SYNTHETIC_SEEDS)
        assert all(run["latest"]["edges"] > 40 for run in runs)
    # Cycles found by a search, not only the catalogue's two-cycles (the
    # locking recorder histories below are the ones to be declared clean).
    for knob in ("stale", "all"):
        assert any(
            "G2" in v["latest"]["exhibited"]
            for k, v in golden.items()
            if k.startswith(f"synthetic/{knob}/")
        )
    # The derived order follows the final *write* events, the generator's
    # supplied one the commits: other chains, and write cycles to search for.
    derived = [v for k, v in golden.items() if k.endswith("/derived")]
    assert sum("G0" in run["latest"]["exhibited"] for run in derived) >= 20
    recorder = {k: v for k, v in golden.items() if k.startswith("recorder/")}
    assert len(recorder) == len(SIMULATOR_CONFIGS) * len(RECORDER_SEEDS)
    strongest = {v["strongest"] for v in recorder.values()}
    assert {"PL-SS", "PL-SI"} <= strongest and len(strongest) >= 4


#: One history per regime where a ``set`` or ``dict`` of strings could leak
#: its order: predicate edges over every object, and a recorder history.
HASHSEED_HISTORIES = (
    "synthetic/all/3/explicit",
    "synthetic/all/3/derived",
    "canonical/H_pred-update",
    "recorder/locking_predicates/1",
)


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed: str) -> None:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_checker_golden", "--print",
         *HASHSEED_HISTORIES],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    theirs = json.loads(proc.stdout)
    golden = _golden()
    assert theirs == {name: golden[name] for name in HASHSEED_HISTORIES}


# ----------------------------------------------------------------------
# regeneration / subprocess entry point
# ----------------------------------------------------------------------


def _main(argv) -> int:
    if argv[:1] == ["--print"]:
        print(_canonical({name: digest(name) for name in argv[1:]}))
        return 0
    if argv:
        print(
            "usage: python -m tests.test_checker_golden [--print NAME...]",
            file=sys.stderr,
        )
        return 2
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: digest(name) for name in HISTORIES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
