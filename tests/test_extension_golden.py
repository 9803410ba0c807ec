"""Cross-commit golden gate for the extension phenomena over cursor reads.

``tests/test_checker_golden.py`` pins every report over its 136 histories,
but hardly any of them reads through a cursor, so G-cursor is exhibited in
two of its 272 reports.  This module re-marks every item read of those
histories as a cursor read (the same events and the same version order
otherwise) and pins, per history and per
:class:`~repro.core.conflicts.PredicateDepMode`, the sha256 of
``report(p).describe()`` for the six extension phenomena: G-single, G-SIa,
G-SIb, G-SI, G-cursor and G-SS.  Every item anti-dependency is then a cursor
row, so the G-cursor search runs over all of them.

``python -m tests.test_extension_golden`` (from the repository root)
regenerates ``tests/data/extension_golden.json`` — only ever on a commit
whose witnesses are meant to move.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from typing import Any, Dict

import pytest

from repro.core.conflicts import PredicateDepMode
from repro.core.events import Read
from repro.core.history import History
from repro.core.phenomena import Analysis, Phenomenon

from .test_checker_golden import HISTORIES, ROOT, _sha

GOLDEN = ROOT / "tests" / "data" / "extension_golden.json"

PHENOMENA = (
    Phenomenon.G_SINGLE,
    Phenomenon.G_SIA,
    Phenomenon.G_SIB,
    Phenomenon.G_SI,
    Phenomenon.G_CURSOR,
    Phenomenon.G_SS,
)


def cursor_history(name: str) -> History:
    """The named checker-golden history with every item read a cursor read."""
    history = HISTORIES[name]()
    events = [
        dataclasses.replace(ev, cursor=True) if isinstance(ev, Read) else ev
        for ev in history.events
    ]
    return History(events, history.version_order)


@functools.lru_cache(maxsize=None)
def digest(name: str) -> Dict[str, Any]:
    history = cursor_history(name)
    out: Dict[str, Any] = {}
    for mode in PredicateDepMode:
        analysis = Analysis(history, mode)
        reports = {str(p): analysis.report(p).describe() for p in PHENOMENA}
        out[mode.value] = {
            "exhibited": [p for p, text in reports.items() if "EXHIBITED" in text],
            "reports_sha": _sha("\n".join(reports.values())),
        }
    return out


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", HISTORIES)
def test_matches_committed_digest(name: str) -> None:
    assert digest(name) == _golden()[name]


def test_golden_file_covers_every_history() -> None:
    assert sorted(_golden()) == sorted(HISTORIES)


def test_cursor_marks_keep_the_version_order() -> None:
    for name in ("synthetic/all/3/derived", "canonical/H_pred-read"):
        assert cursor_history(name).version_order == HISTORIES[name]().version_order


def test_golden_file_pins_the_paths_it_is_named_for() -> None:
    """G-cursor is searched for on most of the corpus, and every extension
    phenomenon is both exhibited and absent somewhere."""
    reports = [
        pinned[mode.value]["exhibited"]
        for pinned in _golden().values()
        for mode in PredicateDepMode
    ]
    assert sum("G-cursor" in exhibited for exhibited in reports) == 178
    for p in PHENOMENA:
        present = sum(str(p) in exhibited for exhibited in reports)
        assert 0 < present < len(reports), p


def _main(argv) -> int:
    if argv:
        print("usage: python -m tests.test_extension_golden", file=sys.stderr)
        return 2
    GOLDEN.write_text(
        json.dumps({name: digest(name) for name in HISTORIES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
