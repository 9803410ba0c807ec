"""Cross-commit golden gate for the cycle witnesses outside ``Analysis``.

``tests/test_checker_golden.py`` pins the witnesses of the batch report.  Two
more routines hand out a DSG cycle: the online checker's provenance
(:func:`repro.observability.provenance.witness_cycle`, behind every
``phenomenon`` trace event) and the mixed serialization graph
(:meth:`repro.core.msg.MSG.find_cycle`, behind ``mixing_correct``).  Each
visits the edges in a fixed order, so each witness is fixed too, and this
module pins the bytes.  Per history the sha256 of

* ``witness_cycle(inc, p)`` for G0, G1c, G2-item and G2 (``str`` and
  ``describe()`` of every edge, in order), with ``inc`` an
  ``IncrementalAnalysis`` fed the history's events under each ``order_mode``,
* the edges of ``MSG(h, mode).find_cycle()`` and
  ``mixing_correct(h, mode).describe()`` under each
  :class:`~repro.core.conflicts.PredicateDepMode`

is committed in ``tests/data/witness_golden.json``, over the 136 histories of
``tests/test_checker_golden.py`` and the mixed-level histories of
``tests/test_msg.py``.

``python -m tests.test_witness_golden`` (from the repository root)
regenerates the file — only ever on a commit whose witnesses are meant to
move; ``--print NAME...`` prints the digests of the named histories as JSON
for the hash-seed test's subprocesses.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from typing import Any, Callable, Dict, Iterable

import pytest

from repro.core import parse_history
from repro.core.conflicts import Edge, PredicateDepMode
from repro.core.history import History
from repro.core.incremental import IncrementalAnalysis
from repro.core.msg import MSG, mixing_correct
from repro.core.phenomena import Phenomenon
from repro.observability.provenance import witness_cycle

from .test_checker_golden import HISTORIES as CHECKER_HISTORIES
from .test_checker_golden import ROOT, _canonical, _sha

GOLDEN = ROOT / "tests" / "data" / "witness_golden.json"

#: The histories of ``tests/test_msg.py``, where transactions declare levels.
MIXED = {
    "ww-pl1": "b1@PL-1 w1(x1) c1 b2@PL-1 w2(x2) c2",
    "wr-into-pl1": "w1(x1) c1 b2@PL-1 r2(x1) c2",
    "wr-into-pl2": "w1(x1) c1 b2@PL-2 r2(x1) c2",
    "rw-out-of-pl2": "b1@PL-2 r1(x0) c1 w2(x2) c2",
    "rw-out-of-pl3": "b1@PL-3 r1(x0) c1 w2(x2) c2",
    "prw-out-of-pl2.99": "b1@PL-2.99 r1(P: x0*) c1 w2(y2) c2 [P matches: y2]",
    "prw-out-of-pl3": "b1@PL-3 r1(P: x0*) c1 w2(y2) c2 [P matches: y2]",
    "obligatory": (
        "b1@PL-3 b2@PL-1 r1(x0, 1) w2(x2, 2) w2(y2, 2) c2 r1(y2, 2) c1 "
        "[x0 << x2]"
    ),
    "obligatory-all-pl1": (
        "b1@PL-1 b2@PL-1 r1(x0, 1) w2(x2, 2) w2(y2, 2) c2 r1(y2, 2) c1 "
        "[x0 << x2]"
    ),
    "dirty-read-pl2": "b2@PL-2 w1(x1) r2(x1) c2 a1",
    "dirty-read-pl1": "b2@PL-1 w1(x1) r2(x1) c2 a1",
    "one-writer": "w1(x1) c1",
    "serial-mixed": (
        "b1@PL-1 w1(x1) c1 b2@PL-2 r2(x1) w2(y2) c2 b3@PL-3 r3(y2) c3"
    ),
    "footnote": (
        "b1@PL-1 b2@PL-1 b3@PL-3 "
        "r1(x0, 0) r2(x0, 0) w1(x1, 1) w2(x2, 2) c1 c2 "
        "r3(x2, 2) r3(y0, 0) c3 "
        "[x0 << x1 << x2]"
    ),
}

HISTORIES: Dict[str, Callable[[], History]] = {
    **CHECKER_HISTORIES,
    **{
        f"msg/{name}": functools.partial(parse_history, text)
        for name, text in MIXED.items()
    },
}

CYCLE_PHENOMENA = (
    Phenomenon.G0,
    Phenomenon.G1C,
    Phenomenon.G2_ITEM,
    Phenomenon.G2,
)
ORDER_MODES = ("event", "commit")


def _edge_text(edges: Iterable[Edge]) -> str:
    return "\n".join(f"{e} | {e.describe()}" for e in edges)


@functools.lru_cache(maxsize=None)
def digest(name: str) -> Dict[str, Any]:
    """The pinned fingerprint of one history: hashes of the provenance
    witnesses per order mode and of the MSG witness and mixing report per
    predicate mode, plus the small facts in clear."""
    history = HISTORIES[name]()
    out: Dict[str, Any] = {}
    for order_mode in ORDER_MODES:
        inc = IncrementalAnalysis(order_mode=order_mode).add_all(history.events)
        cycles = {str(p): witness_cycle(inc, p) for p in CYCLE_PHENOMENA}
        out[order_mode] = {
            "witnessed": [p for p, cycle in cycles.items() if cycle is not None],
            "witness_sha": _sha(
                "\n\n".join(
                    "none" if cycle is None else _edge_text(cycle)
                    for cycle in cycles.values()
                )
            ),
        }
    for mode in PredicateDepMode:
        cycle = MSG(history, mode).find_cycle()
        report = mixing_correct(history, mode)
        out[f"msg/{mode.value}"] = {
            "cycle": None if cycle is None else len(cycle),
            "ok": report.ok,
            "msg_sha": _sha(
                ("none" if cycle is None else _edge_text(cycle.edges))
                + "\n\n"
                + report.describe()
            ),
        }
    return out


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", HISTORIES)
def test_matches_committed_digest(name: str) -> None:
    assert digest(name) == _golden()[name]


def test_golden_file_covers_every_history() -> None:
    assert sorted(_golden()) == sorted(HISTORIES)


def test_golden_file_pins_the_paths_it_is_named_for() -> None:
    """A golden whose histories never reach a witness search pins nothing
    about it."""
    golden = _golden()
    witnessed = {
        order_mode: {
            p for pinned in golden.values() for p in pinned[order_mode]["witnessed"]
        }
        for order_mode in ORDER_MODES
    }
    assert witnessed["event"] == {str(p) for p in CYCLE_PHENOMENA}
    # Versions keyed by commit order make every ww edge go forward.
    assert witnessed["commit"] == {"G1c", "G2-item", "G2"}
    # G2 through a search (G1c present, so not every G2 cycle threads an
    # anti-dependency) as well as beside an acyclic ww+wr view.
    assert any(
        {"G1c", "G2"} <= set(pinned["event"]["witnessed"])
        for pinned in golden.values()
    )
    for mode in PredicateDepMode:
        rows = [pinned[f"msg/{mode.value}"] for pinned in golden.values()]
        assert sum(row["cycle"] is not None for row in rows) >= 20
        assert any(row["cycle"] is not None and row["cycle"] > 2 for row in rows)
        assert any(row["ok"] for row in rows) and not all(row["ok"] for row in rows)
    # A mixed history whose MSG keeps a cycle, and one whose MSG drops it.
    obligatory = golden["msg/obligatory"]["msg/latest"]
    assert obligatory["cycle"] is not None
    assert golden["msg/obligatory-all-pl1"]["msg/latest"]["ok"]


#: One history per regime where a ``set`` or ``dict`` could leak its order:
#: predicate edges, a recorder history with declared levels, a mixed one.
HASHSEED_HISTORIES = (
    "synthetic/all/3/derived",
    "canonical/H_pred-update",
    "recorder/mixed_optimistic/1",
    "msg/obligatory",
)


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_digests_do_not_depend_on_the_hash_seed(hashseed: str) -> None:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_witness_golden", "--print",
         *HASHSEED_HISTORIES],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    golden = _golden()
    assert json.loads(proc.stdout) == {
        name: golden[name] for name in HASHSEED_HISTORIES
    }


# ----------------------------------------------------------------------
# regeneration / subprocess entry point
# ----------------------------------------------------------------------


def _main(argv) -> int:
    if argv[:1] == ["--print"]:
        print(_canonical({name: digest(name) for name in argv[1:]}))
        return 0
    if argv:
        print(
            "usage: python -m tests.test_witness_golden [--print NAME...]",
            file=sys.stderr,
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
