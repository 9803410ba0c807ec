"""``benchmarks/ab_pairs.py``, the A/B comparison of two checkouts.

Its summaries decide what a before/after row claims, so the win count and
the quartiles are pinned here, and an A/A run of this checkout against
itself must build the same inputs and print the same artifacts.
"""

from __future__ import annotations

import importlib.util
import statistics
from argparse import Namespace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", ROOT / "benchmarks" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def test_a_tie_is_no_win():
    summary = ab_pairs.pair_summary([1.2, 1.0, 0.9, 1.1])
    assert summary == {"pairs": 4, "median_ratio": 1.05, "wins": 2}


def test_quartiles_of_one_run_and_of_several():
    assert ab_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5,
    }


def test_a_directory_is_its_own_checkout():
    with ab_pairs.checkout(str(ROOT)) as path:
        assert path == ROOT


def test_an_a_a_run_matches_its_artifacts(capsys):
    args = Namespace(workload="checker_batch", seed=1, pairs=2)
    out = ab_pairs.paired_repeats([ROOT, ROOT], args)
    assert out["pairs"] == 2 and out["artifacts_match"] and out["failed"] == 0
    assert len(out["runs"]["parent"]) == len(out["runs"]["head"]) == 2
    # The pairs are judged on wall time; reference seconds carry a bias of
    # each worker's own process.
    rate = [
        [r["events"] / r["wall"] for r in out["runs"][side]]
        for side in ("parent", "head")
    ]
    assert out["median_ratio"] == statistics.median(h / p for p, h in zip(*rate))
    assert "reference_median_ratio" in out
    assert "head won" in capsys.readouterr().out
