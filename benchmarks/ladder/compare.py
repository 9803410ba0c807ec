#!/usr/bin/env python3
"""Compare two ladder row sets: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first half of an A/A pair),
``B`` the candidate.  One row per workload x end-to-end metric with both
medians, their quartiles, ``B/A`` with its base, the bound the benchmark
fixed, and a status:

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    the in-run spread (quartile distance over median, the wider of the two
    sides) exceeds the bound, so the row can neither clear nor convict B —
    unless every repeat of B reads better (``ok``) or worse (``regressed``)
    than every repeat of A.
``exact-mismatch``
    a value the deterministic simulation fixes per seed differs: the
    artifact digest, or a per-layer metric counted in ``count`` or
    ``ticks``.  Expected when B changes what the program does (fewer polls
    is the point of a wake-list); a defect in an A/A pair.

Exits non-zero on any ``regressed`` row; with ``--strict`` (the A/A
criterion) on any row that is not ``ok``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

#: Units whose values repeat exactly per seed.
EXACT_UNITS = ("count", "ticks")


def load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def spread(cell: Dict[str, Any]) -> float:
    """In-run quartile distance over the median; 0 below five samples,
    whose quartiles say nothing (``setup_s`` has 3, ``peak_rss_mb`` 1)."""
    if cell["n"] < 5 or not cell["value"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / cell["value"]


def judge(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    worse = worse_by(a["value"], b["value"], better) > bound
    if max(spread(a), spread(b)) <= bound:
        return "regressed" if worse else "ok"
    # Too noisy for the medians alone: only disjoint sample sets decide.
    lo_a, hi_a = min(a["samples"]), max(a["samples"])
    lo_b, hi_b = min(b["samples"]), max(b["samples"])
    b_below, b_above = hi_b < lo_a, lo_b > hi_a
    if b_below if better == "lower" else b_above:
        return "ok"
    if worse and (b_above if better == "lower" else b_below):
        return "regressed"
    return "unresolved"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every end-to-end row, then one row per exact value that differs."""
    rows: List[Dict[str, Any]] = []
    bounds, better = a["bounds"], a["better"]
    for workload, row_a in a["workloads"].items():
        row_b = b["workloads"].get(workload)
        if row_b is None:
            rows.append({"workload": workload, "metric": "-", "status": "missing"})
            continue
        for metric, cell_a in row_a["end_to_end"].items():
            cell_b = row_b["end_to_end"][metric]
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": cell_a["unit"],
                "a": cell_a,
                "b": cell_b,
                "bound": bounds[metric],
                "status": judge(cell_a, cell_b, better[metric], bounds[metric]),
            })
        exact = [("artifact_sha256", row_a["artifact_sha256"], row_b["artifact_sha256"])]
        exact += [
            (metric, cell["value"], row_b["per_layer"][metric]["value"])
            for metric, cell in row_a["per_layer"].items()
            if cell["unit"] in EXACT_UNITS
        ]
        for metric, value_a, value_b in exact:
            if value_a != value_b:
                rows.append({
                    "workload": workload,
                    "metric": metric,
                    "exact": (value_a, value_b),
                    "status": "exact-mismatch",
                })
    return rows


def render(row: Dict[str, Any]) -> str:
    head = f"{row['workload']:<19} {row['metric']:<30}"
    if "exact" in row:
        value_a, value_b = row["exact"]
        return f"{head} A={value_a} B={value_b}  {row['status']}"
    if "a" not in row:
        return f"{head} {row['status']}"
    a, b = row["a"], row["b"]

    def cell(c: Dict[str, Any]) -> str:
        return f"{c['value']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}] n={c['n']}"

    return (
        f"{head} A={cell(a)}  B={cell(b)}  "
        f"B/A={b['value'] / a['value']:.4f} (base A={a['value']:.5g} {row['unit']})  "
        f"bound {row['bound']:.0%}  {row['status']}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base row set (JSON written by run.py --out)")
    parser.add_argument("b", help="candidate row set")
    parser.add_argument(
        "--strict", action="store_true",
        help="A/A mode: exit non-zero on any row that is not ok",
    )
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            raise SystemExit(f"row sets differ in {key}: {a[key]} vs {b[key]}")
    rows = compare(a, b)
    tally: Dict[str, int] = {}
    for row in rows:
        print(render(row))
        tally[row["status"]] = tally.get(row["status"], 0) + 1
    print(
        f"seed {a['seed']}, A={a['environment']['git_commit']} "
        f"B={b['environment']['git_commit']}: "
        + ", ".join(f"{n} {status}" for status, n in sorted(tally.items()))
    )
    bad = [s for s in tally if s != "ok"] if args.strict else (
        [s for s in tally if s in ("regressed", "missing")]
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
