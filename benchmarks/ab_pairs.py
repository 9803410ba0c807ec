#!/usr/bin/env python3
"""A/B pairs of two revisions on the ladder's own harness.

Two forms, one file, both alternating the two sides so that a slow phase
of a shared box falls on both:

* **paired repeats** (the default)::

      python3 benchmarks/ab_pairs.py PARENT HEAD --workload engine_direct \\
          --seed 1 --pairs 150

  starts one persistent worker per side.  Each worker builds the rung's
  inputs once, runs a warm-up, then times one repeat per request, the
  ladder's way (``rungs.py``'s ``run`` and ``inspect``, reference seconds
  from ``reference.py``).  Pair ``i`` runs input ``i mod inputs`` on both
  sides, the side that goes first alternating.  Prints the median pair
  ratio ``HEAD / PARENT`` of ``events_per_s`` in wall time and how many
  pairs HEAD won, and fails if the two sides' artifacts differ on any
  input.  The pairs are judged on wall time because the two halves of a
  pair run back to back, so a slow phase of the box falls on both, while
  each worker's reference seconds carry a bias of its own process (an
  A/A pair of one checkout read 0.974 in reference seconds, 1.000 in
  wall time); the reference-seconds ratio is printed beside it.

* **whole ladder runs** (``--ladder``)::

      python3 benchmarks/ab_pairs.py PARENT HEAD --ladder \\
          --workload engine_direct --seed 1 --pairs 10 --seconds 3

  alternates whole ``benchmarks/ladder/run.py --trace 0`` runs, one
  process per run, and prints each side's median and quartiles of every
  end-to-end metric, the median pair ratio and the wins of
  ``events_per_s``, and whether every run printed the same
  ``artifact_sha256``.  Each run is a fresh process, so a process's own
  bias falls on either side at random.

``PARENT`` and ``HEAD`` are git revisions, each checked out as a detached
``git worktree`` in a temporary directory that is removed at exit, or
directories holding a checkout.  Each side measures its own ``src/`` with
its own ``benchmarks/ladder``.  ``--out`` writes every run's numbers as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent

#: A persistent worker: build the rung's inputs in the checkout given as
#: ``argv[1]``, then answer one timed repeat per input index read from
#: standard input with one JSON line.
WORKER = r"""
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "benchmarks" / "ladder"), str(root / "src")]
from reference import ReferenceClock
clock = ReferenceClock()
from rungs import RUNGS
rung = RUNGS[sys.argv[2]]
inputs = rung.build(int(sys.argv[3]), 1)
rung.inspect(inputs[0], rung.run(inputs[0]))
print(json.dumps({"inputs": len(inputs)}), flush=True)
for line in sys.stdin:
    k = int(line)
    seconds, wall, raw = clock.timed(rung.run, inputs[k])
    outcome = rung.inspect(inputs[k], raw)
    del raw
    print(json.dumps({
        "input": k, "seconds": seconds, "wall": wall,
        "events": outcome.events, "commits": outcome.commits,
        "failed": outcome.failed, "artifact": outcome.artifact,
    }), flush=True)
"""


def _env() -> Dict[str, str]:
    # The ladder pins string hashing: set order, and so timing, stays put.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


@contextmanager
def checkout(spec: str) -> Iterator[Path]:
    """``spec`` as a directory: itself if it is one, else a detached
    worktree of that revision, removed afterwards."""
    if Path(spec).is_dir():
        yield Path(spec).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        path = Path(tmp) / "tree"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(path), spec],
            cwd=REPO, check=True, capture_output=True,
        )
        try:
            yield path
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(path)],
                cwd=REPO, check=False, capture_output=True,
            )


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def pair_summary(ratios: Sequence[float]) -> Dict[str, Any]:
    """Median HEAD / PARENT ratio of the pairs (above 1: HEAD is better)
    and the number of pairs HEAD won."""
    return {
        "pairs": len(ratios),
        "median_ratio": statistics.median(ratios),
        "wins": sum(r > 1 for r in ratios),
    }


class Worker:
    """One side's persistent worker process."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(root), workload, str(seed)],
            cwd=root, env=_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.inputs = json.loads(self._line())["inputs"]

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker exited with {self.proc.wait()}")
        return line

    def repeat(self, k: int) -> Dict[str, Any]:
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def paired_repeats(roots, args) -> Dict[str, Any]:
    workers = [Worker(root, args.workload, args.seed) for root in roots]
    try:
        if workers[0].inputs != workers[1].inputs:
            raise SystemExit("the two sides build different inputs")
        runs: List[List[Dict[str, Any]]] = [[], []]
        for i in range(args.pairs):
            k = i % workers[0].inputs
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[side].append(workers[side].repeat(k))
    finally:
        for worker in workers:
            worker.close()
    rate = [[r["events"] / r["seconds"] for r in side] for side in runs]
    wall = [[r["events"] / r["wall"] for r in side] for side in runs]
    mismatched = sorted({
        a["input"] for a, b in zip(*runs) if a["artifact"] != b["artifact"]
    })
    failed = sum(r["failed"] for side in runs for r in side)
    out = {
        "form": "paired repeats",
        "metric": "events_per_s",
        "parent": quartiles(rate[0]),
        "head": quartiles(rate[1]),
        **pair_summary([h / p for p, h in zip(*wall)]),
        "reference_median_ratio": statistics.median(
            h / p for p, h in zip(*rate)
        ),
        "artifacts_match": not mismatched,
        "failed": failed,
        "runs": {"parent": runs[0], "head": runs[1]},
    }
    print(
        f"{args.workload} seed {args.seed}: events_per_s "
        f"parent {out['parent']['median']:,.0f} head {out['head']['median']:,.0f} "
        f"in reference seconds; "
        f"median pair ratio {out['median_ratio']:.3f} in wall time, "
        f"head won {out['wins']}/{out['pairs']} (in reference seconds "
        f"{out['reference_median_ratio']:.3f}, which carries a per-process "
        f"bias: an A/A pair read 0.974)"
    )
    if mismatched:
        print(f"ARTIFACTS DIFFER on inputs {mismatched}")
    return out


def ladder_run(root: Path, args) -> Dict[str, Any]:
    done = subprocess.run(
        [
            sys.executable, "benchmarks/ladder/run.py",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ],
        cwd=root, env=_env(), capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"run.py in {root} printed no result:\n{done.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "artifact": detail["artifact_sha256"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def ladder_pairs(roots, args) -> Dict[str, Any]:
    runs: List[List[Dict[str, Any]]] = [[], []]
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(ladder_run(roots[side], args))
    names = list(runs[0][0]["metrics"])
    sides = {
        label: {
            name: quartiles([r["metrics"][name] for r in side]) for name in names
        }
        for label, side in zip(("parent", "head"), runs)
    }
    pairs = pair_summary([
        h["metrics"]["events_per_s"] / p["metrics"]["events_per_s"]
        for p, h in zip(*runs)
    ])
    artifacts = {r["artifact"] for side in runs for r in side}
    out = {
        "form": "ladder",
        "seconds": args.seconds,
        "metric": "events_per_s",
        **sides,
        **pairs,
        "artifacts_match": len(artifacts) == 1,
        "correct": all(r["correct"] for side in runs for r in side),
        "runs": {"parent": runs[0], "head": runs[1]},
    }
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"--seconds {args.seconds} --trace 0 runs:")
    for name in names:
        p, h = sides["parent"][name], sides["head"][name]
        print(
            f"  {name:<14} parent {p['median']:>14,.3f} "
            f"[{p['q1']:,.3f} .. {p['q3']:,.3f}]  head {h['median']:>14,.3f} "
            f"[{h['q1']:,.3f} .. {h['q3']:,.3f}]"
        )
    print(
        f"  events_per_s: median pair ratio {pairs['median_ratio']:.3f}, "
        f"head won {pairs['wins']}/{pairs['pairs']}; artifacts "
        f"{'match' if out['artifacts_match'] else 'DIFFER'}"
    )
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="base revision or checkout directory")
    parser.add_argument("head", help="candidate revision or checkout directory")
    parser.add_argument("--workload", default="engine_direct")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=None,
                        help="pairs to run (default: 150, or 10 with --ladder)")
    parser.add_argument("--ladder", action="store_true",
                        help="alternate whole run.py --trace 0 runs")
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="--ladder: each run's measuring window")
    parser.add_argument("--out", help="write every run's numbers here")
    args = parser.parse_args(argv)
    if args.pairs is None:
        args.pairs = 10 if args.ladder else 150
    with ExitStack() as stack:
        roots = [stack.enter_context(checkout(s)) for s in (args.parent, args.head)]
        result = (ladder_pairs if args.ladder else paired_repeats)(roots, args)
    result = {"workload": args.workload, "seed": args.seed, **result}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = result["artifacts_match"] and result.get("correct", not result.get("failed"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
