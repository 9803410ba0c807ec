#!/usr/bin/env python3
"""The ``ladder`` benchmark: one command from checker to replicated cluster.

Two forms, one file:

* **one run** (what ``BENCHMARK.json``'s ``command`` invokes)::

      python3 benchmarks/ladder/run.py --workload svc_single --seed 1 \\
          --seconds 8 --trace 0

  sets the workload up, measures it for ``--seconds``, checks every output
  and prints the metrics by name with their units; the last line of
  standard output is the result object.  ``--trace 0`` reports the
  end-to-end metrics from untraced repeats, ``--trace 1`` the per-layer
  metrics from repeats run under the benchmark's own layer spans.

* **the whole ladder** (no ``--trace``)::

      python3 benchmarks/ladder/run.py --seed 1 --out BENCH.json [--smoke]

  runs every workload (or just ``--workload NAME``) in a fresh subprocess
  per workload and trace mode, echoes their tables and writes the row set
  ``compare.py`` reads.

Closed loop, one process, one thread; see README.md for the workloads,
the metric map and the run shape.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from reference import ReferenceClock, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Set-ups per end-to-end run; ``setup_s`` reports their median.
SETUPS = 3
#: Every size is divided by this under ``--smoke``.
SMOKE_SHRINK = 10


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def summarise(samples: Sequence[float]) -> Dict[str, Any]:
    """The median of the in-run samples with the quartiles, ``n`` and the
    samples themselves beside it."""
    if len(samples) > 1:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": list(samples),
    }


def calibrate() -> float:
    """Seconds for a fixed pure-python spin (the one
    ``bench_scaling_incremental`` uses): recorded so rows from different
    machines can be told apart, never used to rescale a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * 31) % 1_000_003
    return time.perf_counter() - start


class Gate:
    """The correctness gate: every call of every repeat passes through
    :meth:`admit`, which counts offered/failed operations and requires the
    per-seed artifact to be byte-identical on every repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.artifacts: Dict[str, str] = {}

    def admit(self, variant: str, outcome):
        self.attempted += outcome.offered
        self.failed += outcome.failed
        self.messages.extend(outcome.failures)
        first = self.artifacts.setdefault(variant, outcome.artifact)
        if outcome.artifact != first:
            self.fail(
                f"{variant}: artifact {outcome.artifact[:12]} differs from "
                f"the first repeat's {first[:12]}"
            )
        return outcome

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


def timed(fn, *args):
    """``(wall seconds, result)`` of one call, garbage collected first."""
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def measure_end_to_end(rung, args, clock, import_s: float, gate: Gate):
    """Set up :data:`SETUPS` times, then repeat the untraced timed call
    until ``--seconds`` have passed.  Times are reference seconds; the
    wall-clock median stays beside them in the row set."""
    shrink = SMOKE_SHRINK if args.smoke else 1

    def set_up():
        inputs = rung.build(args.seed, shrink)
        # Warm-up repeat: lazy imports and caches settle, timing discarded.
        gate.admit("run 0", rung.inspect(inputs[0], rung.run(inputs[0])))
        return inputs

    setups = []
    for _ in range(1 if args.smoke else SETUPS):
        seconds, _wall, inputs = clock.timed(set_up)
        setups.append(import_s + seconds)
    events, commits, wall_events = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        # Rotate through the run's inputs: the median repeat then averages
        # over their sub-seeds.
        k = len(events) % len(inputs)
        seconds, wall, raw = clock.timed(rung.run, inputs[k])
        outcome = gate.admit(f"run {k}", rung.inspect(inputs[k], raw))
        del raw  # one result alive at a time: the peak RSS is one repeat's
        events.append(outcome.events / seconds)
        commits.append(outcome.commits / seconds)
        wall_events.append(outcome.events / wall)
        if args.smoke or time.perf_counter() >= deadline:
            break
    measured = {
        "setup_s": summarise(setups),
        "events_per_s": summarise(events),
        "commits_per_s": summarise(commits),
        # Net of the reference clock's own table.
        "peak_rss_mb": summarise([peak_rss_mb() - clock.footprint_mb]),
    }
    measured["events_per_s"].update(
        wall_events_per_s=statistics.median(wall_events),
        reference_s=clock.references,
    )
    return measured


def measure_layers(rung, args, clock, gate: Gate):
    """Alternate untraced and span-traced repeats until ``--seconds`` have
    passed; report the fastest traced repeat, in wall seconds: a neighbour
    only ever slows a repeat down, so the fastest is the least disturbed."""
    from spans import SpanLog

    shrink = SMOKE_SHRINK if args.smoke else 1
    generate_s, built = timed(rung.build, args.seed, shrink)
    inputs = built[0]  # counts are exact per input, so trace just the first
    gate.admit("run 0", rung.inspect(inputs, rung.run(inputs)))
    calibration_s = calibrate()
    reference_s = min(clock.measure() for _ in range(3))
    log = SpanLog()
    plain, bare, traced, aggregates, outcomes = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if rung.bare is not None:
            wall, raw = timed(rung.bare, inputs)
            gate.admit("bare", rung.inspect(inputs, raw))
            bare.append(wall)
        wall, raw = timed(rung.run, inputs)
        gate.admit("run 0", rung.inspect(inputs, raw))
        plain.append(wall)
        gc.collect()
        log.reset()
        with log.installed(), log.span("root", rung.root_layer):
            if rung.run_traced is not None:
                raw = rung.run_traced(inputs, log)
            else:
                raw = rung.run(inputs)
        # Same artifact as the untraced repeats: the spans change nothing.
        outcomes.append(gate.admit("run 0", rung.inspect(inputs, raw)))
        aggregate = log.aggregate()
        if aggregates and aggregate.calls != aggregates[0].calls:
            gate.fail("call counts differ between traced repeats")
        aggregates.append(aggregate)
        traced.append(aggregate.wall_s)
        if args.smoke or time.perf_counter() >= deadline:
            break
    fastest = traced.index(min(traced))
    values = layer_metrics(aggregates[fastest], outcomes[fastest])
    values["workloads.generate_s"] = generate_s
    values["bench.calibration_s"] = calibration_s
    values["bench.reference_s"] = reference_s
    values["bench.trace_overhead_ratio"] = min(traced) / min(plain)
    values["observability.overhead_ratio"] = (
        min(plain) / min(bare) if bare else 0.0
    )
    return {name: {"value": value} for name, value in values.items()}


#: Per-layer metrics read off the result object by ``rungs.inspect``
#: (0 where the workload has no such layer).
STATS_METRICS = (
    "commit_latency_ticks_p50",
    "commit_latency_ticks_p95",
    "ticks_per_commit",
    "client.retries",
    "client.timeouts",
    "client.busy",
    "network.dropped",
    "network.duplicated",
    "network.msgs_per_commit",
    "server.busy_replies",
    "server.busy_ratio",
    "server.dedup_hits",
    "coordinator.decisions_commit",
    "coordinator.decisions_abort",
    "coordinator.retransmits",
    "engine.deadlock_victims",
    "incremental.edges_inserted",
    "checker.extract_s",
    "checker.g0_s",
    "checker.g1_s",
    "checker.g2_s",
    "checker.total_s",
    "observability.spans",
    "observability.dossiers",
)


def layer_metrics(aggregate, outcome) -> Dict[str, float]:
    """Every per-layer metric one traced repeat yields; a layer the
    workload never enters reads 0."""
    from rungs import FAMILIES
    from spans import LAYERS

    def calls(*names: str) -> int:
        return sum(aggregate.calls.get(name, 0) for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    stats = outcome.stats
    m: Dict[str, float] = {
        f"{layer}.self_s": aggregate.self_by_layer[layer]
        for layer in LAYERS
        if layer != "history"
    }
    m["history.materialise_s"] = aggregate.self_by_layer["history"]
    m["bench.traced_wall_s"] = aggregate.wall_s

    m["client.poll_calls"] = calls("PendingCall.poll")
    m["client.submit_calls"] = calls("Client.submit")
    m["client.polls_per_op"] = ratio(
        m["client.poll_calls"], m["client.submit_calls"]
    )
    m["network.send_calls"] = calls("SimulatedNetwork.send")
    m["network.step_calls"] = calls("SimulatedNetwork.step")
    m["network.drain_due_calls"] = calls("SimulatedNetwork.drain_due")
    m["network.timer_calls"] = calls("SimulatedNetwork.timer")
    m["network.steps_per_drain"] = ratio(
        m["network.step_calls"], m["network.drain_due_calls"]
    )
    m["server.handle_calls"] = calls("Server.handle")
    m["cluster.handle_calls"] = calls("ShardServer.handle")
    m["cluster.tick_calls"] = calls("Cluster.tick")
    m["cluster.resolve_deadlock_calls"] = calls("Cluster.resolve_deadlock")
    m["cluster.resolve_deadlock_self_s"] = aggregate.self_by_name.get(
        "Cluster.resolve_deadlock", 0.0
    )
    m["cluster.certify_calls"] = calls("Cluster.certify")
    m["cluster.feed_calls"] = calls("GlobalCertifier.feed")
    m["coordinator.handle_calls"] = calls("Coordinator.handle")
    m["replication.handle_calls"] = calls("ReplicaServer.handle")
    m["replication.apply_calls"] = calls(
        "ReplicaServer.apply", "HistoryRecorder.apply_entry"
    )
    m["engine.op_calls"] = calls(
        "Database.begin",
        "TransactionHandle.read",
        "TransactionHandle.write",
        "TransactionHandle.commit",
        "TransactionHandle.abort",
    )
    aborted = calls("HistoryRecorder.abort")
    m["engine.aborts"] = aborted
    m["engine.abort_ratio"] = ratio(
        aborted, aborted + calls("HistoryRecorder.commit")
    )
    for family in FAMILIES:
        m[f"engine.family_{family}_s"] = aggregate.total_by_name.get(
            f"family.{family}", 0.0
        )
    m["locks.acquire_calls"] = calls("LockManager.acquire_item")
    m["locks.release_calls"] = calls(
        "LockManager.release_item",
        "LockManager.release_all",
        "LockManager.downgrade_or_release_read",
    )
    m["recorder.event_calls"] = calls(
        "HistoryRecorder.begin",
        "HistoryRecorder.read",
        "HistoryRecorder.write",
        "HistoryRecorder.commit",
        "HistoryRecorder.abort",
    )
    m["incremental.add_calls"] = calls("IncrementalAnalysis.add")
    m["incremental.query_calls"] = calls(
        "IncrementalAnalysis.provides",
        "IncrementalAnalysis.exhibits",
        "IncrementalAnalysis.strongest_level",
    )
    for name in STATS_METRICS:
        m[name] = stats.get(name, 0)
    m["incremental.edges_per_event"] = ratio(
        m["incremental.edges_inserted"], m["incremental.add_calls"]
    )
    return m


def run_one(args) -> int:
    """One workload, one trace mode, in this process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin string hashing before the interpreter starts: set iteration
        # order, and so timing, must not vary between runs.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's source, never an installed copy.
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    clock = ReferenceClock()
    start = time.perf_counter()
    from rungs import RUNGS

    import_s = time.perf_counter() - start
    if args.workload not in RUNGS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {list(RUNGS)}")
    rung = RUNGS[args.workload]
    gate = Gate()
    if args.trace:
        section, measured = "per_layer", measure_layers(rung, args, clock, gate)
    else:
        section, measured = "end_to_end", measure_end_to_end(
            rung, args, clock, import_s, gate
        )
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(declared) != set(measured):
        raise SystemExit(
            f"BENCHMARK.json {section} and run.py disagree: "
            f"undeclared {sorted(set(measured) - set(declared))}, "
            f"unmeasured {sorted(set(declared) - set(measured))}"
        )
    for name, unit in declared.items():
        measured[name]["unit"] = unit
        print(f"{args.workload:<20} {name:<34} {measured[name]['value']:>16.6f} {unit}")
    for message in gate.messages:
        print(f"FAILED {args.workload}: {message}")
    correct = gate.failed == 0
    print(json.dumps({
        "workload": args.workload,
        "artifact_sha256": gate.artifacts["run 0"],
        "failures": gate.messages,
        section: measured,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": measured[name]["value"], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0 if correct else 1


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_ladder(args) -> int:
    """Every workload in a fresh subprocess per trace mode (isolated heap,
    per-workload ``peak_rss_mb``); echo the tables, write the row set."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; have {names}")
        names = [args.workload]
    rows: Dict[str, Any] = {}
    ok = True
    for name in names:
        row: Dict[str, Any] = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600
            )
            lines = done.stdout.splitlines()
            if len(lines) < 2:
                raise SystemExit(f"{name} --trace {trace} printed no result")
            print("\n".join(lines[:-2]), flush=True)
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and done.returncode == 0 and result["correct"]
            section = "per_layer" if trace else "end_to_end"
            row[section] = detail[section]
            row.setdefault("artifact_sha256", detail["artifact_sha256"])
            if row["artifact_sha256"] != detail["artifact_sha256"]:
                ok = False
                detail["failures"].append("artifact differs between trace modes")
            row["attempted"] = row.get("attempted", 0) + result["attempted"]
            row["failed"] = row.get("failed", 0) + result["failed"]
            row["failures"] = row.get("failures", []) + detail["failures"]
        row["correct"] = row["failed"] == 0 and not row["failures"]
        rows[name] = row
    document = {
        "benchmark": "ladder",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
        },
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "better": {
            m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]
        },
        "workloads": rows,
    }
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    print("ladder: " + ("all outputs correct" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring window per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="run one workload in this process: 0 = end-to-end metrics, "
        "1 = per-layer metrics (omit to run the ladder in subprocesses)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"sizes / {SMOKE_SHRINK}, one set-up, one repeat: a vocabulary "
        "check, not a measurement",
    )
    parser.add_argument("--out", help="ladder form: write the row set here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.trace is None:
        return run_ladder(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
