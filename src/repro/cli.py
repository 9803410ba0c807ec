"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``check``
    Full analysis of a history: phenomena with witnesses, per-level
    verdicts, strongest level.  ``--extensions`` adds PL-CS/PL-2+/PL-SI,
    ``--level`` restricts to one level (exit status reflects the verdict),
    ``--profile FILE`` runs the analysis under cProfile (pstats dump plus a
    top-20 summary).
``check-many``
    Check a batch of history files (one history per file) and print one
    summary line each; ``--processes N`` fans the batch out over worker
    processes (default: one per CPU) and ``--chunksize K`` packs K
    histories into each pickled worker task.
``classify``
    Print just the strongest ANSI level (or ``none``).
``dsg``
    Emit the history's direct serialization graph as GraphViz dot.
``phenomena``
    One line per phenomenon: exhibited or absent.
``mixing``
    Test Definition 9 mixing-correctness (levels from ``bI@PL-x`` events).
``preventative``
    Run the Berenson et al. P0–P3 baseline for comparison.
``repair``
    Compute which transactions must abort (with cascades) for the history
    to provide ``--level`` (default PL-3), and print the repaired history.
``timeline``
    Render the history as a transaction/time grid (one row per
    transaction).
``trace``
    Replay the history through the online monitor and the batch checker
    under a :class:`~repro.observability.Tracer` and emit the JSONL trace
    (``--out`` for a file, default stdout).  Latched phenomena appear as
    ``phenomenon`` provenance events naming the witness cycle's edges.
``stats``
    Check the history with a fresh metrics registry attached and print the
    collected metrics as text (default), JSON (``--format json``), or
    Prometheus exposition (``--format prometheus``).
``serve``
    Run the in-process client/server service demo: one server behind the
    simulated unreliable network, a scripted client session, journal and
    resulting history printed.  ``--selftest`` instead runs a seeded
    fault+crash exchange and verifies determinism and live certification
    (exit status reflects the verdict; no history argument needed).
``stress``
    Seeded multi-client fault-injection stress run over the service layer:
    drops, duplicates, reordering, optional crash/restart; every commit is
    live-certified at its declared level.  ``--journal``/``--history`` dump
    the client-observed journals / server history; ``--trace FILE``
    records the causally-linked end-to-end service trace (see
    ``docs/observability.md``); ``--metrics``/``--metrics-out`` print or
    dump the metrics snapshot (no history argument needed).
``corpus``
    Self-test: re-check every canonical paper history and anomaly against
    its documented verdicts and print the admission matrix (no history
    argument needed).
``report``
    Run a condensed version of every paper experiment and print a markdown
    reproduction report.  With ``--stress`` (plus the stress options), run
    one seeded stress workload instead and emit its unified run report —
    config, outcome, latency percentiles, contended objects, phenomena
    with witness-cycle provenance, metrics; ``--trace FILE`` (optionally
    with ``--metrics-file``) builds the same report from a previously
    recorded trace instead.  ``--format json`` renders JSON (no history
    argument needed).

The history is taken from the positional argument, from ``--file``, or from
stdin, in the paper's notation::

    python -m repro classify "w1(x1) c1 r2(x1) c2"
    echo "w1(x1) r2(x1) c2 a1" | python -m repro check --auto-complete

Exit status: 0 on success (and, with ``--level``, when the level is
provided); 1 when a requested level is violated; 2 on bad input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .baseline.preventative import PreventativeAnalysis, PreventativePhenomenon
from .checker import check
from .core.dsg import DSG
from .core.levels import IsolationLevel, classify
from .core.msg import mixing_correct
from .core.parser import parse_history
from .exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generalized isolation level checker (Adya/Liskov/O'Neil, ICDE 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_history_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "history",
            nargs="?",
            help="history in the paper's notation (default: read stdin)",
        )
        p.add_argument("--file", "-f", help="read the history from a file")
        p.add_argument(
            "--auto-complete",
            action="store_true",
            help="append aborts for unfinished transactions (Section 4.2)",
        )

    p_check = sub.add_parser("check", help="full phenomenon/level analysis")
    add_history_args(p_check)
    p_check.add_argument(
        "--extensions",
        action="store_true",
        help="also test PL-CS, PL-2+ and PL-SI",
    )
    p_check.add_argument(
        "--level",
        help="test only this level (name or alias, e.g. 'PL-3', 'repeatable read')",
    )
    p_check.add_argument(
        "--metrics",
        action="store_true",
        help="also print the checker's collected metrics",
    )
    p_check.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the check under cProfile: write pstats to FILE and "
        "print the top-20 functions by cumulative time",
    )

    p_many = sub.add_parser(
        "check-many",
        help="check a batch of history files, optionally in parallel",
    )
    p_many.add_argument(
        "files", nargs="+", help="history files in the paper's notation"
    )
    p_many.add_argument(
        "--processes",
        "-j",
        type=int,
        default=None,
        help="worker processes (default: one per CPU; 1 = serial)",
    )
    p_many.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="histories per pickled worker task (default: a heuristic "
        "targeting ~4 tasks per worker)",
    )
    p_many.add_argument(
        "--extensions",
        action="store_true",
        help="also test PL-CS, PL-2+ and PL-SI",
    )
    p_many.add_argument(
        "--auto-complete",
        action="store_true",
        help="append aborts for unfinished transactions (Section 4.2)",
    )
    p_many.add_argument(
        "--metrics",
        action="store_true",
        help="also print collected metrics (forces the serial path)",
    )

    p_classify = sub.add_parser("classify", help="print the strongest ANSI level")
    add_history_args(p_classify)

    p_dsg = sub.add_parser("dsg", help="print the DSG as GraphViz dot")
    add_history_args(p_dsg)

    p_phen = sub.add_parser("phenomena", help="list exhibited phenomena")
    add_history_args(p_phen)

    p_mix = sub.add_parser("mixing", help="Definition 9 mixing-correctness")
    add_history_args(p_mix)

    p_prev = sub.add_parser(
        "preventative", help="Berenson et al. P0-P3 baseline verdicts"
    )
    add_history_args(p_prev)

    p_timeline = sub.add_parser(
        "timeline", help="render the history as a transaction/time grid"
    )
    add_history_args(p_timeline)

    p_repair = sub.add_parser(
        "repair", help="abort set needed to certify the history at a level"
    )
    add_history_args(p_repair)
    p_repair.add_argument(
        "--level", default="PL-3", help="target level (default PL-3)"
    )

    p_trace = sub.add_parser(
        "trace",
        help="replay the history under a tracer and emit the JSONL trace",
    )
    add_history_args(p_trace)
    p_trace.add_argument(
        "--out",
        "-o",
        help="write the JSONL trace to this file (default: stdout)",
    )

    p_stats = sub.add_parser(
        "stats", help="check the history and print the collected metrics"
    )
    add_history_args(p_stats)
    p_stats.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="output format (default: text)",
    )
    p_stats.add_argument(
        "--extensions",
        action="store_true",
        help="also test PL-CS, PL-2+ and PL-SI",
    )

    def add_observability_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            metavar="FILE",
            help="record an end-to-end service trace to this JSONL file",
        )
        p.add_argument(
            "--metrics",
            action="store_true",
            help="also print the collected metrics as text",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="write the metrics snapshot to this JSON file",
        )

    def add_stress_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheduler", default="locking")
        p.add_argument(
            "--level", default=None, help="declared isolation level for every "
            "transaction (default: the scheduler's natural level)"
        )
        p.add_argument("--clients", type=int, default=4)
        p.add_argument(
            "--txns", type=int, default=25, help="committed txns per client"
        )
        p.add_argument("--keys", type=int, default=8)
        p.add_argument("--ops", type=int, default=2, help="RMW pairs per txn")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--drop", type=float, default=0.05)
        p.add_argument("--duplicate", type=float, default=0.05)
        p.add_argument("--min-delay", type=int, default=1)
        p.add_argument("--max-delay", type=int, default=4)
        p.add_argument(
            "--crash-after",
            type=int,
            default=None,
            help="crash the server after this many commits (then restart)",
        )
        p.add_argument("--restart-delay", type=int, default=25)

    p_serve = sub.add_parser(
        "serve", help="in-process client/server service demo"
    )
    p_serve.add_argument(
        "--selftest",
        action="store_true",
        help="run a seeded fault+crash exchange and verify determinism "
        "and live certification",
    )
    p_serve.add_argument(
        "--scheduler",
        default="locking",
        help="engine family (locking, optimistic, snapshot-isolation, "
        "mv-read-committed, mixed-optimistic, or an alias)",
    )
    p_serve.add_argument("--seed", type=int, default=0, help="fault seed")
    add_observability_args(p_serve)

    p_stress = sub.add_parser(
        "stress", help="seeded fault-injection stress run over the service"
    )
    add_stress_args(p_stress)
    p_stress.add_argument(
        "--journal",
        action="store_true",
        help="also print the client-observed journals",
    )
    p_stress.add_argument(
        "--history",
        action="store_true",
        help="also print the resulting server-side history",
    )
    p_stress.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the run under cProfile: write pstats to FILE and "
        "print the top-20 functions by cumulative time",
    )
    add_observability_args(p_stress)

    p_cluster = sub.add_parser(
        "cluster-stress",
        help="seeded stress run over a sharded cluster with cross-shard "
        "2PC and global certification",
    )
    add_stress_args(p_cluster)
    p_cluster.add_argument(
        "--shards", type=int, default=3,
        help="shard servers in the cluster (default: %(default)s)",
    )
    p_cluster.add_argument(
        "--slots", type=int, default=16,
        help="hash slots in the shard map (default: %(default)s)",
    )
    p_cluster.add_argument(
        "--crash-shard", default=None, metavar="SHARD:N",
        help="crash shard SHARD right after its N-th prepare (the "
        "between-prepare-and-commit WAL-recovery fault)",
    )
    p_cluster.add_argument(
        "--shard-restart-delay", type=int, default=30,
        help="ticks until a fault-schedule-crashed shard restarts",
    )
    p_cluster.add_argument(
        "--partition-coordinator", type=int, default=None, metavar="N",
        help="partition the coordinator from every shard once it has sent "
        "N prepares (mid-prepare), healing after --heal-after ticks",
    )
    p_cluster.add_argument(
        "--heal-after", type=int, default=40,
        help="ticks until the coordinator partition heals",
    )
    p_cluster.add_argument(
        "--retry-every", type=int, default=25,
        help="coordinator retransmit period for unacked 2PC messages",
    )
    p_cluster.add_argument(
        "--replicas", type=int, default=0,
        help="backup replicas per shard, fed from the primary's "
        "replication log with seeded lag (default: %(default)s)",
    )
    p_cluster.add_argument(
        "--read-preference", default="primary",
        choices=("primary", "replica", "nearest"),
        help="where replica-eligible reads route (default: %(default)s)",
    )
    p_cluster.add_argument(
        "--session-guarantees", default=None, metavar="SPEC",
        help="comma-separated session guarantees for replica reads: "
        "ryw/read-your-writes, mr/monotonic-reads, causal, plus "
        "wait|redirect for the lag reaction; 'none' (the default) reads "
        "stale-by-choice and records violation witnesses instead",
    )
    p_cluster.add_argument(
        "--read-only-fraction", type=float, default=0.0,
        help="fraction of transactions that are read-only probes, the "
        "ones eligible for replica routing (default: %(default)s)",
    )
    p_cluster.add_argument(
        "--replication-every", type=int, default=4,
        help="primary replication pump period in ticks "
        "(default: %(default)s)",
    )
    p_cluster.add_argument(
        "--replication-lag", default="1:4", metavar="MIN:MAX",
        help="seeded per-batch replication delay range "
        "(default: %(default)s)",
    )
    p_cluster.add_argument(
        "--journal",
        action="store_true",
        help="also print the client-observed journals",
    )
    p_cluster.add_argument(
        "--history",
        action="store_true",
        help="also print the merged cross-shard history",
    )
    p_cluster.add_argument(
        "--selftest",
        action="store_true",
        help="run the cross-shard fault matrix twice (shard crash between "
        "prepare and commit, coordinator partitioned mid-prepare) plus "
        "the replica-lag matrix (backup crash mid-catch-up, partitioned "
        "primary with stale replica reads, promote-backup via ShardMap) "
        "and verify byte-for-byte determinism, the shards=1 equivalence, "
        "and opcheck/DSG agreement",
    )
    add_observability_args(p_cluster)

    p_capacity = sub.add_parser(
        "capacity",
        help="open-loop offered-load sweep: saturation knee, SLO verdicts, "
        "contention heatmap",
    )
    p_capacity.add_argument(
        "--rates",
        default="0.02,0.05,0.1,0.2",
        help="comma-separated offered arrival rates (txns/tick) for the "
        "ladder (default: %(default)s)",
    )
    p_capacity.add_argument(
        "--horizon", type=int, default=1500,
        help="ticks of offered load per rung (default: %(default)s)",
    )
    p_capacity.add_argument("--scheduler", default="locking")
    p_capacity.add_argument(
        "--level", default=None, help="declared isolation level for every "
        "transaction (default: the scheduler's natural level)"
    )
    p_capacity.add_argument("--clients", type=int, default=8)
    p_capacity.add_argument("--keys", type=int, default=8)
    p_capacity.add_argument("--ops", type=int, default=2)
    p_capacity.add_argument("--seed", type=int, default=0)
    p_capacity.add_argument("--drop", type=float, default=0.0)
    p_capacity.add_argument("--duplicate", type=float, default=0.0)
    p_capacity.add_argument("--min-delay", type=int, default=1)
    p_capacity.add_argument("--max-delay", type=int, default=2)
    p_capacity.add_argument(
        "--zipf", type=float, default=None, metavar="THETA",
        help="Zipf-skew the key picks with this theta (default: uniform)",
    )
    p_capacity.add_argument(
        "--max-active", type=int, default=0,
        help="admission control: shed begins past this many active "
        "transactions (0 = no shedding)",
    )
    p_capacity.add_argument("--retry-after", type=int, default=8)
    p_capacity.add_argument(
        "--certify-every", type=int, default=1,
        help="batch commit certification in groups of this size",
    )
    p_capacity.add_argument(
        "--on-uncertified",
        choices=("ignore", "downgrade", "repair"),
        default="ignore",
        help="reaction to a failed live certification",
    )
    p_capacity.add_argument(
        "--slo-p99", type=float, default=None, metavar="TICKS",
        help="SLO: rolling p99 commit latency must stay <= TICKS",
    )
    p_capacity.add_argument(
        "--slo-certified", type=float, default=None, metavar="FRACTION",
        help="SLO: certified fraction in the window must stay >= FRACTION",
    )
    p_capacity.add_argument(
        "--slo-queue", type=float, default=None, metavar="DEPTH",
        help="SLO: arrival backlog must stay <= DEPTH",
    )
    p_capacity.add_argument("--window", type=int, default=500)
    p_capacity.add_argument("--sample-every", type=int, default=100)
    p_capacity.add_argument(
        "--no-heatmap", dest="heatmap", action="store_false",
        help="skip per-rung tracing (no contention heatmap; faster)",
    )
    p_capacity.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="report rendering (default: markdown)",
    )
    p_capacity.add_argument(
        "--selftest",
        action="store_true",
        help="run a small fixed ladder twice and verify the capacity "
        "report is byte-identical and well-formed",
    )

    def add_dossier_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheduler", default="locking")
        p.add_argument(
            "--level", default="PL-2",
            help="declared isolation level (default: %(default)s)",
        )
        p.add_argument("--clients", type=int, default=4)
        p.add_argument("--txns", type=int, default=10)
        p.add_argument("--keys", type=int, default=6)
        p.add_argument("--ops", type=int, default=4)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--shards", type=int, default=2)
        p.add_argument(
            "--replicas", type=int, default=2,
            help="backup replicas per shard (default: %(default)s); with "
            "--read-preference replica and no session guarantees the "
            "stale reads latch phenomena for the recorder to dossier",
        )
        p.add_argument(
            "--read-preference", default="replica",
            choices=("primary", "replica", "nearest"),
        )
        p.add_argument("--read-only-fraction", type=float, default=0.5)
        p.add_argument("--replication-every", type=int, default=12)
        p.add_argument("--replication-lag", default="4:10", metavar="MIN:MAX")
        p.add_argument("--drop", type=float, default=0.05)
        p.add_argument("--duplicate", type=float, default=0.05)
        p.add_argument("--min-delay", type=int, default=1)
        p.add_argument("--max-delay", type=int, default=4)

    p_dossier = sub.add_parser(
        "dossier",
        help="run a seeded replicated cluster workload under the anomaly "
        "flight recorder and render the dossiers it captures (witness "
        "cycle + trace slice + replica/2PC state per latched anomaly)",
    )
    add_dossier_workload_args(p_dossier)
    p_dossier.add_argument(
        "--capacity", type=int, default=256,
        help="flight-ring capacity per shard lane (default: %(default)s)",
    )
    p_dossier.add_argument(
        "--opcheck",
        action="store_true",
        help="also run the operation-interval checker post-run and capture "
        "a stale-read dossier when it fails",
    )
    p_dossier.add_argument(
        "--out", "-o", metavar="FILE",
        help="write the dossiers as one canonical JSON array to FILE",
    )
    p_dossier.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout rendering (default: %(default)s)",
    )
    p_dossier.add_argument(
        "--selftest",
        action="store_true",
        help="run the seeded workload twice and verify the dossiers are "
        "byte-identical, cover every witness transaction's spans, and "
        "leave the run's artifacts untouched",
    )

    p_creport = sub.add_parser(
        "cluster-report",
        help="run a seeded replicated cluster workload and emit the "
        "unified run report with its Cluster section (per-shard latency, "
        "replication lag, 2PC in-doubt durations, session violations)",
    )
    add_dossier_workload_args(p_creport)
    p_creport.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="report rendering (default: %(default)s)",
    )
    p_creport.add_argument(
        "--chrome-out", metavar="FILE",
        help="also write the trace as Chrome trace-event JSON with "
        "per-shard/per-replica Perfetto tracks",
    )

    sub.add_parser(
        "corpus",
        help="self-test against the paper corpus; print the admission matrix",
    )

    p_report = sub.add_parser(
        "report",
        help="paper reproduction report, or (--stress/--trace) a unified "
        "run report for one stress run",
    )
    p_report.add_argument(
        "--stress",
        action="store_true",
        help="run one seeded stress workload (options below) and emit its "
        "unified run report instead of the paper report",
    )
    add_stress_args(p_report)
    p_report.add_argument(
        "--trace",
        metavar="FILE",
        help="build the run report from this trace file (JSONL or Chrome "
        "trace JSON) instead of running a workload",
    )
    p_report.add_argument(
        "--metrics-file",
        metavar="FILE",
        help="metrics snapshot JSON to fold into the report (with --trace)",
    )
    p_report.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="report rendering (default: markdown)",
    )

    return parser


def _read_history(args, out=sys.stdout):
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    elif args.history is not None:
        text = args.history
    else:
        text = sys.stdin.read()
    return parse_history(text, auto_complete=args.auto_complete)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit status."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "corpus":
        return _run_corpus(out)

    if args.command == "report":
        if args.stress or args.trace:
            return _run_report_cmd(args, out)
        from .analysis.report_gen import generate_report

        text, all_ok = generate_report()
        print(text, file=out)
        return 0 if all_ok else 1

    if args.command == "serve":
        return _run_serve(args, out)

    if args.command == "stress":
        return _run_stress_cmd(args, out)

    if args.command == "cluster-stress":
        return _run_cluster_stress_cmd(args, out)

    if args.command == "capacity":
        return _run_capacity_cmd(args, out)

    if args.command == "dossier":
        return _run_dossier_cmd(args, out)

    if args.command == "cluster-report":
        return _run_cluster_report_cmd(args, out)

    if args.command == "check-many":
        return _run_check_many(args, out)

    try:
        history = _read_history(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        registry = None
        if args.metrics:
            from .observability import MetricsRegistry

            registry = MetricsRegistry()
        if args.level:
            try:
                level = IsolationLevel.from_string(args.level)
            except KeyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            profiler = _maybe_profile(args.profile)
            report = check(history, levels=(level,), metrics=registry)
            verdict = report.verdicts[level]
            print(verdict.describe(), file=out)
            if registry is not None:
                print("\nmetrics:", file=out)
                print(registry.render_text(), file=out)
            _dump_profile(profiler, args.profile, out)
            return 0 if verdict.ok else 1
        profiler = _maybe_profile(args.profile)
        report = check(history, extensions=args.extensions, metrics=registry)
        print(report.explain(), file=out)
        if registry is not None:
            print("\nmetrics:", file=out)
            print(registry.render_text(), file=out)
        _dump_profile(profiler, args.profile, out)
        return 0

    if args.command == "classify":
        level = classify(history)
        print(str(level) if level is not None else "none", file=out)
        return 0

    if args.command == "dsg":
        print(DSG(history).to_dot(), file=out)
        return 0

    if args.command == "phenomena":
        report = check(history)
        for item in report.phenomena():
            print(item.describe(), file=out)
        return 0

    if args.command == "mixing":
        result = mixing_correct(history)
        print(result.describe(), file=out)
        return 0 if result.ok else 1

    if args.command == "preventative":
        analysis = PreventativeAnalysis(history)
        for phenomenon in PreventativePhenomenon:
            print(analysis.report(phenomenon).describe(), file=out)
        return 0

    if args.command == "timeline":
        from .core.timeline import timeline

        print(timeline(history), file=out)
        return 0

    if args.command == "trace":
        return _run_trace(args, history, out)

    if args.command == "stats":
        return _run_stats(args, history, out)

    if args.command == "repair":
        from .analysis.repair import repair as run_repair

        try:
            level = IsolationLevel.from_string(args.level)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = run_repair(history, level)
        print(result.describe(), file=out)
        if not result.clean:
            print(f"repaired history: {result.history}", file=out)
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def _maybe_profile(path: Optional[str]):
    """Start a cProfile profiler when ``--profile FILE`` was given."""
    if not path:
        return None
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _dump_profile(profiler, path: Optional[str], out) -> None:
    """Stop the profiler, dump raw pstats to ``path`` and print the top-20
    functions by cumulative time (loadable later with ``pstats.Stats``)."""
    if profiler is None:
        return
    import io
    import pstats

    profiler.disable()
    profiler.dump_stats(path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(20)
    print(f"\nprofile: pstats written to {path}", file=out)
    print(buffer.getvalue().rstrip(), file=out)


def _observability_sinks(args):
    """Build the (metrics, tracer) pair the ``--trace``/``--metrics``/
    ``--metrics-out`` flags ask for (``None`` where not requested)."""
    metrics = tracer = None
    if args.metrics or args.metrics_out:
        from .observability import MetricsRegistry

        metrics = MetricsRegistry()
    if args.trace:
        from .observability import Tracer

        tracer = Tracer()
    return metrics, tracer


def _flush_observability(args, metrics, tracer, out) -> None:
    """Write/print whatever the observability flags requested."""
    import json

    if tracer is not None and args.trace:
        from .observability import JsonlSink

        with JsonlSink(args.trace) as sink:
            for record in tracer.records:
                sink(record)
        print(
            f"wrote {len(tracer.records)} trace records to {args.trace}",
            file=out,
        )
    if metrics is not None and args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics snapshot to {args.metrics_out}", file=out)
    if metrics is not None and args.metrics:
        print("\nmetrics:", file=out)
        print(metrics.render_text(), file=out)


def _run_serve(args, out) -> int:
    """Scripted client/server demo; ``--selftest`` runs the seeded
    fault+crash exchange and verifies determinism + certification."""
    from .service import NetworkConfig, StressConfig, run_stress

    metrics, tracer = _observability_sinks(args)
    if args.selftest:
        cfg = StressConfig(
            scheduler=args.scheduler,
            clients=3,
            txns_per_client=10,
            seed=args.seed,
            network=NetworkConfig(
                drop=0.05, duplicate=0.05, min_delay=1, max_delay=4
            ),
            crash_after_commits=10,
        )
        first = run_stress(cfg, metrics=metrics, tracer=tracer)
        second = run_stress(cfg)
        reproducible = (
            first.history_text == second.history_text
            and first.journals == second.journals
        )
        ok = (
            reproducible
            and first.all_certified
            and first.crashes == 1
            and first.restarts == 1
            and first.committed == 30
        )
        print(first.summary(), file=out)
        print(
            f"reproducible           : {'yes' if reproducible else 'NO'}",
            file=out,
        )
        print(f"selftest               : {'ok' if ok else 'FAILED'}", file=out)
        _flush_observability(args, metrics, tracer, out)
        return 0 if ok else 1

    from .service import Client, Server, SimulatedNetwork

    net = SimulatedNetwork(NetworkConfig(seed=args.seed), metrics=metrics, tracer=tracer)
    if tracer is not None:
        tracer.use_clock(lambda: float(net.now))
    server = Server(
        net, args.scheduler, initial={"x": 10, "y": 20},
        metrics=metrics, tracer=tracer,
    )
    alice = Client(net, name="alice", metrics=metrics, tracer=tracer)
    bob = Client(net, name="bob", metrics=metrics, tracer=tracer)
    alice.begin()
    x = alice.read("x", for_update=True)
    alice.write("x", x + 5)
    alice.commit()
    bob.begin()
    bob.write("y", bob.read("y", for_update=True) - 5)
    bob.commit()
    for client in (alice, bob):
        for line in client.journal:
            print(line, file=out)
    print(f"\nhistory: {server.history()}", file=out)
    _flush_observability(args, metrics, tracer, out)
    return 0


def _stress_config(args, *, cluster=None):
    """The :class:`StressConfig` the shared stress CLI options map to."""
    from .service import NetworkConfig, SessionGuarantees, StressConfig

    spec = getattr(args, "session_guarantees", None)
    guarantees = SessionGuarantees.parse(spec) if spec is not None else None
    return StressConfig(
        scheduler=args.scheduler,
        level=args.level,
        clients=args.clients,
        txns_per_client=args.txns,
        keys=args.keys,
        ops_per_txn=args.ops,
        seed=args.seed,
        network=NetworkConfig(
            drop=args.drop,
            duplicate=args.duplicate,
            min_delay=args.min_delay,
            max_delay=args.max_delay,
        ),
        crash_after_commits=args.crash_after,
        restart_delay=args.restart_delay,
        cluster=cluster,
        read_preference=getattr(args, "read_preference", "primary"),
        session_guarantees=guarantees,
        read_only_fraction=getattr(args, "read_only_fraction", 0.0),
    )


def _run_stress_cmd(args, out) -> int:
    """Run one seeded stress workload and print the summary."""
    from .service import run_stress

    metrics, tracer = _observability_sinks(args)
    profiler = _maybe_profile(args.profile)
    try:
        result = run_stress(
            _stress_config(args), metrics=metrics, tracer=tracer
        )
    except (KeyError, ValueError) as exc:
        if profiler is not None:
            profiler.disable()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary(), file=out)
    if args.journal:
        print("\nclient journals:", file=out)
        print(result.journal_text(), file=out)
    if args.history:
        print("\nhistory:", file=out)
        print(result.history_text, file=out)
    _dump_profile(profiler, args.profile, out)
    _flush_observability(args, metrics, tracer, out)
    return 0 if result.all_certified else 1


def _cluster_config(args):
    """The :class:`ClusterConfig` the cluster CLI options map to."""
    from .service import ClusterConfig

    crash = None
    if args.crash_shard:
        shard, _, nth = args.crash_shard.partition(":")
        try:
            crash = (int(shard), int(nth) if nth else 1)
        except ValueError:
            raise ValueError(f"bad --crash-shard {args.crash_shard!r}; "
                             "expected SHARD or SHARD:N") from None
    lo, _, hi = args.replication_lag.partition(":")
    try:
        lag = (int(lo), int(hi) if hi else int(lo))
    except ValueError:
        raise ValueError(f"bad --replication-lag {args.replication_lag!r}; "
                         "expected MIN:MAX") from None
    return ClusterConfig(
        shards=args.shards,
        slots=args.slots,
        crash_shard_after_prepares=crash,
        shard_restart_delay=args.shard_restart_delay,
        partition_coordinator_after_prepares=args.partition_coordinator,
        heal_after=args.heal_after,
        retry_every=args.retry_every,
        replicas=args.replicas,
        replication_every=args.replication_every,
        replication_lag=lag,
    )


def _cluster_selftest(args, metrics, tracer, out) -> int:
    """Fault-matrix + equivalence selftest for the sharded cluster: the
    faulty cross-shard run replays byte for byte, and a one-shard cluster
    is byte-identical to the plain single-server service."""
    from dataclasses import replace

    from .service import ClusterConfig, NetworkConfig, StressConfig, run_stress

    faulty = StressConfig(
        scheduler="locking",
        clients=4,
        txns_per_client=8,
        keys=8,
        ops_per_txn=2,
        seed=args.seed,
        network=NetworkConfig(
            drop=0.05, duplicate=0.05, min_delay=1, max_delay=4
        ),
        cluster=ClusterConfig(
            shards=3,
            crash_shard_after_prepares=(1, 1),
            partition_coordinator_after_prepares=6,
            heal_after=40,
        ),
    )
    first = run_stress(faulty, metrics=metrics, tracer=tracer)
    second = run_stress(faulty)
    reproducible = (
        first.history_text == second.history_text
        and first.journals == second.journals
    )
    coord = first.cluster.coordinator
    matrix_ok = (
        first.cluster.crashes >= 1
        and first.cluster.restarts >= 1
        and coord.retransmits >= 1
        and coord.decisions["commit"] >= 1
    )

    single = StressConfig(
        scheduler=args.scheduler,
        clients=3,
        txns_per_client=8,
        seed=args.seed,
        network=NetworkConfig(
            drop=0.05, duplicate=0.05, min_delay=1, max_delay=4
        ),
    )
    solo = run_stress(single)
    one = run_stress(replace(single, cluster=ClusterConfig(shards=1)))
    equivalent = (
        one.history_text == solo.history_text
        and one.journals == solo.journals
    )

    replica_ok, replica_lines = _replica_selftest(args)

    ok = (
        reproducible and matrix_ok and equivalent and first.all_certified
        and replica_ok
    )
    print(first.summary(), file=out)
    print(
        "2pc decisions          : "
        f"commit={coord.decisions['commit']} "
        f"abort={coord.decisions['abort']} "
        f"retransmits={coord.retransmits}",
        file=out,
    )
    print(
        f"fault matrix           : {'exercised' if matrix_ok else 'NOT HIT'}",
        file=out,
    )
    print(
        f"reproducible           : {'yes' if reproducible else 'NO'}",
        file=out,
    )
    print(
        "shards=1 == single     : "
        f"{'byte-identical' if equivalent else 'DIVERGED'}",
        file=out,
    )
    for line in replica_lines:
        print(line, file=out)
    print(f"selftest               : {'ok' if ok else 'FAILED'}", file=out)
    _flush_observability(args, metrics, tracer, out)
    return 0 if ok else 1


def _replica_selftest(args):
    """The replica-lag fault matrix: backup crash mid-catch-up, a
    partitioned primary serving stale replica reads, and promote-backup
    via a ShardMap change — each seeded, each replayed byte for byte."""
    from .service import (
        ClusterConfig,
        MapChange,
        NetworkConfig,
        SessionGuarantees,
        StressConfig,
        run_stress,
    )

    net = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)

    # Backup crash mid-catch-up, guarantees enforced (causal, redirect):
    # the fault fires, the run replays byte for byte, and no session
    # guarantee is ever violated.  Declared PL-2: causal sessions still
    # permit globally stale (lagging-snapshot) reads, which cap the
    # natural level below PL-3 on many seeds.
    crash_cfg = StressConfig(
        scheduler="locking", level="PL-2", clients=4, txns_per_client=10,
        keys=8, ops_per_txn=2, seed=args.seed, network=net,
        cluster=ClusterConfig(
            shards=2, replicas=2,
            crash_replica_after_applies=(0, 0, 10),
            replica_restart_delay=25,
        ),
        read_preference="replica",
        session_guarantees=SessionGuarantees(causal=True),
        read_only_fraction=0.5,
    )
    c1 = run_stress(crash_cfg)
    c2 = run_stress(crash_cfg)
    backup = c1.cluster.replica_of(0, 0)
    crash_ok = (
        c1.history_text == c2.history_text
        and c1.journals == c2.journals
        and c1.ops == c2.ops
        and backup is not None
        and backup.crashes >= 1
        and backup.restarts >= 1
        and not c1.session_violations
        and c1.all_certified
    )

    # Partitioned primary with stale-by-choice replica reads (guarantees
    # off, slow replication): the DSG checker still certifies every
    # commit at its declared PL-2 while the client-side record
    # accumulates violation witnesses — the explained divergence.
    stale_cfg = StressConfig(
        scheduler="locking", level="PL-2", clients=4, txns_per_client=10,
        keys=4, ops_per_txn=2, seed=args.seed, network=net,
        cluster=ClusterConfig(
            shards=2, replicas=2,
            replication_every=12, replication_lag=(4, 10),
            partition_primary_after_commits=(1, 5), heal_after=60,
        ),
        read_preference="replica",
        read_only_fraction=0.5,
    )
    s1 = run_stress(stale_cfg)
    s2 = run_stress(stale_cfg)
    stale_verdict = s1.opcheck()
    stale_ok = (
        s1.history_text == s2.history_text
        and s1.ops == s2.ops
        and s1.cluster.network.counters["lost_partition"] >= 1
        and len(s1.session_violations) >= 1
        and s1.all_certified
        # Any opcheck divergence must come with stale-read witnesses —
        # the *explained* divergence (passing is legitimate too: session
        # floors are per-shard offsets, coarser than per-object values).
        and (stale_verdict.ok
             or all(f["witnesses"] for f in stale_verdict.failures))
    )

    # Promote a backup to primary via a scheduled ShardMap change; all
    # reads at the primaries, so opcheck and the DSG must agree on
    # strict serializability.
    promote_cfg = StressConfig(
        scheduler="locking", clients=4, txns_per_client=10, keys=8,
        ops_per_txn=2, seed=args.seed, network=net,
        cluster=ClusterConfig(
            shards=2, replicas=2,
            map_changes=(
                MapChange(kind="promote", after_commits=8, shard=0,
                          replica=1),
            ),
        ),
    )
    p1 = run_stress(promote_cfg)
    p2 = run_stress(promote_cfg)
    promote_verdict = p1.opcheck()
    promote_ok = (
        p1.history_text == p2.history_text
        and p1.journals == p2.journals
        and p1.cluster.shards[0].name == "shard0.r2"
        and promote_verdict.ok
        and p1.all_certified
    )

    lines = [
        "backup crash+catch-up  : "
        + ("replayed, 0 violations" if crash_ok else "FAILED"),
        "partitioned primary    : "
        + (
            f"{len(s1.session_violations)} stale witnesses, "
            + ("opcheck diverged (explained)" if not stale_verdict.ok
               else "opcheck agreed")
            if stale_ok else "FAILED"
        ),
        "promote via shard map  : "
        + ("opcheck+DSG agree" if promote_ok else "FAILED"),
    ]
    return crash_ok and stale_ok and promote_ok, lines


def _run_cluster_stress_cmd(args, out) -> int:
    """Seeded stress over a sharded cluster; ``--selftest`` runs the
    cross-shard fault matrix and the shards=1 equivalence check."""
    from .service import run_stress

    metrics, tracer = _observability_sinks(args)
    if args.selftest:
        return _cluster_selftest(args, metrics, tracer, out)
    try:
        result = run_stress(
            _stress_config(args, cluster=_cluster_config(args)),
            metrics=metrics,
            tracer=tracer,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary(), file=out)
    cluster = result.cluster
    coord = cluster.coordinator
    print(
        f"shards                 : {args.shards} "
        f"(map v{cluster.shard_map.version})",
        file=out,
    )
    print(
        "2pc decisions          : "
        f"commit={coord.decisions['commit']} "
        f"abort={coord.decisions['abort']} "
        f"retransmits={coord.retransmits}",
        file=out,
    )
    if args.replicas:
        counters = cluster.counters
        print(
            f"replication            : replicas={args.replicas}/shard "
            f"serves={counters['replica_serves']} "
            f"lagging={counters['replica_lagging']} "
            f"applied={counters['replica_applied']}",
            file=out,
        )
        print(
            "session violations     : "
            f"{len(result.session_violations)} witnessed",
            file=out,
        )
        verdict = result.opcheck()
        print(
            "opcheck                : "
            f"{'strict-serializable' if verdict.ok else 'DIVERGED'} "
            f"({verdict.states_explored} states)",
            file=out,
        )
        if not verdict.ok:
            print(verdict.explain(), file=out)
    if args.journal:
        print("\nclient journals:", file=out)
        print(result.journal_text(), file=out)
    if args.history:
        print("\nhistory:", file=out)
        print(result.history_text, file=out)
    _flush_observability(args, metrics, tracer, out)
    return 0 if result.all_certified else 1


def _capacity_slos(args) -> tuple:
    """The SLO tuple the ``--slo-*`` flags describe."""
    from .observability import SLO

    slos = []
    if args.slo_p99 is not None:
        slos.append(
            SLO(name="p99-commit", kind="latency", threshold=args.slo_p99,
                verb="txn", q=99.0)
        )
    if args.slo_certified is not None:
        slos.append(
            SLO(name="certified-fraction", kind="certified_fraction",
                threshold=args.slo_certified)
        )
    if args.slo_queue is not None:
        slos.append(
            SLO(name="queue-depth", kind="queue_depth",
                threshold=args.slo_queue)
        )
    return tuple(slos)


def _capacity_report(args, kwargs):
    """One sweep → (CapacityResult, RunReport with the capacity section)."""
    from .observability.traceview import build_run_report
    from .service import build_capacity_report, run_capacity

    sweep = run_capacity(**kwargs)
    knee = sweep.knee or sweep.rungs[-1]
    report = build_run_report(
        result=knee.stress,
        config=sweep.config,
        title=(
            f"capacity sweep scheduler={kwargs['scheduler']} "
            f"seed={kwargs['seed']}"
        ),
        capacity=build_capacity_report(sweep),
    )
    return sweep, report


def _run_capacity_cmd(args, out) -> int:
    """Offered-load capacity sweep; ``--selftest`` verifies the report is
    deterministic and well-formed on a small fixed ladder."""
    from .observability import SLO
    from .service import AdmissionConfig, NetworkConfig

    if args.selftest:
        kwargs = dict(
            rates=[0.03, 0.08, 0.16],
            horizon=500,
            seed=args.seed,
            scheduler=args.scheduler,
            clients=4,
            keys=6,
            ops_per_txn=2,
            admission=AdmissionConfig(max_active=3, retry_after=8),
            zipf_theta=0.9,
            slos=_capacity_slos(args)
            or (
                SLO(name="p99-commit", kind="latency", threshold=400,
                    verb="txn"),
            ),
            window=200,
            sample_every=50,
        )
        first_sweep, first = _capacity_report(args, kwargs)
        _second_sweep, second = _capacity_report(args, kwargs)
        text = first.to_markdown()
        reproducible = text == second.to_markdown()
        committed = sum(r.committed for r in first_sweep.rungs)
        shed = sum(r.shed for r in first_sweep.rungs)
        sections_ok = all(
            marker in text
            for marker in ("## Capacity", "### SLO verdicts",
                           "### Contention heatmap")
        )
        ok = reproducible and sections_ok and committed > 0 and shed > 0
        print(
            f"rungs                  : {len(first_sweep.rungs)}", file=out
        )
        print(f"committed (all rungs)  : {committed}", file=out)
        print(f"shed (all rungs)       : {shed}", file=out)
        knee = first_sweep.knee
        print(
            "saturation knee        : "
            + (f"rate={knee.rate:g}/tick" if knee is not None else "none"),
            file=out,
        )
        print(
            f"reproducible           : {'yes' if reproducible else 'NO'}",
            file=out,
        )
        print(f"selftest               : {'ok' if ok else 'FAILED'}", file=out)
        return 0 if ok else 1

    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print(f"error: bad --rates {args.rates!r}", file=sys.stderr)
        return 2
    if not rates:
        print("error: --rates named no offered loads", file=sys.stderr)
        return 2
    admission = None
    if args.max_active or args.certify_every > 1 or args.on_uncertified != "ignore":
        admission = AdmissionConfig(
            max_active=args.max_active,
            retry_after=args.retry_after,
            certify_every=args.certify_every,
            on_uncertified=args.on_uncertified,
        )
    kwargs = dict(
        rates=rates,
        horizon=args.horizon,
        seed=args.seed,
        scheduler=args.scheduler,
        level=args.level,
        clients=args.clients,
        keys=args.keys,
        ops_per_txn=args.ops,
        network=NetworkConfig(
            drop=args.drop,
            duplicate=args.duplicate,
            min_delay=args.min_delay,
            max_delay=args.max_delay,
        ),
        admission=admission,
        zipf_theta=args.zipf,
        slos=_capacity_slos(args),
        window=args.window,
        sample_every=args.sample_every,
        trace=args.heatmap,
    )
    try:
        sweep, report = _capacity_report(args, kwargs)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        report.to_json() if args.format == "json" else report.to_markdown(),
        file=out,
    )
    return 0 if sweep.all_slos_ok else 1


def _dossier_workload_config(args):
    """The seeded replicated-cluster workload the ``dossier`` and
    ``cluster-report`` commands run: stale-by-choice replica reads under
    faults, which reliably latches phenomena for the recorder."""
    from .service import ClusterConfig, NetworkConfig, StressConfig

    lo, _, hi = args.replication_lag.partition(":")
    return StressConfig(
        scheduler=args.scheduler,
        level=args.level,
        clients=args.clients,
        txns_per_client=args.txns,
        keys=args.keys,
        ops_per_txn=args.ops,
        seed=args.seed,
        network=NetworkConfig(
            drop=args.drop,
            duplicate=args.duplicate,
            min_delay=args.min_delay,
            max_delay=args.max_delay,
        ),
        cluster=ClusterConfig(
            shards=args.shards,
            replicas=args.replicas,
            replication_every=args.replication_every,
            replication_lag=(int(lo), int(hi or lo)),
            partition_primary_after_commits=(1, 5) if args.replicas else None,
            heal_after=60,
        ),
        read_preference=args.read_preference if args.replicas else "primary",
        read_only_fraction=args.read_only_fraction,
    )


def _run_dossier_workload(args):
    """One instrumented run of the dossier workload; returns the result
    (its ``flight`` holds the recorder)."""
    from .observability import FlightRecorder, MetricsRegistry, Tracer
    from .service import run_stress

    return run_stress(
        _dossier_workload_config(args),
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        flight=FlightRecorder(capacity=getattr(args, "capacity", 256)),
    )


def _dossier_witness_covered(dossier) -> bool:
    """Every witness transaction has spans in the dossier's trace slice."""
    seen = set()
    for record in dossier["trace_slice"]:
        attrs = record.get("attrs") or {}
        if attrs.get("tid") is not None:
            seen.add(attrs["tid"])
        seen.update(attrs.get("tids") or ())
    return set(dossier["witness_tids"]) <= seen


def _run_dossier_cmd(args, out) -> int:
    """Run the dossier workload and render what the recorder captured."""
    import json

    from .observability import dossier_json, render_dossier
    from .service import run_stress

    if args.selftest:
        first = _run_dossier_workload(args)
        if args.opcheck:
            first.flight.opcheck_dossier(first)
        second = _run_dossier_workload(args)
        if args.opcheck:
            second.flight.opcheck_dossier(second)
        bare = run_stress(_dossier_workload_config(args))
        a = [dossier_json(d) for d in first.dossiers()]
        b = [dossier_json(d) for d in second.dossiers()]
        reproducible = a == b
        covered = all(
            _dossier_witness_covered(d) for d in first.dossiers()
        )
        unobserved = (
            bare.history_text == first.history_text
            and bare.journals == first.journals
            and bare.certification == first.certification
        )
        captured = len(a) > 0
        ok = reproducible and covered and unobserved and captured
        print(f"dossiers captured      : {len(a)}", file=out)
        print(
            f"byte-identical reruns  : {'yes' if reproducible else 'NO'}",
            file=out,
        )
        print(
            f"witness spans covered  : {'yes' if covered else 'NO'}",
            file=out,
        )
        print(
            f"artifacts undisturbed  : {'yes' if unobserved else 'NO'}",
            file=out,
        )
        print(f"selftest               : {'ok' if ok else 'FAILED'}", file=out)
        return 0 if ok else 1

    result = _run_dossier_workload(args)
    if args.opcheck:
        result.flight.opcheck_dossier(result)
    dossiers = result.dossiers()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(dossiers, sort_keys=True, indent=2) + "\n"
            )
        print(
            f"wrote {len(dossiers)} dossier(s) to {args.out}", file=out
        )
    if args.format == "json":
        for dossier in dossiers:
            print(dossier_json(dossier), file=out)
    else:
        if not dossiers:
            print("no anomaly latched; no dossier captured.", file=out)
        for i, dossier in enumerate(dossiers):
            if i:
                print("", file=out)
            print(render_dossier(dossier), file=out)
    return 0 if dossiers else 1


def _run_cluster_report_cmd(args, out) -> int:
    """Run the dossier workload and emit the unified run report (Cluster
    section included); optionally export per-shard Perfetto tracks."""
    from .observability import build_run_report, write_chrome_trace

    result = _run_dossier_workload(args)
    report = build_run_report(result=result, title="cluster run")
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(report.to_markdown(), file=out)
    if args.chrome_out:
        data = write_chrome_trace(
            result.tracer.records, args.chrome_out, cluster_tracks=True
        )
        print(
            f"wrote {len(data['traceEvents'])} Chrome trace events "
            f"(per-shard tracks) to {args.chrome_out}",
            file=out,
        )
    return 0


def _run_report_cmd(args, out) -> int:
    """Unified run report: from a live stress run (``--stress``) or from a
    previously recorded trace/metrics pair (``--trace``/``--metrics-file``)."""
    import json

    from .observability import read_trace
    from .observability.traceview import build_run_report

    if args.trace and not args.stress:
        try:
            records = read_trace(args.trace)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        metrics = None
        if args.metrics_file:
            try:
                with open(args.metrics_file, encoding="utf-8") as handle:
                    metrics = json.load(handle)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        report = build_run_report(
            records, metrics=metrics, title=f"trace {args.trace}"
        )
    else:
        from .observability import MetricsRegistry, Tracer
        from .service import run_stress

        tracer = Tracer()
        registry = MetricsRegistry()
        try:
            result = run_stress(
                _stress_config(args), metrics=registry, tracer=tracer
            )
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            from .observability import JsonlSink

            with JsonlSink(args.trace) as sink:
                for record in tracer.records:
                    sink(record)
        report = build_run_report(
            result=result,
            title=f"stress scheduler={args.scheduler} seed={args.seed}",
        )
    print(
        report.to_json() if args.format == "json" else report.to_markdown(),
        file=out,
    )
    return 0


def _run_trace(args, history, out) -> int:
    """Replay a history through the online monitor and the batch checker
    under one tracer; write the JSONL trace to ``--out`` or stdout."""
    import json

    from .observability import JsonlSink, Tracer, watching_analysis

    tracer = Tracer()
    with tracer.span("trace.replay", events=len(history.events)):
        analysis = watching_analysis(
            tracer, version_order_hint=history.version_order
        )
        for event in history.events:
            analysis.add(event)
        analysis.finish()
    check(history, tracer=tracer)
    if args.out:
        with JsonlSink(args.out) as sink:
            for record in tracer.records:
                sink(record)
        phenomena = sorted(
            {e["attrs"]["phenomenon"] for e in tracer.events("phenomenon")}
        )
        summary = f"wrote {len(tracer.records)} records to {args.out}"
        if phenomena:
            summary += f" (phenomena: {', '.join(phenomena)})"
        print(summary, file=out)
    else:
        for record in tracer.records:
            print(json.dumps(record, sort_keys=True), file=out)
    return 0


def _run_stats(args, history, out) -> int:
    """Check a history with a registry attached and print the metrics."""
    import json

    from .observability import MetricsRegistry

    registry = MetricsRegistry()
    registry.gauge("history_events", "events in the checked history").set(
        len(history.events)
    )
    registry.gauge(
        "history_transactions", "transactions in the checked history"
    ).set(len(history.tids))
    check(history, extensions=args.extensions, metrics=registry)
    if args.format == "json":
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True), file=out)
    elif args.format == "prometheus":
        print(registry.render_prometheus(), file=out)
    else:
        print(registry.render_text(), file=out)
    return 0


def _run_check_many(args, out) -> int:
    """Parse every file, check the batch (parallel by default), and print
    one summary line per history."""
    from .checker import check_many

    histories = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            histories.append(parse_history(text, auto_complete=args.auto_complete))
        except (ReproError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    registry = None
    processes = args.processes
    if args.metrics:
        from .observability import MetricsRegistry

        registry = MetricsRegistry()
        processes = 1  # registries are in-process; see check_many docs
    reports = check_many(
        histories,
        processes=processes,
        chunksize=args.chunksize,
        extensions=args.extensions,
        metrics=registry,
    )
    width = max(len(path) for path in args.files)
    for path, report in zip(args.files, reports):
        level = report.strongest_level
        exhibited = [
            str(item.phenomenon) for item in report.phenomena() if item.present
        ]
        detail = f"  [{', '.join(exhibited)}]" if exhibited else ""
        print(
            f"{path:{width}}  {str(level) if level else 'none':>8}{detail}",
            file=out,
        )
    if registry is not None:
        print("\nmetrics:", file=out)
        print(registry.render_text(), file=out)
    return 0


def _run_corpus(out) -> int:
    """Check every documented verdict in the corpus; print the matrix."""
    from .core.canonical import ALL_CANONICAL
    from .workloads.anomalies import ALL_ANOMALIES

    corpus = ALL_CANONICAL + ALL_ANOMALIES
    columns = [
        IsolationLevel.PL_1,
        IsolationLevel.PL_2,
        IsolationLevel.PL_CS,
        IsolationLevel.PL_2PLUS,
        IsolationLevel.PL_2_99,
        IsolationLevel.PL_SI,
        IsolationLevel.PL_3,
    ]
    mismatches = 0
    checked = 0
    print(f"{'history':28}" + "".join(f"{str(c):>9}" for c in columns), file=out)
    for entry in corpus:
        report = check(entry.history, extensions=True)
        cells = []
        for level in columns:
            got = report.ok(level)
            expected = entry.provides.get(level)
            mark = "Y" if got else "-"
            if expected is not None:
                checked += 1
                if got != expected:
                    mismatches += 1
                    mark = "!"
            cells.append(f"{mark:>9}")
        print(f"{entry.name:28}" + "".join(cells), file=out)
    print(
        f"\n{checked} documented verdicts checked, {mismatches} mismatches",
        file=out,
    )
    return 0 if mismatches == 0 else 1
