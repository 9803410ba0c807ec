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
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import Optional, Sequence

from .baseline.preventative import PreventativeAnalysis, PreventativePhenomenon
from .checker import check
from .core.dsg import DSG
from .core.levels import IsolationLevel, classify
from .core.msg import mixing_correct
from .core.parser import parse_history
from .exceptions import ReproError

__all__ = ["main", "build_parser"]

#: Every flag that names a field of the run's ``StressConfig`` tree, declared
#: once: ``(group, flag, config field, type, default, help[, further argparse
#: keywords])``.  A command picks its groups with :func:`_add_run_args`;
#: :func:`_run_config` puts whatever the command declared back onto the tree.
_RUN_FLAGS = (
    ("engine", "--scheduler", "scheduler", None, "locking", None),
    ("engine", "--seed", "seed", int, 0, None),
    ("load", "--level", "level", None, None,
     "declared isolation level for every transaction (default: the "
     "scheduler's natural level)"),
    ("load", "--clients", "clients", int, 4, None),
    ("load", "--keys", "keys", int, 8, None),
    ("load", "--ops", "ops_per_txn", int, 2, "RMW pairs per txn"),
    ("closed", "--txns", "txns_per_client", int, 25,
     "committed txns per client"),
    ("network", "--drop", "network.drop", float, 0.05, None),
    ("network", "--duplicate", "network.duplicate", float, 0.05, None),
    ("network", "--min-delay", "network.min_delay", int, 1, None),
    ("network", "--max-delay", "network.max_delay", int, 4, None),
    ("crash", "--crash-after", "crash_after_commits", int, None,
     "crash the server after this many commits (then restart)"),
    ("crash", "--restart-delay", "restart_delay", int, 25, None),
    ("replicated", "--shards", "cluster.shards", int, 3,
     "shard servers in the cluster (default: %(default)s)"),
    ("replicated", "--replicas", "cluster.replicas", int, 0,
     "backup replicas per shard, fed from the primary's replication log "
     "with seeded lag (default: %(default)s)"),
    ("replicated", "--read-preference", "read_preference", None, "primary",
     "where replica-eligible reads route (default: %(default)s)",
     dict(choices=("primary", "replica", "nearest"))),
    ("replicated", "--read-only-fraction", "read_only_fraction", float, 0.0,
     "fraction of transactions that are read-only probes, the ones "
     "eligible for replica routing (default: %(default)s)"),
    ("replicated", "--replication-every", "cluster.replication_every", int, 4,
     "primary replication pump period in ticks (default: %(default)s)"),
    ("replicated", "--replication-lag", "cluster.replication_lag", None, "1:4",
     "seeded per-batch replication delay range (default: %(default)s)",
     dict(metavar="MIN:MAX")),
    ("faults", "--slots", "cluster.slots", int, 16,
     "hash slots in the shard map (default: %(default)s)"),
    ("faults", "--crash-shard", "cluster.crash_shard_after_prepares", None, None,
     "crash shard SHARD right after its N-th prepare (the "
     "between-prepare-and-commit WAL-recovery fault)",
     dict(metavar="SHARD:N")),
    ("faults", "--shard-restart-delay", "cluster.shard_restart_delay", int, 30,
     "ticks until a fault-schedule-crashed shard restarts"),
    ("faults", "--partition-coordinator",
     "cluster.partition_coordinator_after_prepares", int, None,
     "partition the coordinator from every shard once it has sent N "
     "prepares (mid-prepare), healing after --heal-after ticks",
     dict(metavar="N")),
    ("faults", "--heal-after", "cluster.heal_after", int, 40,
     "ticks until the coordinator partition heals"),
    ("faults", "--retry-every", "cluster.retry_every", int, 25,
     "coordinator retransmit period for unacked 2PC messages"),
    ("faults", "--session-guarantees", "session_guarantees", None, None,
     "comma-separated session guarantees for replica reads: "
     "ryw/read-your-writes, mr/monotonic-reads, causal, plus wait|redirect "
     "for the lag reaction; 'none' (the default) reads stale-by-choice and "
     "records violation witnesses instead",
     dict(metavar="SPEC")),
    ("admission", "--zipf", "hot_keys", float, None,
     "Zipf-skew the key picks with this theta (default: uniform)",
     dict(metavar="THETA")),
    ("admission", "--max-active", "admission.max_active", int, 0,
     "admission control: shed begins past this many active transactions "
     "(0 = no shedding)"),
    ("admission", "--retry-after", "admission.retry_after", int, 8, None),
    ("admission", "--certify-every", "admission.certify_every", int, 1,
     "batch commit certification in groups of this size"),
    ("admission", "--on-uncertified", "admission.on_uncertified", None,
     "ignore", "reaction to a failed live certification",
     dict(choices=("ignore", "downgrade", "repair"))),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_run_args(p: argparse.ArgumentParser, groups: str, **overrides) -> None:
    """Declare the :data:`_RUN_FLAGS` of ``groups`` on ``p``.  An override
    (keyed by dest) is the command's own ``default`` or ``(default, help)``:
    a command that restates a flag words its own help, or shows none."""
    for group, flag, _field, kind, default, text, *more in _RUN_FLAGS:
        if group not in groups.split():
            continue
        if _dest(flag) in overrides:
            own = overrides[_dest(flag)]
            default, text = own if isinstance(own, tuple) else (own, None)
        p.add_argument(
            flag, type=kind, default=default, help=text, **dict(*more)
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generalized isolation level checker (Adya/Liskov/O'Neil, ICDE 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=run)
        return p

    def add_auto_complete(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--auto-complete",
            action="store_true",
            help="append aborts for unfinished transactions (Section 4.2)",
        )

    def history_command(name: str, run, **kwargs) -> argparse.ArgumentParser:
        p = command(name, _on_history(run), **kwargs)
        p.add_argument(
            "history",
            nargs="?",
            help="history in the paper's notation (default: read stdin)",
        )
        p.add_argument("--file", "-f", help="read the history from a file")
        add_auto_complete(p)
        return p

    def add_extensions(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--extensions",
            action="store_true",
            help="also test PL-CS, PL-2+ and PL-SI",
        )

    p_check = history_command(
        "check", _run_check, help="full phenomenon/level analysis"
    )
    add_extensions(p_check)
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

    p_many = command(
        "check-many",
        _run_check_many,
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
    add_extensions(p_many)
    add_auto_complete(p_many)
    p_many.add_argument(
        "--metrics",
        action="store_true",
        help="also print collected metrics (forces the serial path)",
    )

    history_command(
        "classify", _run_classify, help="print the strongest ANSI level"
    )
    history_command("dsg", _run_dsg, help="print the DSG as GraphViz dot")
    history_command("phenomena", _run_phenomena, help="list exhibited phenomena")
    history_command(
        "mixing", _run_mixing, help="Definition 9 mixing-correctness"
    )
    history_command(
        "preventative",
        _run_preventative,
        help="Berenson et al. P0-P3 baseline verdicts",
    )
    history_command(
        "timeline",
        _run_timeline,
        help="render the history as a transaction/time grid",
    )

    p_repair = history_command(
        "repair",
        _run_repair,
        help="abort set needed to certify the history at a level",
    )
    p_repair.add_argument(
        "--level", default="PL-3", help="target level (default PL-3)"
    )

    p_trace = history_command(
        "trace",
        _run_trace,
        help="replay the history under a tracer and emit the JSONL trace",
    )
    p_trace.add_argument(
        "--out",
        "-o",
        help="write the JSONL trace to this file (default: stdout)",
    )

    p_stats = history_command(
        "stats",
        _run_stats,
        help="check the history and print the collected metrics",
    )
    p_stats.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="output format (default: text)",
    )
    add_extensions(p_stats)

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

    def add_artifact_args(p: argparse.ArgumentParser, which: str) -> None:
        p.add_argument(
            "--journal",
            action="store_true",
            help="also print the client-observed journals",
        )
        p.add_argument(
            "--history",
            action="store_true",
            help=f"also print the {which} history",
        )

    p_serve = command(
        "serve", _run_serve, help="in-process client/server service demo"
    )
    p_serve.add_argument(
        "--selftest",
        action="store_true",
        help="run a seeded fault+crash exchange and verify determinism "
        "and live certification",
    )
    _add_run_args(
        p_serve,
        "engine",
        scheduler=(
            "locking",
            "engine family (locking, optimistic, snapshot-isolation, "
            "mv-read-committed, mixed-optimistic, or an alias)",
        ),
        seed=(0, "fault seed"),
    )
    add_observability_args(p_serve)

    p_stress = command(
        "stress",
        _run_stress_cmd,
        help="seeded fault-injection stress run over the service",
    )
    _add_run_args(p_stress, "engine load closed network crash")
    add_artifact_args(p_stress, "resulting server-side")
    p_stress.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the run under cProfile: write pstats to FILE and "
        "print the top-20 functions by cumulative time",
    )
    add_observability_args(p_stress)

    p_cluster = command(
        "cluster-stress",
        _run_cluster_stress_cmd,
        help="seeded stress run over a sharded cluster with cross-shard "
        "2PC and global certification",
    )
    _add_run_args(
        p_cluster, "engine load closed network crash replicated faults"
    )
    add_artifact_args(p_cluster, "merged cross-shard")
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

    p_capacity = command(
        "capacity",
        _run_capacity_cmd,
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
    # ``ops`` restates the table's default: this command lists it bare.
    _add_run_args(
        p_capacity,
        "engine load network admission",
        clients=8, ops=2, drop=0.0, duplicate=0.0, max_delay=2,
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
        _add_run_args(
            p,
            "engine load closed network replicated",
            level=("PL-2", "declared isolation level (default: %(default)s)"),
            txns=10, keys=6, ops=4, seed=7, shards=2,
            replicas=(
                2,
                "backup replicas per shard (default: %(default)s); with "
                "--read-preference replica and no session guarantees the "
                "stale reads latch phenomena for the recorder to dossier",
            ),
            read_preference="replica", read_only_fraction=0.5,
            replication_every=12, replication_lag="4:10",
        )

    p_dossier = command(
        "dossier",
        _run_dossier_cmd,
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

    p_creport = command(
        "cluster-report",
        _run_cluster_report_cmd,
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

    command(
        "corpus",
        _run_corpus,
        help="self-test against the paper corpus; print the admission matrix",
    )

    p_report = command(
        "report",
        _run_report_cmd,
        help="paper reproduction report, or (--stress/--trace) a unified "
        "run report for one stress run",
    )
    p_report.add_argument(
        "--stress",
        action="store_true",
        help="run one seeded stress workload (options below) and emit its "
        "unified run report instead of the paper report",
    )
    _add_run_args(p_report, "engine load closed network crash")
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


class _BadInput(Exception):
    """The command line named something unusable: :func:`main` reports it
    as ``error: ...`` on stderr with exit status 2."""


@contextmanager
def _input_errors(*kinds):
    """Inside the block, exceptions of ``kinds`` are the user's input being
    wrong (unknown level or scheduler, out-of-range value, missing file)."""
    try:
        yield
    except kinds as exc:
        raise _BadInput(f"{exc}") from None


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out or sys.stdout)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _on_history(run):
    """The command ``run(args, history, out)`` over the history named by the
    positional argument, ``--file`` or stdin."""

    def command(args, out) -> int:
        with _input_errors(ReproError, OSError):
            if args.file:
                with open(args.file, encoding="utf-8") as handle:
                    text = handle.read()
            elif args.history is not None:
                text = args.history
            else:
                text = sys.stdin.read()
            history = parse_history(text, auto_complete=args.auto_complete)
        return run(args, history, out)

    return command


def _level(name: str) -> IsolationLevel:
    with _input_errors(KeyError):
        return IsolationLevel.from_string(name)


def _say(out, label: str, value) -> None:
    """One ``label : value`` line, aligned like ``StressResult.summary()``."""
    print(f"{label:23}: {value}", file=out)


def _print_metrics(registry, out) -> None:
    if registry is not None:
        print("\nmetrics:", file=out)
        print(registry.render_text(), file=out)


def _run_check(args, history, out) -> int:
    registry = None
    if args.metrics:
        from .observability import MetricsRegistry

        registry = MetricsRegistry()
    level = _level(args.level) if args.level else None
    with _profile(args.profile) as profiler:
        if level is not None:
            report = check(history, levels=(level,), metrics=registry)
        else:
            report = check(
                history, extensions=args.extensions, metrics=registry
            )
    if level is not None:
        print(report.verdicts[level].describe(), file=out)
    else:
        print(report.explain(), file=out)
    _print_metrics(registry, out)
    _dump_profile(profiler, args.profile, out)
    return 0 if level is None or report.verdicts[level].ok else 1


def _run_classify(args, history, out) -> int:
    level = classify(history)
    print(str(level) if level is not None else "none", file=out)
    return 0


def _run_dsg(args, history, out) -> int:
    print(DSG(history).to_dot(), file=out)
    return 0


def _run_phenomena(args, history, out) -> int:
    for item in check(history).phenomena():
        print(item.describe(), file=out)
    return 0


def _run_mixing(args, history, out) -> int:
    result = mixing_correct(history)
    print(result.describe(), file=out)
    return 0 if result.ok else 1


def _run_preventative(args, history, out) -> int:
    analysis = PreventativeAnalysis(history)
    for phenomenon in PreventativePhenomenon:
        print(analysis.report(phenomenon).describe(), file=out)
    return 0


def _run_timeline(args, history, out) -> int:
    from .core.timeline import timeline

    print(timeline(history), file=out)
    return 0


def _run_repair(args, history, out) -> int:
    from .analysis.repair import repair

    result = repair(history, _level(args.level))
    print(result.describe(), file=out)
    if not result.clean:
        print(f"repaired history: {result.history}", file=out)
    return 0


def _profile(path: Optional[str]):
    """Context manager: a running cProfile profiler when ``--profile FILE``
    was given, ``None`` otherwise."""
    if not path:
        return nullcontext()
    import cProfile

    return cProfile.Profile()


def _dump_profile(profiler, path: Optional[str], out) -> None:
    """Dump the stopped profiler's raw pstats to ``path`` and print the
    top-20 functions by cumulative time (loadable later with
    ``pstats.Stats``)."""
    if profiler is None:
        return
    import io
    import pstats

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


def _write_jsonl(tracer, path: str) -> None:
    from .observability import JsonlSink

    with JsonlSink(path) as sink:
        for record in tracer.records:
            sink(record)


def _flush_observability(args, metrics, tracer, out) -> None:
    """Write/print whatever the observability flags requested."""
    import json

    if tracer is not None and args.trace:
        _write_jsonl(tracer, args.trace)
        print(
            f"wrote {len(tracer.records)} trace records to {args.trace}",
            file=out,
        )
    if metrics is not None and args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics snapshot to {args.metrics_out}", file=out)
    if args.metrics:
        _print_metrics(metrics, out)


def _same_artifacts(a, b) -> bool:
    """Two runs left the same server history and the same client journals."""
    return a.history_text == b.history_text and a.journals == b.journals


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
        reproducible = _same_artifacts(first, second)
        ok = (
            reproducible
            and first.all_certified
            and first.crashes == 1
            and first.restarts == 1
            and first.committed == 30
        )
        print(first.summary(), file=out)
        _say(out, "reproducible", "yes" if reproducible else "NO")
        _say(out, "selftest", "ok" if ok else "FAILED")
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


def _int_pair(flag: str, shape: str, text: str, second: Optional[int] = None):
    """``"A:B"`` as ``(A, B)``; a bare ``"A"`` pairs with ``second``, or
    with itself."""
    first, _, rest = text.partition(":")
    try:
        return int(first), int(rest or second or first)
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}; expected {shape}") from None


def _run_config(args):
    """The :class:`StressConfig` the command line describes: every run flag
    the command declared lands on the field :data:`_RUN_FLAGS` names for
    it; a section none of whose flags were declared stays at its default."""
    from .service import (
        AdmissionConfig,
        ClusterConfig,
        NetworkConfig,
        SessionGuarantees,
        StressConfig,
    )
    from .workloads import ZipfianKeys

    given = vars(args)
    tree = {"network": {}, "cluster": {}, "admission": {}}
    for _group, flag, path, *_argparse in _RUN_FLAGS:
        if _dest(flag) in given:
            section, _, name = path.rpartition(".")
            (tree[section] if section else tree)[name] = given[_dest(flag)]
    network, cluster, admission = (
        tree.pop(section) for section in ("network", "cluster", "admission")
    )
    if cluster:
        crash = cluster.get("crash_shard_after_prepares")
        cluster["crash_shard_after_prepares"] = (
            _int_pair("--crash-shard", "SHARD or SHARD:N", crash, 1)
            if crash
            else None
        )
        cluster["replication_lag"] = _int_pair(
            "--replication-lag", "MIN:MAX", cluster["replication_lag"]
        )
    if tree.get("session_guarantees") is not None:
        tree["session_guarantees"] = SessionGuarantees.parse(
            tree["session_guarantees"]
        )
    if tree.get("hot_keys") is not None:
        tree["hot_keys"] = ZipfianKeys(tree["keys"], theta=tree["hot_keys"])
    # Admission control stays off until a flag other than the shed reply's
    # --retry-after asks for it.
    if admission and (
        admission["max_active"]
        or admission["certify_every"] > 1
        or admission["on_uncertified"] != "ignore"
    ):
        tree["admission"] = AdmissionConfig(**admission)
    return StressConfig(
        network=NetworkConfig(**network) if network else None,
        cluster=ClusterConfig(**cluster) if cluster else None,
        **tree,
    )


def _stress(args, config=_run_config, **sinks):
    """``run_stress`` over the command line's config; a flag the config
    tree, the engine factory or the cluster rejects is bad input."""
    from .service import run_stress

    with _input_errors(KeyError, ValueError):
        return run_stress(config(args), **sinks)


def _print_artifacts(args, result, out) -> None:
    """The ``--journal`` / ``--history`` dumps."""
    if args.journal:
        print("\nclient journals:", file=out)
        print(result.journal_text(), file=out)
    if args.history:
        print("\nhistory:", file=out)
        print(result.history_text, file=out)


def _print_2pc(coord, out) -> None:
    _say(
        out,
        "2pc decisions",
        f"commit={coord.decisions['commit']} "
        f"abort={coord.decisions['abort']} "
        f"retransmits={coord.retransmits}",
    )


def _run_stress_cmd(args, out) -> int:
    """Run one seeded stress workload and print the summary."""
    metrics, tracer = _observability_sinks(args)
    with _profile(args.profile) as profiler:
        result = _stress(args, metrics=metrics, tracer=tracer)
    print(result.summary(), file=out)
    _print_artifacts(args, result, out)
    _dump_profile(profiler, args.profile, out)
    _flush_observability(args, metrics, tracer, out)
    return 0 if result.all_certified else 1


def _cluster_selftest(args, metrics, tracer, out) -> int:
    """Fault-matrix + equivalence selftest for the sharded cluster: the
    faulty cross-shard run replays byte for byte, and a one-shard cluster
    is byte-identical to the plain single-server service."""
    from .service import ClusterConfig, NetworkConfig, StressConfig, run_stress

    net = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)
    faulty = StressConfig(
        scheduler="locking",
        clients=4,
        txns_per_client=8,
        keys=8,
        ops_per_txn=2,
        seed=args.seed,
        network=net,
        cluster=ClusterConfig(
            shards=3,
            crash_shard_after_prepares=(1, 1),
            partition_coordinator_after_prepares=6,
            heal_after=40,
        ),
    )
    first = run_stress(faulty, metrics=metrics, tracer=tracer)
    second = run_stress(faulty)
    reproducible = _same_artifacts(first, second)
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
        network=net,
    )
    solo = run_stress(single)
    one = run_stress(replace(single, cluster=ClusterConfig(shards=1)))
    equivalent = _same_artifacts(one, solo)

    replica_ok, replica_report = _replica_selftest(args)

    ok = (
        reproducible and matrix_ok and equivalent and first.all_certified
        and replica_ok
    )
    print(first.summary(), file=out)
    _print_2pc(coord, out)
    _say(out, "fault matrix", "exercised" if matrix_ok else "NOT HIT")
    _say(out, "reproducible", "yes" if reproducible else "NO")
    _say(
        out, "shards=1 == single", "byte-identical" if equivalent else "DIVERGED"
    )
    for label, value in replica_report.items():
        _say(out, label, value)
    _say(out, "selftest", "ok" if ok else "FAILED")
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
        _same_artifacts(c1, c2)
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
        _same_artifacts(p1, p2)
        and p1.cluster.shards[0].name == "shard0.r2"
        and promote_verdict.ok
        and p1.all_certified
    )

    report = {
        "backup crash+catch-up": (
            "replayed, 0 violations" if crash_ok else "FAILED"
        ),
        "partitioned primary": (
            f"{len(s1.session_violations)} stale witnesses, "
            + ("opcheck diverged (explained)" if not stale_verdict.ok
               else "opcheck agreed")
            if stale_ok else "FAILED"
        ),
        "promote via shard map": (
            "opcheck+DSG agree" if promote_ok else "FAILED"
        ),
    }
    return crash_ok and stale_ok and promote_ok, report


def _run_cluster_stress_cmd(args, out) -> int:
    """Seeded stress over a sharded cluster; ``--selftest`` runs the
    cross-shard fault matrix and the shards=1 equivalence check."""
    metrics, tracer = _observability_sinks(args)
    if args.selftest:
        return _cluster_selftest(args, metrics, tracer, out)
    result = _stress(args, metrics=metrics, tracer=tracer)
    print(result.summary(), file=out)
    cluster = result.cluster
    _say(out, "shards", f"{args.shards} (map v{cluster.shard_map.version})")
    _print_2pc(cluster.coordinator, out)
    if args.replicas:
        counters = cluster.counters
        _say(
            out,
            "replication",
            f"replicas={args.replicas}/shard "
            f"serves={counters['replica_serves']} "
            f"lagging={counters['replica_lagging']} "
            f"applied={counters['replica_applied']}",
        )
        _say(
            out, "session violations",
            f"{len(result.session_violations)} witnessed",
        )
        verdict = result.opcheck()
        _say(
            out,
            "opcheck",
            f"{'strict-serializable' if verdict.ok else 'DIVERGED'} "
            f"({verdict.states_explored} states)",
        )
        if not verdict.ok:
            print(verdict.explain(), file=out)
    _print_artifacts(args, result, out)
    _flush_observability(args, metrics, tracer, out)
    return 0 if result.all_certified else 1


def _capacity_slos(args) -> tuple:
    """The SLO tuple the ``--slo-*`` flags describe."""
    from .observability import SLO

    described = (
        ("p99-commit", "latency", args.slo_p99, dict(verb="txn", q=99.0)),
        ("certified-fraction", "certified_fraction", args.slo_certified, {}),
        ("queue-depth", "queue_depth", args.slo_queue, {}),
    )
    return tuple(
        SLO(name=name, kind=kind, threshold=threshold, **more)
        for name, kind, threshold, more in described
        if threshold is not None
    )


def _print_report(args, report, out) -> None:
    print(
        report.to_json() if args.format == "json" else report.to_markdown(),
        file=out,
    )


def _capacity_report(template, **sweep_args):
    """One sweep → (CapacityResult, RunReport with the capacity section)."""
    from .observability.traceview import build_run_report
    from .service import build_capacity_report, run_capacity

    sweep = run_capacity(template, **sweep_args)
    knee = sweep.knee or sweep.rungs[-1]
    report = build_run_report(
        result=knee.stress,
        config=sweep.config,
        title=(
            f"capacity sweep scheduler={template.scheduler} "
            f"seed={sweep.seed}"
        ),
        capacity=build_capacity_report(sweep),
    )
    return sweep, report


def _run_capacity_cmd(args, out) -> int:
    """Offered-load capacity sweep; ``--selftest`` verifies the report is
    deterministic and well-formed on a small fixed ladder."""
    if args.selftest:
        from .observability import SLO
        from .service import AdmissionConfig, StressConfig
        from .workloads import ZipfianKeys

        template = StressConfig(
            scheduler=args.scheduler,
            clients=4,
            keys=6,
            ops_per_txn=2,
            admission=AdmissionConfig(max_active=3, retry_after=8),
            hot_keys=ZipfianKeys(6, theta=0.9),
        )
        sweep_args = dict(
            rates=[0.03, 0.08, 0.16],
            horizon=500,
            seed=args.seed,
            slos=_capacity_slos(args)
            or (
                SLO(name="p99-commit", kind="latency", threshold=400,
                    verb="txn"),
            ),
            window=200,
            sample_every=50,
        )
        first_sweep, first = _capacity_report(template, **sweep_args)
        _second_sweep, second = _capacity_report(template, **sweep_args)
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
        _say(out, "rungs", len(first_sweep.rungs))
        _say(out, "committed (all rungs)", committed)
        _say(out, "shed (all rungs)", shed)
        knee = first_sweep.knee
        _say(
            out, "saturation knee",
            f"rate={knee.rate:g}/tick" if knee is not None else "none",
        )
        _say(out, "reproducible", "yes" if reproducible else "NO")
        _say(out, "selftest", "ok" if ok else "FAILED")
        return 0 if ok else 1

    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        raise _BadInput(f"bad --rates {args.rates!r}") from None
    if not rates:
        raise _BadInput("--rates named no offered loads")
    with _input_errors(KeyError, ValueError):
        sweep, report = _capacity_report(
            _run_config(args),
            rates=rates,
            horizon=args.horizon,
            seed=args.seed,
            slos=_capacity_slos(args),
            window=args.window,
            sample_every=args.sample_every,
            trace=args.heatmap,
        )
    _print_report(args, report, out)
    return 0 if sweep.all_slos_ok else 1


def _dossier_workload_config(args):
    """The seeded replicated-cluster workload the ``dossier`` and
    ``cluster-report`` commands run: stale-by-choice replica reads behind
    a partitioned primary, which reliably latches phenomena for the
    recorder."""
    cfg = _run_config(args)
    return replace(
        cfg,
        cluster=replace(
            cfg.cluster,
            partition_primary_after_commits=(1, 5) if args.replicas else None,
            heal_after=60,
        ),
        read_preference=cfg.read_preference if args.replicas else "primary",
    )


def _run_dossier_workload(args):
    """One instrumented run of the dossier workload (followed by the
    operation-interval checker under ``--opcheck``); returns the result
    (its ``flight`` holds the recorder)."""
    from .observability import FlightRecorder, MetricsRegistry, Tracer

    result = _stress(
        args,
        _dossier_workload_config,
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        flight=FlightRecorder(capacity=getattr(args, "capacity", 256)),
    )
    if getattr(args, "opcheck", False):
        result.flight.opcheck_dossier(result)
    return result


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

    if args.selftest:
        first = _run_dossier_workload(args)
        second = _run_dossier_workload(args)
        bare = _stress(args, _dossier_workload_config)
        a = [dossier_json(d) for d in first.dossiers()]
        b = [dossier_json(d) for d in second.dossiers()]
        reproducible = a == b
        covered = all(
            _dossier_witness_covered(d) for d in first.dossiers()
        )
        unobserved = (
            _same_artifacts(bare, first)
            and bare.certification == first.certification
        )
        captured = len(a) > 0
        ok = reproducible and covered and unobserved and captured
        _say(out, "dossiers captured", len(a))
        _say(out, "byte-identical reruns", "yes" if reproducible else "NO")
        _say(out, "witness spans covered", "yes" if covered else "NO")
        _say(out, "artifacts undisturbed", "yes" if unobserved else "NO")
        _say(out, "selftest", "ok" if ok else "FAILED")
        return 0 if ok else 1

    dossiers = _run_dossier_workload(args).dossiers()
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
    _print_report(
        args, build_run_report(result=result, title="cluster run"), out
    )
    if args.chrome_out:
        data = write_chrome_trace(result.tracer.records, args.chrome_out)
        print(
            f"wrote {len(data['traceEvents'])} Chrome trace events "
            f"(per-shard tracks) to {args.chrome_out}",
            file=out,
        )
    return 0


def _run_report_cmd(args, out) -> int:
    """The paper reproduction report, or a unified run report: from a live
    stress run (``--stress``) or from a previously recorded trace/metrics
    pair (``--trace``/``--metrics-file``)."""
    import json

    from .observability import build_run_report

    if not (args.stress or args.trace):
        from .analysis.report_gen import generate_report

        text, all_ok = generate_report()
        print(text, file=out)
        return 0 if all_ok else 1
    if not args.stress:
        from .observability import read_trace

        metrics = None
        with _input_errors(OSError, ValueError):
            records = read_trace(args.trace)
            if args.metrics_file:
                with open(args.metrics_file, encoding="utf-8") as handle:
                    metrics = json.load(handle)
        report = build_run_report(
            records, metrics=metrics, title=f"trace {args.trace}"
        )
    else:
        from .observability import MetricsRegistry, Tracer

        tracer = Tracer()
        result = _stress(args, metrics=MetricsRegistry(), tracer=tracer)
        if args.trace:
            _write_jsonl(tracer, args.trace)
        report = build_run_report(
            result=result,
            title=f"stress scheduler={args.scheduler} seed={args.seed}",
        )
    _print_report(args, report, out)
    return 0


def _run_trace(args, history, out) -> int:
    """Replay a history through the online monitor and the batch checker
    under one tracer; write the JSONL trace to ``--out`` or stdout."""
    import json

    from .observability import Tracer, watching_analysis

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
        _write_jsonl(tracer, args.out)
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
            raise _BadInput(f"{path}: {exc}") from None
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
    _print_metrics(registry, out)
    return 0


def _run_corpus(args, out) -> int:
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
