"""Seeded fault-injection stress runs over the client/server stack.

:func:`run_stress` wires the whole tower together — simulated network,
server over a :class:`~repro.engine.factory.SchedulerConfig`-built engine,
N clients running transaction scripts — interleaves client progress under a
seeded driver RNG (split-phase calls, so many transactions are genuinely in
flight at once), optionally crashes and restarts the server mid-run, and
certifies every commit live against its declared isolation level with the
online :class:`~repro.core.incremental.IncrementalAnalysis` attached to the
server's recorder.

The returned :class:`StressResult` carries the three artifacts the paper's
client-centric thesis needs end to end:

* the **server-side history** (Adya notation text — byte-for-byte equal
  across runs with equal seeds and configs);
* the **client-observed journals** (what each client saw through the
  faults, attempt counts included — also byte-for-byte reproducible);
* the **certification map**: per committed transaction, its declared level
  and the live verdict that no proscribed phenomenon appeared.  Network
  faults may abort, delay and duplicate, but they must never make a
  committed transaction violate its declared level.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.opcheck import Op, check_operations
from ..core.incremental import IncrementalAnalysis
from ..core.levels import IsolationLevel
from ..observability.provenance import watching_analysis
from ..observability.traceview import percentile, stats_row
from ..workloads.arrivals import ZipfianKeys
from .client import Client
from .cluster import Cluster
from .config import NetworkConfig, RetryPolicy, SchedulerConfig, StressConfig
from .errors import RequestTimeout, ServiceAborted, ServiceUnavailable
from .network import SimulatedNetwork
from .server import Server

__all__ = ["StressResult", "run_stress"]


@dataclass
class StressResult:
    """Everything observable about one stress run."""

    #: The server-side history in the paper's notation (lossless, the
    #: byte-for-byte reproducibility artifact).
    history_text: str
    #: Per-client journals: the client-observed histories.
    journals: Dict[str, Tuple[str, ...]]
    #: Per committed tid: (declared level, live certification verdict).
    certification: Dict[int, Tuple[Optional[IsolationLevel], bool]]
    committed: int
    client_aborts: int
    network_counters: Dict[str, int]
    server_counters: Dict[str, int]
    client_stats: Dict[str, int]
    crashes: int
    restarts: int
    deadlock_victims: int
    ticks: int
    #: The online monitor (finished) and the materialised history.
    monitor: IncrementalAnalysis = field(repr=False, default=None)
    history: Any = field(repr=False, default=None)
    metrics: Any = field(repr=False, default=None)
    #: The tracer (when one was attached): ``result.tracer.records`` feeds
    #: :mod:`repro.observability.traceview` and :func:`build_run_report`.
    tracer: Any = field(repr=False, default=None)
    #: Plain-dict summary of the run's configuration (fault schedule,
    #: retry policy, workload shape) — reproduced in run reports.
    config: Any = field(repr=False, default=None)
    #: Client-observed whole-transaction commit latencies in ticks, in
    #: completion order (deterministic per seed).
    commit_latencies: Tuple[int, ...] = ()
    #: Transactions the workload *offered*: scheduled arrivals in open-loop
    #: mode, ``clients * txns_per_client`` in closed-loop mode.
    offered: int = 0
    #: The :class:`~repro.observability.windows.WindowedTelemetry` fed
    #: during the run (when one was attached) — purely observational.
    windows: Any = field(repr=False, default=None)
    #: The :class:`~repro.service.cluster.Cluster` the run drove (cluster
    #: mode only; ``None`` for single-server runs).
    cluster: Any = field(repr=False, default=None)
    #: Client-observed operation intervals (one :class:`~repro.analysis.
    #: opcheck.Op` per transaction that committed or whose commit outcome
    #: stayed unknown) — the :meth:`opcheck` input.
    ops: Tuple[Op, ...] = ()
    #: Witnessed session-guarantee violations across all clients
    #: (stale-by-choice replica reads; empty when guarantees are enforced).
    session_violations: Tuple[Dict[str, Any], ...] = ()
    #: The :class:`~repro.observability.flight.FlightRecorder` attached to
    #: the run (``None`` unless ``run_stress(..., flight=...)``).
    flight: Any = field(repr=False, default=None)

    @property
    def all_certified(self) -> bool:
        return all(ok for _lvl, ok in self.certification.values())

    def dossiers(self):
        """Anomaly dossiers the flight recorder captured during the run
        (empty when no recorder was attached or nothing latched)."""
        return self.flight.dossiers() if self.flight is not None else []

    def opcheck(self, **kwargs):
        """Run the operation-interval checker over the run's client-observed
        transactions; see :func:`repro.analysis.opcheck.check_operations`."""
        keys = (self.config or {}).get("keys", 0)
        kwargs.setdefault("initial", {f"k{i}": 0 for i in range(keys)})
        return check_operations(self.ops, **kwargs)

    def latency_percentile(self, q: float) -> Optional[int]:
        """Nearest-rank percentile of the commit latencies (None if no
        transaction committed)."""
        if not self.commit_latencies:
            return None
        return percentile(self.commit_latencies, q)

    def strongest_level(self):
        return self.monitor.strongest_level()

    def journal_text(self) -> str:
        """All journals, deterministically concatenated."""
        return "\n".join(
            line
            for name in sorted(self.journals)
            for line in self.journals[name]
        )

    def outcome(self) -> List[Tuple[str, Any]]:
        """The run's outcome as ordered ``(label, value)`` rows — the lines
        of :meth:`summary` and the "Outcome" table of a
        :class:`~repro.observability.traceview.RunReport`."""
        net = self.network_counters
        failed = [t for t, (_l, ok) in self.certification.items() if not ok]
        return [
            ("committed transactions", self.committed),
            ("client-visible aborts", self.client_aborts),
            ("logical ticks", self.ticks),
            (
                "messages sent/dropped/duplicated",
                f"{net['sent']}/{net['dropped']}/{net['duplicated']}",
            ),
            ("server crashes/restarts", f"{self.crashes}/{self.restarts}"),
            ("deadlock victims", self.deadlock_victims),
            ("busy replies", self.server_counters["busy"]),
            ("dedup cache hits", self.server_counters["dedup_hits"]),
            (
                "client retries/timeouts",
                f"{self.client_stats['retries']}/{self.client_stats['timeouts']}",
            ),
            ("strongest level (live)", str(self.strongest_level() or "none")),
            (
                "certification",
                "FAILED for tids " + ", ".join(str(t) for t in failed)
                if failed
                else f"all {len(self.certification)} commits certified",
            ),
        ]

    def summary(self) -> str:
        """:meth:`outcome` as aligned ``label : value`` lines, with the
        certified/aborted/shed tally and the commit-latency percentiles
        ahead of the two verdict rows."""
        rows = self.outcome()
        shed = self.server_counters.get("shed", 0)
        certified = sum(1 for _l, ok in self.certification.values() if ok)
        rows.insert(
            -2, ("certified/aborted/shed", f"{certified}/{self.client_aborts}/{shed}")
        )
        if self.commit_latencies:
            row = stats_row(self.commit_latencies, 50, 95, 99)
            latency = f"{row['p50']}/{row['p95']}/{row['p99']} ticks"
            rows.insert(-2, ("commit latency p50/p95/p99", latency))
        # Labels wider than the column keep one space before the colon.
        return "\n".join(
            f"{label:<23}: {value}" if len(label) <= 23 else f"{label} : {value}"
            for label, value in rows
        )


class _ScriptRun:
    """One client's transaction script, driven as a coroutine."""

    def __init__(self, index: int, client: Client, gen) -> None:
        #: Position in the driver's client order (poll and choice order).
        self.index = index
        self.client = client
        self.gen = gen
        self.pending = None
        self.done = False
        #: Waiting on an unsettled ``pending`` (neither ready nor done).
        self.blocked = False

    def resume(self) -> None:
        try:
            self.pending = next(self.gen)
        except StopIteration:
            self.pending = None
            self.done = True

    @property
    def ready(self) -> bool:
        return not self.done and (self.pending is None or self.pending.settled)


class _TickWait:
    """A pending-shaped wait for a future tick: the driver's poll/next_wake
    protocol, with no message in flight.  Open-loop scripts yield one of
    these to sleep until their next scheduled arrival."""

    __slots__ = ("net", "deadline")

    #: With ``deadline``, the fields the driver's wake scan reads: no mail
    #: and no backoff.
    inbox = ()
    resume_at = None

    def __init__(self, net: SimulatedNetwork, tick: int) -> None:
        self.net = net
        #: The arrival tick.
        self.deadline = tick

    @property
    def settled(self) -> bool:
        return self.net.now >= self.deadline

    def poll(self) -> bool:
        return self.settled

    def due(self, now: int) -> bool:
        return now >= self.deadline

    @property
    def next_wake(self) -> Optional[int]:
        return None if self.settled else self.deadline


def _stuck_report(runs: List[_ScriptRun], servers) -> str:
    """Who waits for whom in a run that made no progress: each unfinished
    script's pending operation and next wake-up, each server's parked
    sessions with the transactions they wait on (a park nobody woke shows
    as a session parked behind a transaction no script is running)."""
    lines = []
    for run in runs:
        if run.done:
            continue
        pending = run.pending
        if isinstance(pending, _TickWait):
            what = f"sleeping until its arrival at tick {pending.deadline}"
        elif pending is None or pending.settled:
            what = "ready to run"
        else:
            what = (
                f"{pending.kind} rid={pending.rid} at {pending.dest} "
                f"(attempt {pending.attempts}), next wake {pending.next_wake}"
            )
        lines.append(f"  {run.client.name}: {what}")
    for srv in servers:
        parked = ", ".join(
            f"{session} behind {holders}"
            for session, holders in srv.parked().items()
        )
        lines.append(f"  {srv.name}: parked {parked or 'nothing'}")
    return "\n".join(lines)


def _fields(obj: Any, *names: str) -> Dict[str, Any]:
    """The named attributes of a config, as the run summary lists them."""
    return {name: getattr(obj, name) for name in names}


def _op(client: Client, windows, kind: str, **fields: Any):
    """One timed logical operation: ``co_call`` plus a per-verb latency
    observation into the windowed telemetry (success path only — failed
    operations surface as aborts, counted separately)."""
    t0 = client.network.now
    reply = yield from client.co_call(kind, **fields)
    now = client.network.now
    windows.observe_latency(kind, now - t0, now)
    return reply


def _draw_txn(
    rng: random.Random,
    *,
    keys: int,
    ops: int,
    hot: Optional[ZipfianKeys] = None,
    read_only_fraction: float = 0.0,
) -> Tuple[List[int], bool]:
    """A script's next transaction, drawn from its own RNG stream: whether
    it is read-only (``read_only_fraction`` of them are plain-read-only
    probes, the replica-servable share of the mix; the draw is skipped
    entirely at 0.0, keeping the RNG stream byte-identical to
    pre-replication runs), then its key set (uniform without a hot-key
    sampler, Zipf-skewed with one)."""
    read_only = bool(read_only_fraction) and rng.random() < read_only_fraction
    n = min(ops, keys)
    if hot is not None:
        return hot.sample_distinct(rng, n), read_only
    return rng.sample(range(keys), n), read_only


def _run_one_txn(
    client: Client,
    objs: List[int],
    *,
    level: Optional[str],
    counters: Dict[str, int],
    windows,
    latencies: List[int],
    read_only: bool = False,
    ops_out: Optional[List[Op]] = None,
):
    """One transaction over ``objs`` — read-modify-write by default, plain
    reads with ``read_only`` (the replica-servable mix) — returning True on
    commit, False on abort/timeout (the caller decides whether to retry).

    With ``ops_out`` set, the transaction is also recorded as a
    client-observed operation interval (:class:`~repro.analysis.opcheck.
    Op`): committed transactions with their response tick, commit-timeout
    transactions as unknown-outcome ops, definite aborts not at all.
    """
    net_now = client.network.now
    reads: List[Tuple[str, Any]] = []
    writes: List[Tuple[str, Any]] = []
    tid: Optional[int] = None
    committing = False
    # Untimed runs call ``co_call`` straight, without ``_op``'s frame.
    call = client.co_call if windows is None else partial(_op, client, windows)
    try:
        yield from call("begin", level=level)
        tid = client.tid
        for obj in objs:
            key = f"k{obj}"
            if read_only:
                reply = yield from call("read", obj=key)
                reads.append((key, reply.get("value") or 0))
            else:
                reply = yield from call("read", obj=key, for_update=True)
                value = reply.get("value") or 0
                reads.append((key, value))
                yield from call("write", obj=key, value=value + 1)
                writes.append((key, value + 1))
        committing = True
        reply = yield from call("commit")
    except ServiceAborted:
        counters["aborts"] += 1
        if windows is not None:
            windows.observe_abort(client.network.now)
        return False
    except (RequestTimeout, ServiceUnavailable):
        # Outcome unknown (crashed server, a lock wait past every liveness
        # deadline, or a shed begin the policy gave up on): walk away; the
        # transaction is dead or will be undone at recovery, and the
        # session's next begin discards it.
        counters["aborts"] += 1
        client.tid = None
        if ops_out is not None and committing and writes:
            # The commit decision itself is in doubt: the op may or may not
            # have taken effect — exactly what an unknown-outcome Op models.
            ops_out.append(Op(
                len(ops_out), client.name, tid, net_now, None,
                tuple(reads), tuple(writes),
            ))
        if windows is not None:
            windows.observe_abort(client.network.now)
        return False
    latency = client.network.now - net_now
    latencies.append(latency)
    if ops_out is not None:
        ops_out.append(Op(
            len(ops_out), client.name, tid, net_now, client.network.now,
            tuple(reads), tuple(writes),
        ))
    if windows is not None:
        now = client.network.now
        windows.observe_latency("txn", latency, now)
        windows.observe_commit(reply.get("certified"), now)
    return True


def _transfer_script(client: Client, rng: random.Random, *, txns: int, mix, **txn):
    """The closed-loop stress mix: read-modify-write over a small hot key
    space (``for_update`` reads, so locking engines do not drown in upgrade
    deadlocks), with client-side restart on aborts — a miniature of a real
    service's request handler.  ``mix`` is :func:`_draw_txn`'s keywords,
    ``txn`` :func:`_run_one_txn`'s."""
    committed = 0
    while committed < txns:
        objs, read_only = _draw_txn(rng, **mix)
        if (yield from _run_one_txn(client, objs, read_only=read_only, **txn)):
            committed += 1


def _open_loop_script(
    client: Client,
    rng: random.Random,
    *,
    schedule: List[int],
    state: Dict[str, int],
    mix,
    **txn,
):
    """The open-loop worker: claim the next arrival off the shared
    schedule, sleep until its tick (or start immediately if it is already
    overdue — that backlog *is* the queue), serve it once, move on.  An
    aborted/abandoned arrival is **not** retried: offered load is the
    schedule's business, not the server's — which is exactly why queues
    can grow and the saturation knee becomes visible."""
    net = client.network
    while True:
        idx = state["next"]
        if idx >= len(schedule):
            return
        state["next"] = idx + 1
        tick = schedule[idx]
        if net.now < tick:
            yield _TickWait(net, tick)
        objs, read_only = _draw_txn(rng, **mix)
        yield from _run_one_txn(client, objs, read_only=read_only, **txn)


def run_stress(
    config: Optional[StressConfig] = None,
    *,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
    flight: Optional[object] = None,
) -> StressResult:
    """Run one seeded stress workload; see the module docstring.

    The run's shape is a :class:`~repro.service.config.StressConfig`
    (``run_stress(StressConfig(clients=8, seed=3))``); ``metrics``,
    ``tracer`` and ``flight`` stay separate because they are live
    observability objects, not config values.

    Determinism contract: equal configs (including all seeds) produce a
    byte-for-byte identical :attr:`StressResult.history_text` and journals.
    Attaching ``windows`` (a :class:`~repro.observability.windows.
    WindowedTelemetry`) is purely observational: it changes no byte of any
    artifact.

    With ``arrivals`` set the run is **open-loop**: transactions arrive on
    the process's seeded schedule over ``[0, horizon)`` ticks regardless of
    completions (``txns_per_client`` is ignored; the ``clients`` scripts
    act as a worker pool claiming arrivals).  An arrival whose turn comes
    late starts immediately — the backlog is the queue the windowed
    telemetry gauges.  Closed-loop runs (the default) retry aborted
    transactions until each client commits its quota; open-loop runs serve
    each arrival exactly once.

    With ``cluster`` set (a :class:`~repro.service.config.ClusterConfig`)
    the same workload runs against a sharded :class:`~repro.service.
    cluster.Cluster` instead of one server: clients route against the
    shard map, cross-shard transactions commit through 2PC, certification
    is global, and the cluster's own fault schedule (shard crashes,
    coordinator partitions, shard-map changes) runs alongside the
    workload.  A ``shards=1`` cluster produces byte-identical histories,
    journals and certification to the plain single-server run.

    Either way the driver sees one service surface: ``client()`` for its
    sessions, ``schedule_crash()`` for ``crash_after_commits``, ``tick()``
    and ``next_wake`` for the fault schedule, ``settle()`` at the end
    (:class:`~repro.service.server.Server` and :class:`~repro.service.
    cluster.Cluster` both have all five).

    The driver is tick-synchronized and event-driven: whenever every script
    is blocked, the network's whole due message batch is delivered in one
    :meth:`~repro.service.network.SimulatedNetwork.drain_due` sweep before
    any client gets to run again; after the sweep (or an idle clock jump)
    only the pendings with mail or a due deadline/backoff are polled, in
    client order, and the fault schedule is consulted once per clock change
    (see ``docs/performance.md``, "Service delivery").
    """
    cfg = config or StressConfig()
    seed = cfg.seed
    windows = cfg.windows
    config = (
        cfg.scheduler
        if isinstance(cfg.scheduler, SchedulerConfig)
        else SchedulerConfig(scheduler=cfg.scheduler, seed=seed)
    )
    if cfg.level is not None and config.level is None:
        config = replace(
            config,
            level=(
                IsolationLevel.from_string(cfg.level)
                if isinstance(cfg.level, str)
                else cfg.level
            ),
        )
    network = cfg.network or NetworkConfig()
    netcfg = network.with_seed(network.seed or seed * 7919 + 1)
    policy = cfg.retry or RetryPolicy()
    net = SimulatedNetwork(netcfg, metrics=metrics, tracer=tracer)
    if tracer is not None:
        # The determinism contract extends to traces: re-clock the tracer
        # onto the network's logical tick counter so identical seeds yield
        # byte-identical span timestamps.
        tracer.use_clock(lambda: float(net.now))
    if flight is not None:
        if tracer is None:
            raise ValueError(
                "run_stress(flight=...) requires tracer=: the flight "
                "recorder rings buffer the tracer's records"
            )
        flight.attach(tracer)
    monitor = (
        watching_analysis(
            tracer,
            order_mode="commit",
            on_phenomenon=(
                flight.on_phenomenon if flight is not None else None
            ),
        )
        if tracer is not None
        else IncrementalAnalysis(order_mode="commit")
    )
    # ``server`` is the service under load, one Server or a Cluster: both
    # offer the driver client()/schedule_crash()/tick()/next_wake/settle()
    # and the same counters.  ``cluster`` names it again only where a
    # cluster has more to show (flight lanes, 2PC gauges, the summary).
    parts = dict(
        initial={f"k{i}": 0 for i in range(cfg.keys)},
        monitor=monitor,
        metrics=metrics,
        tracer=tracer,
        admission=cfg.admission,
    )
    cluster: Optional[Cluster] = None
    if cfg.cluster is not None:
        server = cluster = Cluster(net, config, config=cfg.cluster, **parts)
    else:
        server = Server(net, config, **parts)
    if cfg.crash_after_commits is not None:
        server.schedule_crash(cfg.crash_after_commits, cfg.restart_delay)
    if flight is not None:
        flight.bind(
            network=net,
            cluster=cluster,
            server=server if cluster is None else None,
            windows=windows,
            seed=seed,
        )
    declared = config.declared_level
    level_name = str(declared) if declared is not None else None
    config_summary = {
        "scheduler": config.scheduler,
        "level": level_name,
        **_fields(cfg, "clients", "txns_per_client", "keys", "ops_per_txn", "seed"),
        "network": _fields(
            netcfg, "seed", "drop", "duplicate", "min_delay", "max_delay"
        ),
        "retry": _fields(policy, "timeout", "max_attempts", "backoff"),
        **_fields(cfg, "crash_after_commits", "restart_delay"),
    }
    if cluster is not None:
        shape = cfg.cluster
        config_summary["cluster"] = {
            **_fields(shape, "shards", "slots"),
            "map_changes": len(shape.map_changes),
            **_fields(
                shape,
                "retry_every",
                "crash_shard_after_prepares",
                "partition_coordinator_after_prepares",
            ),
        }
        if shape.replicas:
            config_summary["cluster"].update(
                _fields(shape, "replicas", "replication_every"),
                replication_lag=list(shape.replication_lag),
            )
            config_summary["read_preference"] = cfg.read_preference
            config_summary["session_guarantees"] = (
                _fields(
                    cfg.session_guarantees,
                    "read_your_writes", "monotonic_reads", "causal", "on_lag",
                )
                if cfg.session_guarantees is not None
                else None
            )
            config_summary["read_only_fraction"] = cfg.read_only_fraction
    arrivals = cfg.arrivals
    schedule: List[int] = []
    if arrivals is not None:
        schedule = arrivals.schedule(horizon=cfg.horizon, seed=seed * 8191 + 3)
        config_summary["arrivals"] = {
            "kind": type(arrivals).__name__,
            "mean_rate": round(arrivals.mean_rate(cfg.horizon), 6),
            "horizon": cfg.horizon,
            "offered": len(schedule),
        }
    if cfg.hot_keys is not None:
        config_summary["hot_keys"] = _fields(cfg.hot_keys, "keys", "theta")
    if cfg.admission is not None:
        config_summary["admission"] = _fields(
            cfg.admission,
            "max_active", "retry_after", "shed_probability",
            "on_uncertified", "certify_every",
        )
    run_span = None
    if tracer is not None:
        # Stacked root: parentless events anywhere below (server crashes,
        # net partitions, phenomenon provenance) nest under the run.
        run_span = tracer.span("stress.run", **config_summary)
    driver_rng = random.Random(seed)
    counters = {"aborts": 0}
    latencies: List[int] = []
    ops_log: List[Op] = []
    arrival_state = {"next": 0}
    script_args = dict(
        mix=dict(
            keys=cfg.keys,
            ops=cfg.ops_per_txn,
            hot=cfg.hot_keys,
            read_only_fraction=cfg.read_only_fraction,
        ),
        level=level_name,
        counters=counters,
        windows=windows,
        latencies=latencies,
        ops_out=ops_log,
    )
    runs: List[_ScriptRun] = []
    for i in range(cfg.clients):
        client = server.client(
            f"c{i}", policy=policy,
            read_preference=cfg.read_preference,
            guarantees=cfg.session_guarantees,
        )
        script_rng = random.Random(seed * 1_000_003 + i + 1)
        if arrivals is not None:
            script = _open_loop_script(
                client, script_rng,
                schedule=schedule, state=arrival_state, **script_args,
            )
        else:
            script = _transfer_script(
                client, script_rng, txns=cfg.txns_per_client, **script_args
            )
        runs.append(_ScriptRun(i, client, script))
    start_tick = net.now
    arrivals_seen = 0
    sheds_seen = 0

    def observe(final: bool) -> None:
        """Feed the windowed telemetry.  Observation only: nothing here may
        influence the run.  The ``final`` call counts the arrivals no worker
        ever reached, zeroes the queue gauges and samples unconditionally."""
        nonlocal arrivals_seen, sheds_seen
        now = net.now
        due = len(schedule) if final else bisect_right(schedule, now)
        for tick in schedule[arrivals_seen:due]:
            windows.observe_arrival(tick)
        arrivals_seen = due
        shed_total = server.counters["shed"]
        if shed_total > sheds_seen:
            windows.sheds.inc(now, shed_total - sheds_seen)
            sheds_seen = shed_total
        if final:
            windows.set_gauges(queue_depth=0, certification_lag=0)
        else:
            windows.set_gauges(
                queue_depth=max(due - arrival_state["next"], 0),
                certification_lag=server.certification_lag if server.up else 0,
            )
        if cluster is not None and len(cluster.shards) > 1:
            windows.set_cluster_gauges(
                in_doubt=cluster.in_doubt,
                shard_certification_lag=cluster.shard_certification_lags(),
                shard_queue_depth=cluster.shard_queue_depths(),
            )
        if final:
            windows.sample(now)
        else:
            windows.maybe_sample(now)
        if flight is not None:
            flight.check_slos(now)

    # Event-driven: a poll can only have an effect when its client has mail
    # or its deadline/backoff has come due, and both change only inside
    # ``drain_due``/``advance``.  After each of those the blocked scripts are
    # scanned once for due pendings (``wake``) and only those are polled, in
    # client-index order — poll order decides the order of ``_send()`` draws
    # from ``net.rng``.  ``ready`` holds the indices of the unblocked scripts
    # in ascending order, so ``driver_rng.choice`` sees the list a
    # poll-everything loop would rebuild.  The fault schedule likewise reads
    # only the clock and counters that move inside a delivery.
    max_ticks = cfg.max_ticks
    ready = list(range(cfg.clients))
    wake: List[_ScriptRun] = []
    live = cfg.clients
    clock_moved = faults_due = True
    while True:
        if windows is not None:
            # Every iteration, not once per clock change:
            # ``arrival_state["next"]`` moves when a resumed script claims an
            # arrival.
            observe(final=False)
        if faults_due:
            # The service owns its whole deterministic fault schedule
            # (stress crash included).  A cluster restart armed with a zero
            # delay is due again at the very next step.
            server.tick()
            wake_at = server.next_wake
            faults_due = wake_at is not None and wake_at <= net.now
        if not live:
            break
        now = net.now
        if now - start_tick > max_ticks:
            raise RuntimeError(
                f"stress run exceeded {max_ticks} ticks "
                f"({len(runs) - live}/{len(runs)} scripts done)\n"
                + _stuck_report(
                    runs, cluster.shards if cluster is not None else [server]
                )
            )
        if clock_moved:
            # ``PendingCall.due``, read off the pending's fields in place.
            wake = []
            for run in runs:
                if run.blocked:
                    pending = run.pending
                    if pending.inbox or (
                        pending.deadline is not None and pending.deadline <= now
                    ) or (
                        pending.resume_at is not None and pending.resume_at <= now
                    ):
                        wake.append(run)
            clock_moved = False
        if wake:
            polled, wake = wake, []
            for run in polled:
                if run.pending.poll():
                    run.blocked = False
                    insort(ready, run.index)
                elif run.pending.due(now):
                    wake.append(run)  # a zero backoff is due again at once
        if ready:
            run = runs[driver_rng.choice(ready)]
            run.resume()
            if not run.ready:
                ready.remove(run.index)
                if run.done:
                    live -= 1
                else:
                    run.blocked = True
            continue
        # Every script is blocked: deliver the network's whole due batch
        # before any client runs again (tick-synchronized; see docstring).
        if not net.drain_due():
            # Nothing in flight: jump to the earliest client wake-up (or
            # the fault schedule's) instead of idling tick by tick.
            wakes = [
                r.pending.next_wake
                for r in runs
                if r.blocked and r.pending.next_wake is not None
            ]
            if server.next_wake is not None:
                wakes.append(server.next_wake)
            net.advance(max(1, min(wakes) - now) if wakes else 1)
        clock_moved = faults_due = True
    server.settle()
    server.flush_certification()  # settle any batched verdicts
    if windows is not None:
        observe(final=True)
    if tracer is not None:
        for run in runs:
            run.client.close_trace()
    monitor.finish()
    if run_span is not None:
        run_span.end(
            committed=server.commit_count,
            client_aborts=counters["aborts"],
            crashes=server.crashes,
            restarts=server.restarts,
            deadlock_victims=server.deadlock_victims,
            ticks=net.now,
        )
    # Final (authoritative) certification pass: phenomena only accumulate,
    # so re-verify every commit against the finished monitor.
    certification: Dict[int, Tuple[Optional[IsolationLevel], bool]] = {}
    history = server.history()
    declared_map = server.declared
    for tid in sorted(history.committed - {0}):
        lvl = declared_map.get(tid)
        certification[tid] = (
            lvl,
            monitor.provides(lvl) if lvl is not None else True,
        )
    from ..core.formatting import format_history

    client_stats = {"retries": 0, "timeouts": 0, "busy": 0, "shed": 0}
    for run in runs:
        for k, v in run.client.stats.items():
            client_stats[k] += v
    session_violations = tuple(sorted(
        (
            v
            for run in runs
            for v in getattr(run.client, "violations", ())
        ),
        key=lambda v: (v["tick"], v["session"], v["kind"]),
    ))
    return StressResult(
        history_text=format_history(history),
        journals={
            run.client.name: tuple(run.client.journal) for run in runs
        },
        certification=certification,
        committed=server.commit_count,
        client_aborts=counters["aborts"],
        network_counters=dict(net.counters),
        server_counters=dict(server.counters),
        client_stats=client_stats,
        crashes=server.crashes,
        restarts=server.restarts,
        deadlock_victims=server.deadlock_victims,
        ticks=net.now,
        monitor=monitor,
        history=history,
        metrics=metrics,
        tracer=tracer,
        config=config_summary,
        commit_latencies=tuple(latencies),
        offered=(
            len(schedule)
            if arrivals is not None
            else cfg.clients * cfg.txns_per_client
        ),
        windows=windows,
        cluster=cluster,
        ops=tuple(ops_log),
        session_violations=session_violations,
        flight=flight,
    )
