"""Trace analytics: percentiles, critical paths, waterfalls, exports.

The service layer (:mod:`repro.service`) propagates a trace context —
``(trace_id, span_id)`` carried in every message envelope — through the
whole request path, so one transaction's retries, duplicate deliveries,
server-side lock waits and commit certification land in a single span
tree, timed on the network's logical tick clock.  This module turns those
traces (live ``tracer.records`` or a JSONL file read back with
:func:`~repro.observability.trace.read_trace`) into answers:

* :func:`verb_latencies` / :func:`latency_table` — per-verb logical-latency
  percentiles (p50/p95/p99 over ``client.request`` span durations);
* :func:`critical_path` — the latest-finisher chain through a span tree,
  the hops that actually determined when the root ended;
* :func:`waterfall` — an ASCII Gantt of a trace, one bar per span, events
  marked in place (a truncated trace with nothing but orphan events still
  draws its synthetic ``orphans`` row);
* :func:`contention_summary` / :func:`contention_table` — which object
  keys accrue busy replies, lock blocks and parked-wait ticks;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON loadable in Perfetto (``ui.perfetto.dev``) or
  ``chrome://tracing``; the original records ride along in ``args`` so
  :func:`from_chrome_trace` (and :func:`read_trace` on the exported file)
  round-trips them exactly;
* :func:`build_run_report` / :class:`RunReport` — one markdown/JSON run
  report: fault-schedule config, metrics snapshot, latency percentiles,
  top contended objects, and every latched phenomenon with its
  witness-cycle provenance inline.

Everything here is a pure function of the records, so equal traces give
byte-equal analytics — the determinism contract of the service layer
extends through the toolkit, and ``tests/test_report_golden.py`` pins the
bytes of every rendering across commits.  The records are trusted to be
records: :func:`read_trace` and :func:`from_chrome_trace` count anything
else in ``.skipped`` at the boundary.  Each thing is said once —
:func:`_select` picks records, :func:`stats_row` summarises values,
:func:`_table` renders markdown — and every summary below reads through
them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .percentiles import percentile, stats_row
from .trace import TraceRecords, span_tree

__all__ = [
    "percentile",
    "verb_latencies",
    "latency_table",
    "critical_path",
    "cross_shard_critical_path",
    "waterfall",
    "contention_summary",
    "contention_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "from_chrome_trace",
    "replication_lag_timeline",
    "twopc_summary",
    "cluster_summary",
    "RunReport",
    "build_run_report",
]

Record = Dict[str, Any]


# ---------------------------------------------------------------------------
# the shared pieces: record selector and table renderers (stats rows come
# from .percentiles)
# ---------------------------------------------------------------------------


def _select(
    records: Iterable[Record],
    kind: Optional[str] = None,
    name: Optional[str] = None,
) -> List[Record]:
    """Closed spans (``kind="span"``) or point events (``kind="event"``),
    optionally of one ``name``, in emission (``seq``) order; with no
    ``kind``, every record in that order."""
    return sorted(
        (
            r
            for r in records
            if (kind is None or r["kind"] == kind)
            and (name is None or r["name"] == name)
        ),
        key=lambda r: r["seq"],
    )


def _fmt(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else f"{value:g}"


def _table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> List[str]:
    """A markdown table, as lines: header, rule, one line per row of cells.
    Numbers print through :func:`_fmt`, a missing value (``None``) as ``-``,
    anything else as its ``str``."""

    def cell(value: Any) -> str:
        if value is None:
            return "-"
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return _fmt(value) if number else str(value)

    return [
        "| " + " | ".join(headers) + " |",
        "|---" * len(headers) + "|",
        *("| " + " | ".join(map(cell, row)) + " |" for row in rows),
    ]


def _kv_table(mapping: Dict[str, Any]) -> List[str]:
    return _table(("key", "value"), ((key, str(v)) for key, v in mapping.items()))


def _aligned(
    headers: Sequence[str],
    head: str,
    body: str,
    rows: Sequence[Sequence[Any]],
    empty: str,
) -> str:
    """An aligned text table: ``head`` formats the headers, ``body`` each
    row; ``empty`` is the line that stands in for no rows."""
    lines = [head.format(*headers), *(body.format(*row) for row in rows)]
    return "\n".join(lines if rows else lines + [empty])


# ---------------------------------------------------------------------------
# latency percentiles
# ---------------------------------------------------------------------------


def verb_latencies(records: Iterable[Record]) -> Dict[str, Dict[str, float]]:
    """Per-verb logical-latency summary over request span durations.

    Durations are ``end - start`` of every closed ``client.request`` span —
    for service traces that is the full client-observed latency of one
    logical operation, retries and backoff included, in logical ticks.
    Returns ``{verb: {count, p50, p95, p99, mean, max}}``.
    """
    by_verb: Dict[str, List[float]] = {}
    for r in _select(records, "span", "client.request"):
        verb = str(r.get("attrs", {}).get("verb", "?"))
        by_verb.setdefault(verb, []).append(r["end"] - r["start"])
    return {verb: stats_row(by_verb[verb], 50, 95, 99) for verb in sorted(by_verb)}


_LATENCY_HEADERS = ("verb", "count", "p50", "p95", "p99", "mean", "max")


def latency_table(records: Iterable[Record]) -> str:
    """:func:`verb_latencies` rendered as an aligned text table."""
    stats = verb_latencies(records)
    return _aligned(
        _LATENCY_HEADERS,
        "{:10} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "{:10} {:6d} {:8g} {:8g} {:8g} {:8.1f} {:8g}",
        [(verb, *(s[h] for h in _LATENCY_HEADERS[1:])) for verb, s in stats.items()],
        "(no request spans)",
    )


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


def _hop(record: Record, tail_from: float) -> Dict[str, Any]:
    """One critical-path hop: the span's extent plus ``self``, the tail of
    it after ``tail_from`` (when whatever it waited for finished)."""
    return {
        "name": record["name"],
        "id": record["id"],
        "start": record["start"],
        "end": record["end"],
        "duration": record["end"] - record["start"],
        "self": max(0.0, record["end"] - tail_from),
        "attrs": record.get("attrs", {}),
    }


def _walk_depth(
    roots: List[Dict[str, Any]], depth: int = 0
) -> Iterator[Tuple[Dict[str, Any], int]]:
    """Every node of a span tree with its depth, parents before children."""
    for node in roots:
        yield node, depth
        yield from _walk_depth(node["children"], depth + 1)


def _first_by_tid(records: Iterable[Record], name: str) -> Dict[Any, Record]:
    """Per global transaction id, its first ``name`` span (2PC attempts
    repeat), in order of first appearance."""
    first: Dict[Any, Record] = {}
    for r in _select(records, "span", name):
        first.setdefault(r.get("attrs", {}).get("tid"), r)
    return first


def critical_path(node: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The latest-finisher chain through one span-tree node.

    Starting at ``node`` (a :func:`~repro.observability.trace.span_tree`
    node), repeatedly descend into the child whose ``end`` is latest — the
    child that kept the parent open.  Each hop reports its span's
    ``name``/``start``/``end``/``duration`` plus ``self``, the tail time
    after the chosen child finished (attributable to the span itself).
    """
    hops: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = node
    while current is not None:
        record = current["record"]
        latest = max(
            current["children"],
            key=lambda c: (c["record"]["end"], c["record"]["seq"]),
            default=None,
        )
        hops.append(
            _hop(record, latest["record"]["end"] if latest else record["start"])
        )
        current = latest
    return hops


def cross_shard_critical_path(
    records: Iterable[Record], gid: Optional[int] = None
) -> List[Dict[str, Any]]:
    """The critical path of one global (cross-shard) commit, phase by phase.

    :func:`critical_path` alone descends into the *latest finisher* at
    every level, which for a 2PC commit is the reply leg back to the
    client — correct, but it skips the interesting part.  This variant
    pins the descent to the two-phase structure: the client request hop,
    then the ``2pc.prepare`` fan-out chased into its slowest participant
    leg (``net.msg`` → ``server.handle`` on that shard), then the
    ``2pc.decide`` fan-out chased the same way.  The request hop's
    ``self`` is the tail after the decide fan-out finished — the reply
    delivery the plain critical path would have followed.

    ``gid`` selects the global transaction; default is the first prepared
    one in the trace.  Returns ``[]`` when the trace has no 2PC spans.
    """
    records = list(records)
    prepares = _first_by_tid(records, "2pc.prepare")
    if gid is None:
        gid = next(iter(prepares), None)
    prepare = prepares.get(gid)
    if prepare is None:
        return []
    decide = _first_by_tid(records, "2pc.decide").get(gid)
    nodes = {
        node["record"]["id"]: node
        for node, _depth in _walk_depth(span_tree(records))
        if node["record"]["id"] is not None
    }
    hops: List[Dict[str, Any]] = []
    parent = nodes.get(prepare.get("parent"))
    if parent is not None:
        hops.append(_hop(parent["record"], (decide or prepare)["end"]))
    hops += critical_path(nodes[prepare["id"]])
    if decide is not None:
        hops += critical_path(nodes[decide["id"]])
    return hops


# ---------------------------------------------------------------------------
# waterfall rendering
# ---------------------------------------------------------------------------

_LABEL_KEYS = ("verb", "fate", "outcome", "trace_id")
#: Columns of the time axis and of the span-label gutter.
_WIDTH = 64
_LABEL_WIDTH = 34


def _span_label(record: Record) -> str:
    attrs = record.get("attrs", {})
    for key in _LABEL_KEYS:
        value = attrs.get(key)
        if value is not None and value is not False:
            return f"{record['name']} {key}={value}"
    return record["name"]


def waterfall(records: Iterable[Record], *, max_lines: int = 200) -> str:
    """ASCII Gantt of a trace: one line per span, indented by tree depth,
    bar positioned on the shared time axis, events marked with ``*``.

    Feed it the records of one trace (e.g. filtered to one ``trace_id``)
    or a whole run; ``max_lines`` truncates runaway traces with a note.
    The synthetic ``orphans`` row of a truncated trace is drawn too, and
    the axis spans every row — so a trace with only orphan events renders.
    """
    rows = [
        (node, depth)
        for node, depth in _walk_depth(span_tree(records))
        if node["record"].get("id") is not None
        or node["record"].get("name") == "orphans"
    ]
    if not rows:
        return "(no closed spans)"
    t0 = min(node["record"]["start"] for node, _depth in rows)
    t1 = max(node["record"]["end"] for node, _depth in rows)
    scale = (_WIDTH - 1) / (t1 - t0) if t1 > t0 else 0.0

    def col(t: float) -> int:
        return min(_WIDTH - 1, max(0, int((t - t0) * scale)))

    lines = [
        f"{'span':{_LABEL_WIDTH}} |{'t=' + _fmt(t0):<{_WIDTH // 2}}"
        f"{_fmt(t1) + '=t':>{_WIDTH - _WIDTH // 2}}|"
    ]
    for node, depth in rows[:max_lines]:
        record = node["record"]
        bar = ["."] * _WIDTH
        for i in range(col(record["start"]), col(record["end"]) + 1):
            bar[i] = "="
        for event in node["events"]:
            bar[col(event["time"])] = "*"
        label = ("  " * depth + _span_label(record))[:_LABEL_WIDTH]
        lines.append(
            f"{label:{_LABEL_WIDTH}} |{''.join(bar)}| "
            f"{_fmt(record['start'])}-{_fmt(record['end'])} "
            f"({_fmt(record['end'] - record['start'])})"
        )
    if len(rows) > max_lines:
        lines.append(
            f"... {len(rows) - max_lines} more spans (max_lines={max_lines})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# contention
# ---------------------------------------------------------------------------


def contention_summary(records: Iterable[Record]) -> List[Dict[str, Any]]:
    """Which object keys accrue contention, sorted hottest first.

    Per object: ``busy_replies`` (server ``server.handle`` spans answered
    busy), ``lock_blocks`` (lock-manager ``lock.blocked`` events plus
    engine ``blocked`` events naming the object), and ``wait_ticks`` — the
    total duration of the ``server.wait`` spans on the object: the ticks
    requests for that key stayed parked at a server, from the block to the
    grant (or to the abort, crash or walk-away that ended the wait).
    """
    records = list(records)
    stats: Dict[str, Dict[str, float]] = {}

    def add(obj: Any, counter: str, amount: float = 1) -> None:
        if obj is not None:
            row = stats.setdefault(
                str(obj), {"busy_replies": 0, "lock_blocks": 0, "wait_ticks": 0.0}
            )
            row[counter] += amount

    for r in _select(records, "event", "lock.blocked"):
        add(r.get("attrs", {}).get("obj"), "lock_blocks")
    for r in _select(records, "event", "blocked"):
        # A ``WouldBlock`` resource string quotes its object:
        # "write lock on 'k3'".
        quoted = str(r.get("attrs", {}).get("resource") or "").split("'")
        add(quoted[1] if len(quoted) > 1 else None, "lock_blocks")
    for r in _select(records, "span", "server.wait"):
        add(r.get("attrs", {}).get("obj"), "wait_ticks", r["end"] - r["start"])
    for r in _select(records, "span", "server.handle"):
        if r.get("attrs", {}).get("outcome") == "busy":
            add(r.get("attrs", {}).get("obj"), "busy_replies")
    return [
        {"obj": obj, **row}
        for obj, row in sorted(
            stats.items(),
            key=lambda kv: (-kv[1]["wait_ticks"], -kv[1]["busy_replies"], kv[0]),
        )
    ]


def contention_table(records: Iterable[Record], *, top: int = 10) -> str:
    """:func:`contention_summary` rendered as an aligned text table."""
    return _aligned(
        ("object", "busy", "blocks", "wait ticks"),
        "{:10} {:>6} {:>7} {:>11}",
        "{:10} {:6d} {:7d} {:11g}",
        [
            (r["obj"], int(r["busy_replies"]), int(r["lock_blocks"]), r["wait_ticks"])
            for r in contention_summary(records)[:top]
        ],
        "(no contention observed)",
    )


# ---------------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------

#: Logical ticks are exported as milliseconds (1 tick -> 1000 µs) so the
#: Perfetto timeline has a sensible scale.
_TICK_US = 1000.0

#: Per record kind: the Chrome phase fields, the record field the event is
#: placed at, and the record fields stashed under ``args._repro`` (``name``
#: and ``attrs`` travel as the Chrome event's own name and args).  Read by
#: :func:`to_chrome_trace` and, in reverse, by :func:`from_chrome_trace`.
_CHROME_KINDS = {
    "span": ({"ph": "X"}, "start", ("id", "parent", "seq", "start", "end")),
    "event": ({"ph": "i", "s": "t"}, "time", ("id", "span", "seq", "time")),
}


def to_chrome_trace(records: Iterable[Record]) -> Dict[str, Any]:
    """Convert trace records to Chrome trace-event JSON (Perfetto-loadable).

    Spans become ``ph: "X"`` complete events, point events become
    ``ph: "i"`` instants; each trace id gets its own named lane (thread).
    The original record fields ride along under ``args._repro`` so
    :func:`from_chrome_trace` round-trips exactly.

    The layout is read off the records: every shard becomes its own
    Perfetto *process* (records carrying an integer ``shard`` attribute —
    ``server.handle`` on that shard, its ``repl.ship``/``repl.apply``
    batches), with one ``primary`` thread and one thread per replica
    ordinal; everything shard-less (clients, coordinator 2PC spans, the run
    span) stays in the ``cluster`` process on per-trace threads.  A trace
    with no shard attribute (a single server) is that one process alone,
    which then goes unnamed.
    """
    lanes: Dict[tuple, int] = {}
    processes: Dict[str, int] = {}

    def lane(attrs: Dict[str, Any]) -> tuple:
        shard = attrs.get("shard")
        if isinstance(shard, int):
            group = f"shard {shard}"
            replica = attrs.get("replica")
            thread = f"replica {replica}" if isinstance(replica, int) else "primary"
        else:
            group = "cluster"
            thread = str(attrs.get("trace_id") or attrs.get("scheduler") or "run")
        pid = processes.setdefault(group, len(processes) + 1)
        return pid, lanes.setdefault((group, thread), len(lanes) + 1)

    events: List[Dict[str, Any]] = []
    for r in _select(records):
        attrs = r.get("attrs", {})
        kind = r["kind"]
        phase, at, stashed = _CHROME_KINDS[kind]
        pid, tid = lane(attrs)
        stash = {"kind": kind, **{key: r.get(key) for key in stashed}}
        event = {"name": r["name"], "cat": kind, **phase, "pid": pid, "tid": tid}
        event.update(ts=r[at] * _TICK_US, args={**attrs, "_repro": stash})
        if kind == "span":
            event["dur"] = (r["end"] - r["start"]) * _TICK_US
        events.append(event)

    def named(what: str, pid: int, name: str, **tid: int) -> Dict[str, Any]:
        return {"name": what, "ph": "M", "pid": pid, **tid, "args": {"name": name}}

    meta = [
        named("process_name", pid, group)
        for group, pid in processes.items()
        if len(processes) > 1  # a lone process needs no name row
    ] + [
        named("thread_name", processes[group], thread, tid=tid)
        for (group, thread), tid in lanes.items()
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Iterable[Record], path: str) -> Dict[str, Any]:
    """Write :func:`to_chrome_trace` output to ``path``; returns the dict."""
    data = to_chrome_trace(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
        handle.write("\n")
    return data


def from_chrome_trace(data: Dict[str, Any]) -> TraceRecords:
    """Reconstruct trace records from a :func:`to_chrome_trace` export.

    Only events carrying the ``args._repro`` stash (i.e. written by this
    module) are reconstructed; foreign Chrome-trace events are counted in
    ``.skipped`` like undecodable JSONL lines.
    """
    found: List[Record] = []
    skipped = 0
    for event in data.get("traceEvents", ()):
        if event.get("ph") == "M":
            continue
        args = event.get("args") or {}
        stash = args.get("_repro")
        if not isinstance(stash, dict) or stash.get("kind") not in _CHROME_KINDS:
            skipped += 1
            continue
        found.append(
            {
                "kind": stash["kind"],
                "name": event["name"],
                "attrs": {k: v for k, v in args.items() if k != "_repro"},
                **{key: stash.get(key) for key in _CHROME_KINDS[stash["kind"]][2]},
            }
        )
    records = TraceRecords(_select(found))
    records.skipped = skipped
    return records


# ---------------------------------------------------------------------------
# cluster analytics
# ---------------------------------------------------------------------------


def replication_lag_timeline(
    records: Iterable[Record],
) -> Dict[str, List[Dict[str, Any]]]:
    """Replication lag over time, per ``"shard:replica"`` stream.

    Every ``repl.ship`` span is one sample: at ``time`` (the ship tick) the
    replica was ``lag`` entries behind its primary and a batch of ``count``
    entries left from log offset ``offset``.  Samples come back in ship
    order, so plotting ``time`` against ``lag`` is the replication-lag
    timeline the Perfetto tracks show.
    """
    timeline: Dict[str, List[Dict[str, Any]]] = {}
    for r in _select(records, "span", "repl.ship"):
        attrs = r.get("attrs", {})
        key = f"{attrs.get('shard')}:{attrs.get('replica')}"
        timeline.setdefault(key, []).append(
            {
                "time": r["start"],
                "lag": attrs.get("lag", 0),
                "offset": attrs.get("offset"),
                "count": attrs.get("count"),
                "fate": attrs.get("fate"),
            }
        )
    return {key: timeline[key] for key in sorted(timeline)}


def twopc_summary(records: Iterable[Record]) -> Dict[str, Any]:
    """Cross-shard 2PC outcomes and in-doubt durations from the trace.

    Pairs each global transaction's ``2pc.prepare`` span (first attempt)
    with its ``2pc.decide`` span; the **in-doubt duration** is prepare
    start to decide end — the window in which a coordinator crash would
    leave participants blocked on the outcome.  Returns outcome counts,
    duration percentiles and the per-transaction table (decide-less
    transactions report ``in_doubt=None``: still pending at trace end).
    """
    records = list(records)
    prepares = _first_by_tid(records, "2pc.prepare")
    decides = _first_by_tid(records, "2pc.decide")
    transactions: List[Dict[str, Any]] = []
    outcomes: Dict[str, int] = {}
    for tid in sorted(prepares):
        prepare = prepares[tid]
        decide = decides.get(tid)
        outcome = decide["attrs"].get("outcome") if decide is not None else None
        outcomes[str(outcome)] = outcomes.get(str(outcome), 0) + 1
        transactions.append(
            {
                "tid": tid,
                "outcome": outcome,
                "prepared_at": prepare["start"],
                "decided_at": decide["end"] if decide is not None else None,
                "in_doubt": (
                    decide["end"] - prepare["start"] if decide is not None else None
                ),
                "participants": prepare["attrs"].get("participants"),
            }
        )
    summary: Dict[str, Any] = {
        "transactions": len(transactions),
        "outcomes": outcomes,
        "per_txn": transactions,
    }
    durations = [t["in_doubt"] for t in transactions if t["in_doubt"] is not None]
    if durations:
        summary["in_doubt_ticks"] = stats_row(durations, 50, 95)
        del summary["in_doubt_ticks"]["mean"]
    return summary


def cluster_summary(
    records: Iterable[Record],
    *,
    result: Optional[object] = None,
) -> Optional[Dict[str, Any]]:
    """The :class:`RunReport` "Cluster" section: per-shard request latency
    and outcomes, replication-lag percentiles per replica stream,
    cross-shard 2PC in-doubt durations, and the session-guarantee
    violation tally.  ``None`` when the trace carries no cluster signal
    (no shard-attributed spans and no cluster on the result)."""
    records = list(records)
    handled: Dict[int, List[Record]] = {}
    for r in _select(records, "span", "server.handle"):
        shard = r.get("attrs", {}).get("shard")
        if isinstance(shard, int):
            handled.setdefault(shard, []).append(r)
    shards: Dict[int, Dict[str, Any]] = {}
    for shard, spans in handled.items():
        stats = stats_row([r["end"] - r["start"] for r in spans], 50, 95)
        shards[shard] = {
            "shard": shard,
            "requests": stats["count"],
            "busy": sum(
                1 for r in spans if r.get("attrs", {}).get("outcome") == "busy"
            ),
            "p50": stats["p50"],
            "p95": stats["p95"],
        }
    cluster = getattr(result, "cluster", None)
    for state in cluster.snapshot()["shards"] if cluster is not None else ():
        row = shards.setdefault(state["shard"], {"shard": state["shard"]})
        for key in ("commits", "certification_lag", "up"):
            row[key] = state[key]
    shard_rows = [shards[shard] for shard in sorted(shards)]
    lag_rows: List[Dict[str, Any]] = []
    for key, samples in replication_lag_timeline(records).items():
        stats = stats_row([s["lag"] for s in samples], 50, 95)
        lag_rows.append(
            {
                "stream": key,
                "batches": stats["count"],
                "p50": stats["p50"],
                "p95": stats["p95"],
                "max": stats["max"],
                "final_offset": samples[-1]["offset"],
            }
        )
    two_pc = twopc_summary(records)
    witnessed = getattr(result, "session_violations", ()) or [
        r.get("attrs", {}) for r in _select(records, "event", "session.violation")
    ]
    violations = dict(Counter(str(v.get("kind")) for v in witnessed))
    if not (shard_rows or lag_rows or two_pc["transactions"] or violations):
        return None
    return {
        "shards": shard_rows,
        "replication": lag_rows,
        "two_pc": two_pc,
        "session_violations": violations,
    }


# ---------------------------------------------------------------------------
# unified run report
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """One run, one document: config, outcome, latencies, contention,
    phenomena with provenance, metrics.  Built by :func:`build_run_report`;
    render with :meth:`to_markdown` or :meth:`to_json`.  Equal inputs give
    byte-equal renderings."""

    title: str
    config: Dict[str, Any] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)
    latencies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    contention: List[Dict[str, Any]] = field(default_factory=list)
    phenomena: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Optional[Dict[str, Any]] = None
    trace_stats: Dict[str, Any] = field(default_factory=dict)
    #: Capacity-sweep section (see :func:`repro.service.capacity.
    #: build_capacity_report`): offered-load ladder, knee, SLO verdicts
    #: and the contention heatmap.
    capacity: Optional[Dict[str, Any]] = None
    #: Cluster section (see :func:`cluster_summary`): per-shard latency
    #: and outcomes, replication-lag percentiles, 2PC in-doubt durations
    #: and session-guarantee violations.  ``None`` for single-server runs.
    cluster: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        lines: List[str] = [f"# Run report — {self.title}", ""]
        if self.config:
            lines += ["## Fault schedule and configuration", ""]
            lines += [*_kv_table(_flatten(self.config)), ""]
        if self.summary:
            lines += ["## Outcome", "", *_kv_table(self.summary), ""]
        if self.capacity:
            lines += _capacity_markdown(self.capacity)
        if self.cluster:
            lines += _cluster_markdown(self.cluster)
        lines += ["## Logical latency by verb (ticks)", ""]
        if self.latencies:
            lines += _table(
                _LATENCY_HEADERS,
                (
                    (
                        verb, s["count"], s["p50"], s["p95"], s["p99"],
                        f"{s['mean']:.1f}", s["max"],
                    )
                    for verb, s in self.latencies.items()
                ),
            )
        else:
            lines.append("no request spans in the trace.")
        lines += ["", "## Top contended objects", ""]
        if self.contention:
            lines += _table(
                ("object", "busy replies", "lock blocks", "wait ticks"),
                (
                    (r["obj"], r["busy_replies"], r["lock_blocks"], r["wait_ticks"])
                    for r in self.contention[:10]
                ),
            )
        else:
            lines.append("no contention observed.")
        lines += ["", "## Phenomena", ""]
        for p in self.phenomena:
            lines.append(
                f"### {p.get('phenomenon', '?')} "
                f"(latched at event {p.get('at_event', '?')})"
            )
            lines.append("")
            lines += [f"- {e.get('describe', e)}" for e in p.get("cycle", [])]
            lines += [
                f"- {w.get('phenomenon')}: {w.get('description')}"
                for w in p.get("witnesses", [])
            ]
            if p.get("events"):
                events = (f"`{e['event']}` (#{e['index']})" for e in p["events"])
                lines.append("- witness events: " + ", ".join(events))
            lines.append("")
        if not self.phenomena:
            lines += ["none latched.", ""]
        if self.metrics:
            lines += ["## Metrics", ""]
            lines += _table(
                ("metric", "labels", "value"),
                (
                    (
                        name,
                        ", ".join(
                            f"{k}={v}" for k, v in sorted(series["labels"].items())
                        ),
                        series["value"]
                        if "value" in series
                        else f"count={series['count']} sum={_fmt(series['sum'])}",
                    )
                    for name in sorted(self.metrics)
                    for series in self.metrics[name].get("series", [])
                ),
            )
            lines.append("")
        if self.trace_stats:
            lines += ["## Trace", "", *_kv_table(self.trace_stats), ""]
        return "\n".join(lines).rstrip() + "\n"


def _cluster_markdown(cluster: Dict[str, Any]) -> List[str]:
    """Render the Cluster section: per-shard table, replication lag,
    2PC in-doubt durations, session-guarantee violations."""
    lines: List[str] = ["## Cluster", ""]
    shard_rows = cluster.get("shards") or []
    if shard_rows:
        lines += _table(
            (
                "shard", "requests", "p50", "p95", "busy", "commits",
                "certification lag", "up",
            ),
            (
                (
                    row["shard"], row.get("requests", 0), row.get("p50"),
                    row.get("p95"), row.get("busy", 0), row.get("commits"),
                    row.get("certification_lag"), row.get("up"),
                )
                for row in shard_rows
            ),
        )
        lines.append("")
    lag_rows = cluster.get("replication") or []
    if lag_rows:
        lines += ["### Replication lag (entries behind primary, per batch)", ""]
        keys = ("stream", "batches", "p50", "p95", "max", "final_offset")
        lines += _table(
            [key.replace("_", " ") for key in keys],
            ([row[key] for key in keys] for row in lag_rows),
        )
        lines.append("")
    two_pc = cluster.get("two_pc") or {}
    if two_pc.get("transactions"):
        lines += ["### Cross-shard 2PC", ""]
        outcomes = ", ".join(f"{k}={v}" for k, v in sorted(two_pc["outcomes"].items()))
        lines.append(f"{two_pc['transactions']} global transactions ({outcomes}).")
        in_doubt = two_pc.get("in_doubt_ticks")
        if in_doubt:
            lines.append(
                f"In-doubt duration (prepare start to decide end, ticks): "
                f"p50 {_fmt(in_doubt['p50'])}, p95 {_fmt(in_doubt['p95'])}, "
                f"max {_fmt(in_doubt['max'])}."
            )
        lines.append("")
        longest = sorted(
            (t for t in two_pc.get("per_txn", []) if t["in_doubt"] is not None),
            key=lambda t: (-t["in_doubt"], t["tid"]),
        )[:10]
        pending = [t for t in two_pc.get("per_txn", []) if t["in_doubt"] is None]
        if longest:
            lines += _table(
                ("gid", "outcome", "prepared at", "in-doubt ticks"),
                (
                    (t["tid"], str(t["outcome"]), t["prepared_at"], t["in_doubt"])
                    for t in longest
                ),
            )
            lines.append("")
        if pending:
            tids = ", ".join(str(t["tid"]) for t in pending)
            lines += [f"Still in doubt at trace end: {tids}.", ""]
    violations = cluster.get("session_violations") or {}
    lines += ["### Session-guarantee violations", ""]
    if violations:
        lines += _table(("kind", "count"), sorted(violations.items()))
    else:
        lines.append("none witnessed.")
    lines.append("")
    return lines


def _capacity_markdown(capacity: Dict[str, Any]) -> List[str]:
    """Render the capacity section: knee, p99-vs-load ladder, SLO verdicts
    and the object × rate contention heatmap."""
    lines: List[str] = ["## Capacity", ""]
    knee = capacity.get("knee")
    if knee is not None:
        lines.append(
            f"Saturation knee at offered rate **{knee['rate']:g}/tick** "
            f"({knee['throughput_per_kilotick']:g} commits/ktick, "
            f"completion {knee['completion_ratio']:.0%}); rungs above it "
            f"are past saturation."
        )
    else:
        lines.append(
            "No saturation knee: even the lowest offered rate overloads "
            "the server."
        )
    lines.append("")
    ladder = capacity.get("ladder", [])
    if ladder:
        lines += _table(
            (
                "offered rate", "offered", "committed", "completion",
                "commits/ktick", "p50", "p99", "shed", "aborts", "max queue",
                "SLOs",
            ),
            (
                (
                    f"{rung['rate']:g}", rung["offered"], rung["committed"],
                    f"{rung['completion_ratio']:.0%}",
                    f"{rung['throughput_per_kilotick']:g}", rung["p50"],
                    rung["p99"], rung["shed"], rung["aborted"],
                    rung["max_queue_depth"],
                    "ok" if rung["slos_ok"] else "VIOLATED",
                )
                for rung in ladder
            ),
        )
        lines.append("")
    slo_names = [s["name"] for s in (ladder[0]["slos"] if ladder else [])]
    if slo_names:
        lines += ["### SLO verdicts", ""]
        lines += _table(
            ("offered rate", *slo_names),
            (
                (
                    f"{rung['rate']:g}",
                    *(
                        "ok" if status["ok"]
                        else f"violated@t={status['violated_at']}"
                        for status in rung["slos"]
                    ),
                )
                for rung in ladder
            ),
        )
        lines.append("")
    heatmap = capacity.get("heatmap") or {}
    if heatmap.get("objects"):
        lines += ["### Contention heatmap (wait ticks by object × rate)", ""]
        lines += _table(
            ("object", *(f"{r:g}" for r in heatmap["rates"])),
            (
                (obj, *row)
                for obj, row in zip(heatmap["objects"], heatmap["wait_ticks"])
            ),
        )
        lines.append("")
    return lines


def _flatten(mapping: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in mapping.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def build_run_report(
    records: Optional[Iterable[Record]] = None,
    *,
    result: Optional[object] = None,
    metrics: Optional[object] = None,
    config: Optional[Dict[str, Any]] = None,
    title: str = "stress run",
    capacity: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from a trace and/or a stress result.

    ``records`` are trace records (live or read back from JSONL);
    ``result`` is a :class:`~repro.service.StressResult` (contributes the
    outcome summary — its :meth:`~repro.service.StressResult.outcome`
    rows — plus config and metrics when not given explicitly);
    ``metrics`` is a :class:`~repro.observability.MetricsRegistry` or an
    already-snapshotted dict.
    """
    if records is None:
        records = getattr(getattr(result, "tracer", None), "records", None) or []
    skipped = getattr(records, "skipped", 0)
    records = list(records)
    if config is None:
        config = getattr(result, "config", None)
    if metrics is None:
        metrics = getattr(result, "metrics", None)
    snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    trace_stats: Dict[str, Any] = {}
    if records or skipped:
        spans = _select(records, "span")
        trace_stats = {
            "records": len(records),
            "spans": len(spans),
            "events": len(records) - len(spans),
            "traces": len(
                {r.get("attrs", {}).get("trace_id") for r in spans} - {None}
            ),
        }
        if skipped:
            trace_stats["skipped lines"] = skipped
    return RunReport(
        title=title,
        config=dict(config or {}),
        summary=dict(result.outcome()) if result is not None else {},
        latencies=verb_latencies(records),
        contention=contention_summary(records),
        phenomena=[
            dict(r.get("attrs", {}))
            for r in _select(records, "event", "phenomenon")
        ],
        metrics=snapshot,
        trace_stats=trace_stats,
        capacity=capacity,
        cluster=cluster_summary(records, result=result),
    )
