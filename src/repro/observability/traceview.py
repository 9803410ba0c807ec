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
  marked in place;
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
extends through the toolkit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

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

#: Span names the service layer emits, outermost first (reference for
#: consumers; the functions below key off these).
SERVICE_SPANS = ("stress.run", "client.txn", "client.request", "net.msg", "server.handle")


# ---------------------------------------------------------------------------
# latency percentiles
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100), at least 1
    return ordered[min(int(rank), len(ordered)) - 1]


def verb_latencies(
    records: Iterable[Dict[str, Any]],
    *,
    span_name: str = "client.request",
    key: str = "verb",
) -> Dict[str, Dict[str, float]]:
    """Per-verb logical-latency summary over request span durations.

    Durations are ``end - start`` of every closed ``span_name`` span —
    for service traces that is the full client-observed latency of one
    logical operation, retries and backoff included, in logical ticks.
    Returns ``{verb: {count, p50, p95, p99, mean, max}}``.
    """
    by_verb: Dict[str, List[float]] = {}
    for r in records:
        if r.get("kind") != "span" or r.get("name") != span_name:
            continue
        verb = str(r.get("attrs", {}).get(key, "?"))
        by_verb.setdefault(verb, []).append(r["end"] - r["start"])
    out: Dict[str, Dict[str, float]] = {}
    for verb in sorted(by_verb):
        durations = by_verb[verb]
        out[verb] = {
            "count": len(durations),
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "p99": percentile(durations, 99),
            "mean": sum(durations) / len(durations),
            "max": max(durations),
        }
    return out


def latency_table(records: Iterable[Dict[str, Any]], **kwargs: Any) -> str:
    """:func:`verb_latencies` rendered as an aligned text table."""
    stats = verb_latencies(records, **kwargs)
    lines = [
        f"{'verb':10} {'count':>6} {'p50':>8} {'p95':>8} {'p99':>8} "
        f"{'mean':>8} {'max':>8}"
    ]
    for verb, s in stats.items():
        lines.append(
            f"{verb:10} {s['count']:6d} {s['p50']:8g} {s['p95']:8g} "
            f"{s['p99']:8g} {s['mean']:8.1f} {s['max']:8g}"
        )
    if not stats:
        lines.append("(no request spans)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


def critical_path(node: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The latest-finisher chain through one span-tree node.

    Starting at ``node`` (a :func:`~repro.observability.trace.span_tree`
    node), repeatedly descend into the child whose ``end`` is latest — the
    child that kept the parent open.  Each hop reports its span's
    ``name``/``start``/``end``/``duration`` plus ``self``, the tail time
    after the chosen child finished (attributable to the span itself).
    """
    hops: List[Dict[str, Any]] = []
    current = node
    while True:
        record = current["record"]
        children = current["children"]
        nxt = (
            max(children, key=lambda c: (c["record"]["end"], c["record"]["seq"]))
            if children
            else None
        )
        tail_from = nxt["record"]["end"] if nxt is not None else record["start"]
        hops.append(
            {
                "name": record["name"],
                "id": record["id"],
                "start": record["start"],
                "end": record["end"],
                "duration": record["end"] - record["start"],
                "self": max(0.0, record["end"] - tail_from),
                "attrs": record.get("attrs", {}),
            }
        )
        if nxt is None:
            return hops
        current = nxt


def cross_shard_critical_path(
    records: Iterable[Dict[str, Any]], gid: Optional[int] = None
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
    nodes: Dict[Any, Dict[str, Any]] = {}

    def index(node: Dict[str, Any]) -> None:
        rid = node["record"].get("id")
        if rid is not None:
            nodes[rid] = node
        for child in node["children"]:
            index(child)

    for root in span_tree(records):
        index(root)
    prepares = [
        n
        for n in nodes.values()
        if n["record"]["name"] == "2pc.prepare"
        and (gid is None or n["record"].get("attrs", {}).get("tid") == gid)
    ]
    if not prepares:
        return []
    prepare = min(prepares, key=lambda n: n["record"]["seq"])
    gid = prepare["record"].get("attrs", {}).get("tid")
    decide = next(
        (
            n
            for n in sorted(nodes.values(), key=lambda n: n["record"]["seq"])
            if n["record"]["name"] == "2pc.decide"
            and n["record"].get("attrs", {}).get("tid") == gid
        ),
        None,
    )
    hops: List[Dict[str, Any]] = []
    parent = nodes.get(prepare["record"].get("parent"))
    if parent is not None:
        record = parent["record"]
        fanout_end = (
            decide["record"]["end"] if decide is not None
            else prepare["record"]["end"]
        )
        hops.append(
            {
                "name": record["name"],
                "id": record["id"],
                "start": record["start"],
                "end": record["end"],
                "duration": record["end"] - record["start"],
                "self": max(0.0, record["end"] - fanout_end),
                "attrs": record.get("attrs", {}),
            }
        )
    hops += critical_path(prepare)
    if decide is not None:
        hops += critical_path(decide)
    return hops


# ---------------------------------------------------------------------------
# waterfall rendering
# ---------------------------------------------------------------------------

_LABEL_KEYS = ("verb", "fate", "outcome", "trace_id")


def _span_label(record: Dict[str, Any]) -> str:
    attrs = record.get("attrs", {})
    bits = [record["name"]]
    for key in _LABEL_KEYS:
        value = attrs.get(key)
        if value is not None and value is not False:
            bits.append(f"{key}={value}")
            break
    return " ".join(bits)


def waterfall(
    records: Iterable[Dict[str, Any]],
    *,
    width: int = 64,
    label_width: int = 34,
    max_lines: int = 200,
) -> str:
    """ASCII Gantt of a trace: one line per span, indented by tree depth,
    bar positioned on the shared time axis, events marked with ``*``.

    Feed it the records of one trace (e.g. filtered to one ``trace_id``)
    or a whole run; ``max_lines`` truncates runaway traces with a note.
    """
    roots = span_tree(records)
    if not roots:
        return "(no closed spans)"
    spans = [
        r for r in (n["record"] for n in _walk(roots)) if r.get("id") is not None
    ]
    t0 = min(r["start"] for r in spans)
    t1 = max(r["end"] for r in spans)
    scale = (width - 1) / (t1 - t0) if t1 > t0 else 0.0

    def col(t: float) -> int:
        return min(width - 1, max(0, int((t - t0) * scale)))

    lines = [
        f"{'span':{label_width}} |{'t=' + _fmt(t0):<{width // 2}}"
        f"{_fmt(t1) + '=t':>{width - width // 2}}|"
    ]
    count = 0
    truncated = 0
    for node, depth in _walk_depth(roots):
        record = node["record"]
        if record.get("id") is None and record.get("name") != "orphans":
            continue
        if count >= max_lines:
            truncated += 1
            continue
        count += 1
        bar = ["."] * width
        a, b = col(record["start"]), col(record["end"])
        for i in range(a, b + 1):
            bar[i] = "="
        for event in node["events"]:
            bar[col(event["time"])] = "*"
        label = ("  " * depth + _span_label(record))[:label_width]
        lines.append(
            f"{label:{label_width}} |{''.join(bar)}| "
            f"{_fmt(record['start'])}-{_fmt(record['end'])} "
            f"({_fmt(record['end'] - record['start'])})"
        )
    if truncated:
        lines.append(f"... {truncated} more spans (max_lines={max_lines})")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else f"{value:g}"


def _walk(roots: List[Dict[str, Any]]) -> Iterable[Dict[str, Any]]:
    for node, _depth in _walk_depth(roots):
        yield node


def _walk_depth(roots: List[Dict[str, Any]], depth: int = 0):
    for node in roots:
        yield node, depth
        yield from _walk_depth(node["children"], depth + 1)


# ---------------------------------------------------------------------------
# contention
# ---------------------------------------------------------------------------


def contention_summary(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Which object keys accrue contention, sorted hottest first.

    Per object: ``busy_replies`` (server ``server.handle`` spans answered
    busy), ``lock_blocks`` (lock-manager ``lock.blocked`` events plus
    engine ``blocked`` events naming the object), and ``wait_ticks`` — the
    total duration of the ``server.wait`` spans on the object: the ticks
    requests for that key stayed parked at a server, from the block to the
    grant (or to the abort, crash or walk-away that ended the wait).
    """
    stats: Dict[str, Dict[str, float]] = {}

    def bucket(obj: Any) -> Dict[str, float]:
        return stats.setdefault(
            str(obj), {"busy_replies": 0, "lock_blocks": 0, "wait_ticks": 0.0}
        )

    for r in records:
        attrs = r.get("attrs", {})
        if r["kind"] == "event":
            if r["name"] == "lock.blocked" and attrs.get("obj") is not None:
                bucket(attrs["obj"])["lock_blocks"] += 1
            elif r["name"] == "blocked" and attrs.get("resource"):
                obj = _obj_of_resource(str(attrs["resource"]))
                if obj is not None:
                    bucket(obj)["lock_blocks"] += 1
        elif r["kind"] == "span" and attrs.get("obj") is not None:
            if r["name"] == "server.wait":
                bucket(attrs["obj"])["wait_ticks"] += r["end"] - r["start"]
            elif r["name"] == "server.handle" and attrs.get("outcome") == "busy":
                bucket(attrs["obj"])["busy_replies"] += 1
    return [
        {"obj": obj, **{k: v for k, v in s.items()}}
        for obj, s in sorted(
            stats.items(),
            key=lambda kv: (-kv[1]["wait_ticks"], -kv[1]["busy_replies"], kv[0]),
        )
    ]


def _obj_of_resource(resource: str) -> Optional[str]:
    """Extract the quoted object from a ``WouldBlock`` resource string
    (``"write lock on 'k3'"``)."""
    if "'" in resource:
        try:
            return resource.split("'")[1]
        except IndexError:  # pragma: no cover - malformed resource
            return None
    return None


def contention_table(
    records: Iterable[Dict[str, Any]], *, top: int = 10
) -> str:
    """:func:`contention_summary` rendered as an aligned text table."""
    rows = contention_summary(records)[:top]
    lines = [
        f"{'object':10} {'busy':>6} {'blocks':>7} {'wait ticks':>11}"
    ]
    for row in rows:
        lines.append(
            f"{row['obj']:10} {int(row['busy_replies']):6d} "
            f"{int(row['lock_blocks']):7d} {row['wait_ticks']:11g}"
        )
    if not rows:
        lines.append("(no contention observed)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------------

#: Logical ticks are exported as milliseconds (1 tick -> 1000 µs) so the
#: Perfetto timeline has a sensible scale.
_TICK_US = 1000.0


def to_chrome_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
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
            thread = (
                f"replica {replica}" if isinstance(replica, int) else "primary"
            )
        else:
            group = "cluster"
            thread = str(
                attrs.get("trace_id") or attrs.get("scheduler") or "run"
            )
        pid = processes.setdefault(group, len(processes) + 1)
        return pid, lanes.setdefault((group, thread), len(lanes) + 1)

    events: List[Dict[str, Any]] = []
    for r in sorted(records, key=lambda r: r["seq"]):
        attrs = r.get("attrs", {})
        args = dict(attrs)
        pid, tid = lane(attrs)
        if r["kind"] == "span":
            args["_repro"] = {
                "kind": "span",
                "id": r["id"],
                "parent": r.get("parent"),
                "seq": r["seq"],
                "start": r["start"],
                "end": r["end"],
            }
            events.append(
                {
                    "name": r["name"],
                    "cat": "span",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": r["start"] * _TICK_US,
                    "dur": (r["end"] - r["start"]) * _TICK_US,
                    "args": args,
                }
            )
        else:
            args["_repro"] = {
                "kind": "event",
                "id": r["id"],
                "span": r.get("span"),
                "seq": r["seq"],
                "time": r["time"],
            }
            events.append(
                {
                    "name": r["name"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": r["time"] * _TICK_US,
                    "args": args,
                }
            )
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": group},
        }
        for group, pid in processes.items()
        if len(processes) > 1  # a lone process needs no name row
    ] + [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": processes[group],
            "tid": tid,
            "args": {"name": thread},
        }
        for (group, thread), tid in lanes.items()
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    records: Iterable[Dict[str, Any]], path: str
) -> Dict[str, Any]:
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
    records = TraceRecords()
    for event in data.get("traceEvents", ()):
        if event.get("ph") == "M":
            continue
        args = event.get("args") or {}
        stash = args.get("_repro")
        if not isinstance(stash, dict):
            records.skipped += 1
            continue
        attrs = {k: v for k, v in args.items() if k != "_repro"}
        if stash.get("kind") == "span":
            records.append(
                {
                    "kind": "span",
                    "id": stash["id"],
                    "parent": stash.get("parent"),
                    "name": event["name"],
                    "start": stash["start"],
                    "end": stash["end"],
                    "attrs": attrs,
                    "seq": stash["seq"],
                }
            )
        else:
            records.append(
                {
                    "kind": "event",
                    "id": stash["id"],
                    "span": stash.get("span"),
                    "name": event["name"],
                    "time": stash["time"],
                    "attrs": attrs,
                    "seq": stash["seq"],
                }
            )
    records.sort(key=lambda r: r["seq"])
    return records


# ---------------------------------------------------------------------------
# cluster analytics
# ---------------------------------------------------------------------------


def replication_lag_timeline(
    records: Iterable[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Replication lag over time, per ``"shard:replica"`` stream.

    Every ``repl.ship`` span is one sample: at ``time`` (the ship tick) the
    replica was ``lag`` entries behind its primary and a batch of ``count``
    entries left from log offset ``offset``.  Samples come back in ship
    order, so plotting ``time`` against ``lag`` is the replication-lag
    timeline the Perfetto tracks show.
    """
    timeline: Dict[str, List[Dict[str, Any]]] = {}
    for r in sorted(records, key=lambda r: r["seq"]):
        if r.get("kind") != "span" or r.get("name") != "repl.ship":
            continue
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


def twopc_summary(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Cross-shard 2PC outcomes and in-doubt durations from the trace.

    Pairs each global transaction's ``2pc.prepare`` span (first attempt)
    with its ``2pc.decide`` span; the **in-doubt duration** is prepare
    start to decide end — the window in which a coordinator crash would
    leave participants blocked on the outcome.  Returns outcome counts,
    duration percentiles and the per-transaction table (decide-less
    transactions report ``in_doubt=None``: still pending at trace end).
    """
    prepares: Dict[Any, Dict[str, Any]] = {}
    decides: Dict[Any, Dict[str, Any]] = {}
    for r in sorted(records, key=lambda r: r["seq"]):
        if r.get("kind") != "span":
            continue
        tid = r.get("attrs", {}).get("tid")
        if r["name"] == "2pc.prepare":
            prepares.setdefault(tid, r)
        elif r["name"] == "2pc.decide":
            decides.setdefault(tid, r)
    transactions: List[Dict[str, Any]] = []
    durations: List[float] = []
    outcomes: Dict[str, int] = {}
    for tid in sorted(prepares):
        prepare = prepares[tid]
        decide = decides.get(tid)
        outcome = (
            decide["attrs"].get("outcome") if decide is not None else None
        )
        in_doubt = (
            decide["end"] - prepare["start"] if decide is not None else None
        )
        if in_doubt is not None:
            durations.append(in_doubt)
        outcomes[str(outcome)] = outcomes.get(str(outcome), 0) + 1
        transactions.append(
            {
                "tid": tid,
                "outcome": outcome,
                "prepared_at": prepare["start"],
                "decided_at": decide["end"] if decide is not None else None,
                "in_doubt": in_doubt,
                "participants": prepare["attrs"].get("participants"),
            }
        )
    summary: Dict[str, Any] = {
        "transactions": len(transactions),
        "outcomes": outcomes,
        "per_txn": transactions,
    }
    if durations:
        summary["in_doubt_ticks"] = {
            "count": len(durations),
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "max": max(durations),
        }
    return summary


def cluster_summary(
    records: Iterable[Dict[str, Any]],
    *,
    result: Optional[object] = None,
) -> Optional[Dict[str, Any]]:
    """The :class:`RunReport` "Cluster" section: per-shard request latency
    and outcomes, replication-lag percentiles per replica stream,
    cross-shard 2PC in-doubt durations, and the session-guarantee
    violation tally.  ``None`` when the trace carries no cluster signal
    (no shard-attributed spans and no cluster on the result)."""
    records = list(records)
    shards: Dict[int, Dict[str, Any]] = {}
    for r in records:
        if r.get("kind") != "span" or r.get("name") != "server.handle":
            continue
        attrs = r.get("attrs", {})
        shard = attrs.get("shard")
        if not isinstance(shard, int):
            continue
        row = shards.setdefault(
            shard, {"requests": 0, "busy": 0, "durations": []}
        )
        row["requests"] += 1
        if attrs.get("outcome") == "busy":
            row["busy"] += 1
        row["durations"].append(r["end"] - r["start"])
    shard_rows: List[Dict[str, Any]] = []
    for shard in sorted(shards):
        row = shards[shard]
        durations = row.pop("durations")
        shard_rows.append(
            {
                "shard": shard,
                **row,
                "p50": percentile(durations, 50) if durations else None,
                "p95": percentile(durations, 95) if durations else None,
            }
        )
    cluster = getattr(result, "cluster", None) if result is not None else None
    if cluster is not None:
        by_index = {row["shard"]: row for row in shard_rows}
        for state in cluster.snapshot()["shards"]:
            row = by_index.get(state["shard"])
            if row is None:
                row = {"shard": state["shard"]}
                shard_rows.append(row)
            for key in ("commits", "certification_lag", "up"):
                row[key] = state[key]
        shard_rows.sort(key=lambda row: row["shard"])
    lag_rows: List[Dict[str, Any]] = []
    for key, samples in replication_lag_timeline(records).items():
        lags = [s["lag"] for s in samples]
        lag_rows.append(
            {
                "stream": key,
                "batches": len(samples),
                "p50": percentile(lags, 50),
                "p95": percentile(lags, 95),
                "max": max(lags),
                "final_offset": samples[-1]["offset"],
            }
        )
    two_pc = twopc_summary(records)
    violations: Dict[str, int] = {}
    witnessed = (
        getattr(result, "session_violations", ()) if result is not None else ()
    ) or [
        r.get("attrs", {})
        for r in records
        if r.get("kind") == "event" and r.get("name") == "session.violation"
    ]
    for violation in witnessed:
        kind = str(violation.get("kind"))
        violations[kind] = violations.get(kind, 0) + 1
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
        return {
            "title": self.title,
            "config": self.config,
            "summary": self.summary,
            "latencies": self.latencies,
            "contention": self.contention,
            "phenomena": self.phenomena,
            "metrics": self.metrics,
            "trace_stats": self.trace_stats,
            "capacity": self.capacity,
            "cluster": self.cluster,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        lines: List[str] = [f"# Run report — {self.title}", ""]
        if self.config:
            lines += ["## Fault schedule and configuration", ""]
            lines += _kv_table(_flatten(self.config))
            lines.append("")
        if self.summary:
            lines += ["## Outcome", ""]
            lines += _kv_table(self.summary)
            lines.append("")
        if self.capacity:
            lines += _capacity_markdown(self.capacity)
        if self.cluster:
            lines += _cluster_markdown(self.cluster)
        lines += ["## Logical latency by verb (ticks)", ""]
        if self.latencies:
            lines.append(
                "| verb | count | p50 | p95 | p99 | mean | max |"
            )
            lines.append("|---|---|---|---|---|---|---|")
            for verb, s in self.latencies.items():
                lines.append(
                    f"| {verb} | {s['count']} | {_fmt(s['p50'])} "
                    f"| {_fmt(s['p95'])} | {_fmt(s['p99'])} "
                    f"| {s['mean']:.1f} | {_fmt(s['max'])} |"
                )
        else:
            lines.append("no request spans in the trace.")
        lines.append("")
        lines += ["## Top contended objects", ""]
        if self.contention:
            lines.append("| object | busy replies | lock blocks | wait ticks |")
            lines.append("|---|---|---|---|")
            for row in self.contention[:10]:
                lines.append(
                    f"| {row['obj']} | {int(row['busy_replies'])} "
                    f"| {int(row['lock_blocks'])} | {_fmt(row['wait_ticks'])} |"
                )
        else:
            lines.append("no contention observed.")
        lines.append("")
        lines += ["## Phenomena", ""]
        if self.phenomena:
            for p in self.phenomena:
                name = p.get("phenomenon", "?")
                lines.append(
                    f"### {name} (latched at event {p.get('at_event', '?')})"
                )
                lines.append("")
                for edge in p.get("cycle", []):
                    lines.append(f"- {edge.get('describe', edge)}")
                for witness in p.get("witnesses", []):
                    lines.append(
                        f"- {witness.get('phenomenon')}: "
                        f"{witness.get('description')}"
                    )
                events = p.get("events")
                if events:
                    lines.append(
                        "- witness events: "
                        + ", ".join(
                            f"`{e['event']}` (#{e['index']})" for e in events
                        )
                    )
                lines.append("")
        else:
            lines += ["none latched.", ""]
        if self.metrics:
            lines += ["## Metrics", ""]
            lines.append("| metric | labels | value |")
            lines.append("|---|---|---|")
            for name in sorted(self.metrics):
                inst = self.metrics[name]
                for series in inst.get("series", []):
                    labels = ", ".join(
                        f"{k}={v}" for k, v in sorted(series["labels"].items())
                    )
                    if "value" in series:
                        value = _fmt(series["value"])
                    else:
                        value = (
                            f"count={series['count']} sum={_fmt(series['sum'])}"
                        )
                    lines.append(f"| {name} | {labels} | {value} |")
            lines.append("")
        if self.trace_stats:
            lines += ["## Trace", ""]
            lines += _kv_table(self.trace_stats)
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


def _cluster_markdown(cluster: Dict[str, Any]) -> List[str]:
    """Render the Cluster section: per-shard table, replication lag,
    2PC in-doubt durations, session-guarantee violations."""
    lines: List[str] = ["## Cluster", ""]
    shard_rows = cluster.get("shards") or []
    if shard_rows:
        lines.append(
            "| shard | requests | p50 | p95 | busy | commits "
            "| certification lag | up |"
        )
        lines.append("|---|---|---|---|---|---|---|---|")
        for row in shard_rows:
            lines.append(
                f"| {row['shard']} | {row.get('requests', 0)} "
                f"| {_fmt_opt(row.get('p50'))} | {_fmt_opt(row.get('p95'))} "
                f"| {row.get('busy', 0)} | {_fmt_opt(row.get('commits'))} "
                f"| {_fmt_opt(row.get('certification_lag'))} "
                f"| {row.get('up', '-')} |"
            )
        lines.append("")
    lag_rows = cluster.get("replication") or []
    if lag_rows:
        lines += ["### Replication lag (entries behind primary, per batch)", ""]
        lines.append("| stream | batches | p50 | p95 | max | final offset |")
        lines.append("|---|---|---|---|---|---|")
        for row in lag_rows:
            lines.append(
                f"| {row['stream']} | {row['batches']} | {_fmt(row['p50'])} "
                f"| {_fmt(row['p95'])} | {_fmt(row['max'])} "
                f"| {_fmt_opt(row['final_offset'])} |"
            )
        lines.append("")
    two_pc = cluster.get("two_pc") or {}
    if two_pc.get("transactions"):
        lines += ["### Cross-shard 2PC", ""]
        outcomes = ", ".join(
            f"{k}={v}" for k, v in sorted(two_pc["outcomes"].items())
        )
        lines.append(
            f"{two_pc['transactions']} global transactions ({outcomes})."
        )
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
        pending = [
            t for t in two_pc.get("per_txn", []) if t["in_doubt"] is None
        ]
        if longest:
            lines.append("| gid | outcome | prepared at | in-doubt ticks |")
            lines.append("|---|---|---|---|")
            for txn in longest:
                lines.append(
                    f"| {txn['tid']} | {txn['outcome']} "
                    f"| {_fmt(txn['prepared_at'])} "
                    f"| {_fmt(txn['in_doubt'])} |"
                )
            lines.append("")
        if pending:
            lines.append(
                "Still in doubt at trace end: "
                + ", ".join(str(t["tid"]) for t in pending)
                + "."
            )
            lines.append("")
    violations = cluster.get("session_violations") or {}
    lines += ["### Session-guarantee violations", ""]
    if violations:
        lines.append("| kind | count |")
        lines.append("|---|---|")
        for kind in sorted(violations):
            lines.append(f"| {kind} | {violations[kind]} |")
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
        lines.append(
            "| offered rate | offered | committed | completion | "
            "commits/ktick | p50 | p99 | shed | aborts | max queue | SLOs |"
        )
        lines.append("|---|---|---|---|---|---|---|---|---|---|---|")
        for rung in ladder:
            lines.append(
                f"| {rung['rate']:g} | {rung['offered']} "
                f"| {rung['committed']} | {rung['completion_ratio']:.0%} "
                f"| {rung['throughput_per_kilotick']:g} "
                f"| {_fmt_opt(rung['p50'])} | {_fmt_opt(rung['p99'])} "
                f"| {rung['shed']} | {rung['aborted']} "
                f"| {rung['max_queue_depth']} "
                f"| {'ok' if rung['slos_ok'] else 'VIOLATED'} |"
            )
        lines.append("")
    slo_names = [s["name"] for s in (ladder[0]["slos"] if ladder else [])]
    if slo_names:
        lines += ["### SLO verdicts", ""]
        header = "| offered rate | " + " | ".join(slo_names) + " |"
        lines.append(header)
        lines.append("|---" * (len(slo_names) + 1) + "|")
        for rung in ladder:
            cells = []
            for status in rung["slos"]:
                if status["ok"]:
                    cells.append("ok")
                else:
                    cells.append(f"violated@t={status['violated_at']}")
            lines.append(
                f"| {rung['rate']:g} | " + " | ".join(cells) + " |"
            )
        lines.append("")
    heatmap = capacity.get("heatmap") or {}
    if heatmap.get("objects"):
        lines += ["### Contention heatmap (wait ticks by object × rate)", ""]
        rates = heatmap["rates"]
        lines.append(
            "| object | " + " | ".join(f"{r:g}" for r in rates) + " |"
        )
        lines.append("|---" * (len(rates) + 1) + "|")
        for obj, row in zip(heatmap["objects"], heatmap["wait_ticks"]):
            lines.append(
                f"| {obj} | " + " | ".join(_fmt(v) for v in row) + " |"
            )
        lines.append("")
    return lines


def _fmt_opt(value: Optional[float]) -> str:
    return "-" if value is None else _fmt(value)


def _flatten(mapping: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def _kv_table(mapping: Dict[str, Any]) -> List[str]:
    lines = ["| key | value |", "|---|---|"]
    for key in mapping:
        lines.append(f"| {key} | {mapping[key]} |")
    return lines


def build_run_report(
    records: Optional[Iterable[Dict[str, Any]]] = None,
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
    outcome summary, config and metrics when not given explicitly);
    ``metrics`` is a :class:`~repro.observability.MetricsRegistry` or an
    already-snapshotted dict.
    """
    if records is None and result is not None:
        tracer = getattr(result, "tracer", None)
        records = getattr(tracer, "records", None)
    skipped = getattr(records, "skipped", 0) if records is not None else 0
    records = list(records) if records is not None else []
    if config is None and result is not None:
        config = getattr(result, "config", None)
    summary: Dict[str, Any] = {}
    if result is not None:
        certification = getattr(result, "certification", {})
        summary = {
            "committed transactions": result.committed,
            "client-visible aborts": result.client_aborts,
            "logical ticks": result.ticks,
            "messages sent/dropped/duplicated": (
                f"{result.network_counters['sent']}"
                f"/{result.network_counters['dropped']}"
                f"/{result.network_counters['duplicated']}"
            ),
            "server crashes/restarts": f"{result.crashes}/{result.restarts}",
            "deadlock victims": result.deadlock_victims,
            "busy replies": result.server_counters["busy"],
            "dedup cache hits": result.server_counters["dedup_hits"],
            "client retries/timeouts": (
                f"{result.client_stats['retries']}"
                f"/{result.client_stats['timeouts']}"
            ),
            "strongest level (live)": str(result.strongest_level() or "none"),
            "certification": (
                f"all {len(certification)} commits certified"
                if result.all_certified
                else "FAILED for tids "
                + ", ".join(
                    str(t) for t, (_l, ok) in certification.items() if not ok
                )
            ),
        }
    if metrics is None and result is not None:
        metrics = getattr(result, "metrics", None)
    snapshot = (
        metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    )
    phenomena = [
        dict(r.get("attrs", {}))
        for r in records
        if r.get("kind") == "event" and r.get("name") == "phenomenon"
    ]
    trace_stats: Dict[str, Any] = {}
    if records:
        spans = sum(1 for r in records if r.get("kind") == "span")
        trace_ids = {
            r["attrs"]["trace_id"]
            for r in records
            if r.get("kind") == "span"
            and r.get("attrs", {}).get("trace_id") is not None
        }
        trace_stats = {
            "records": len(records),
            "spans": spans,
            "events": len(records) - spans,
            "traces": len(trace_ids),
        }
        if skipped:
            trace_stats["skipped lines"] = skipped
    return RunReport(
        title=title,
        config=dict(config or {}),
        summary=summary,
        latencies=verb_latencies(records),
        contention=contention_summary(records),
        phenomena=phenomena,
        metrics=snapshot,
        trace_stats=trace_stats,
        capacity=capacity,
        cluster=cluster_summary(records, result=result),
    )
