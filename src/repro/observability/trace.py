"""Structured tracing: spans and events as JSONL records.

A :class:`Tracer` narrates an execution as a tree of **spans** (run →
transaction → operation; check → extraction pass → cycle search) with
point-in-time **events** attached to them.  Records are plain dicts:

span record (emitted when the span closes)::

    {"kind": "span", "id": 3, "parent": 1, "name": "txn",
     "start": 0.01, "end": 0.04, "seq": 7, "attrs": {...}}

event record (emitted immediately)::

    {"kind": "event", "id": 9, "span": 3, "name": "deadlock",
     "time": 0.02, "seq": 5, "attrs": {...}}

``seq`` is a monotone emission sequence number — the total order of the
trace, unaffected by clock resolution.  ``id`` values are assigned at span
*open*, so events always name their parent span even though the parent's
record is written later; reconstruction (:func:`span_tree`) is order
independent.

Sinks are attachable: any callable taking one record dict.  The bundled
:class:`JsonlSink` appends one JSON line per record to a file;
:func:`read_trace` parses the file back.  Without a sink, records
accumulate in memory (:attr:`Tracer.records`).

Attribute values are sanitised to JSON-compatible types **once, at
emission** (:class:`~repro.core.objects.Version`, edges, predicates and
events render through ``str``), so a trace is always serialisable.  A
record is built once: exact ``None``/``bool``/``int``/``float``/``str``
values are not copied, and a record whose attrs are all such scalars keeps
the very dict the caller's keywords arrived in.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, IO, Iterable, Iterator, List, Optional, Union,
)

__all__ = [
    "Tracer",
    "Span",
    "JsonlSink",
    "TraceRecords",
    "read_trace",
    "span_tree",
]


def _jsonable(value: Any) -> Any:
    """Coerce arbitrary attribute values to JSON-compatible structures."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_jsonable(v) for v in items]
    return str(value)


#: Exact types :func:`_jsonable` returns as they are.  (It also returns
#: instances of their subclasses unchanged; those take the slow path.)
_SCALARS = frozenset({type(None), bool, int, float, str})


def _sanitised(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """``attrs`` as :func:`_jsonable` would render it, built at most once.

    Keys arrive as keywords, so they are ``str`` already.  Exact scalars —
    all but a handful of attrs — need no work, and a dict holding nothing
    else is returned as it is; a flat list or tuple of scalars is copied
    with ``list``; anything else (sets, nested containers, enums,
    ``Version``/edge objects) goes through :func:`_jsonable`.  The first
    value that has to be replaced copies the dict, so the caller's own is
    never modified."""
    out = attrs
    scalars = _SCALARS
    for key, value in attrs.items():
        kind = type(value)
        if kind in scalars:
            continue
        if (kind is list or kind is tuple) and scalars.issuperset(
            map(type, value)
        ):
            value = list(value)
        else:
            value = _jsonable(value)
        if out is attrs:
            out = dict(attrs)
        out[key] = value
    return out


class Span:
    """One open span; close it with :meth:`end` or use it as a context
    manager.  More attributes can be attached any time before closing.

    After the close the record is out: a second :meth:`end` is a no-op, a
    late :meth:`set` changes :attr:`attrs` but never the emitted record,
    and :meth:`event` still emits an event parented to this span's id."""

    __slots__ = (
        "_tracer", "id", "parent", "name", "start", "attrs", "_open",
        "_stacked",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent: Optional[int],
        name: str,
        attrs: Dict[str, Any],
        stacked: bool,
    ):
        self._tracer = tracer
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = tracer._clock() - tracer._epoch
        self.attrs = attrs
        self._open = True
        #: On the tracer's implicit nesting stack (``stack=True``).
        self._stacked = stacked

    def set(self, **attrs: Any) -> "Span":
        if self._open:
            self.attrs.update(attrs)
        else:
            # The emitted record may hold this very dict: leave it alone.
            self.attrs = {**self.attrs, **attrs}
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Emit an event parented to this span."""
        self._tracer.event(name, span=self, **attrs)

    def end(self, **attrs: Any) -> None:
        """Close the span and emit its record; closing twice is a no-op
        (the second call's ``attrs`` are dropped)."""
        if not self._open:
            return
        self._open = False
        if attrs:
            self.attrs.update(attrs)
        self._tracer._close_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.attrs.setdefault("error", repr(exc))
        self.end()


class Tracer:
    """Span/event emitter with an attachable sink.

    ``sink`` is any callable taking one record dict; ``None`` keeps records
    in memory only.  ``clock`` defaults to :func:`time.perf_counter`
    rebased to the tracer's construction (traces start near ``t=0``).
    """

    def __init__(
        self,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._sink = sink
        self._clock = clock or time.perf_counter
        self._epoch = self._clock()
        self._next_id = 1
        self._seq = 0
        self._stack: List[int] = []  # open span ids, innermost last
        self.records: List[Dict[str, Any]] = []

    # -- internals -------------------------------------------------------

    def use_clock(
        self, clock: Callable[[], float], *, epoch: float = 0.0
    ) -> "Tracer":
        """Switch the time source, e.g. onto a logical tick clock.

        The service layer re-clocks its tracer onto the simulated network's
        tick counter (``tracer.use_clock(lambda: float(net.now))``) so span
        timestamps — and therefore whole traces — are deterministic under a
        fixed seed.  Timestamps from here on are ``clock() - epoch``."""
        self._clock = clock
        self._epoch = epoch
        return self

    def _close_span(self, span: Span) -> None:
        if span._stacked:
            stack = self._stack
            if stack and stack[-1] == span.id:
                stack.pop()
            elif span.id in stack:  # out-of-order close (interleaved spans)
                stack.remove(span.id)
        record = {
            "kind": "span",
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "start": span.start,
            "end": self._clock() - self._epoch,
            "attrs": _sanitised(span.attrs),
        }
        self._seq = record["seq"] = self._seq + 1
        self.records.append(record)
        if self._sink is not None:
            self._sink(record)

    # -- public API ------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        parent: Optional[Union[Span, int]] = None,
        stack: bool = True,
        **attrs: Any,
    ) -> Span:
        """Open a span.  With ``stack=True`` (default) the span joins the
        implicit nesting stack — later spans/events without an explicit
        ``parent`` nest under it.  Interleaved executions (the simulator's
        overlapping transactions) pass ``stack=False`` and wire parents
        explicitly."""
        span_id = self._next_id
        self._next_id += 1
        if parent is None:
            parent_id = self._stack[-1] if self._stack else None
        else:
            parent_id = parent.id if isinstance(parent, Span) else parent
        # ``attrs`` is this call's own keyword dict: the span keeps it.
        span = Span(self, span_id, parent_id, name, attrs, stack)
        if stack:
            self._stack.append(span_id)
        return span

    @contextmanager
    def nest(self, span: Span) -> Iterator[Span]:
        """Re-enter an open ``stack=False`` span: inside the block, spans
        and events without an explicit parent nest under it (work resumed
        on behalf of a span that was opened earlier, elsewhere)."""
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.remove(span.id)  # wherever interleaving left it

    def event(
        self,
        name: str,
        *,
        span: Optional[Union[Span, int]] = None,
        **attrs: Any,
    ) -> Dict[str, Any]:
        """Emit a point-in-time event (parent: explicit span, else the
        innermost open stacked span)."""
        if span is None:
            parent_id = self._stack[-1] if self._stack else None
        else:
            parent_id = span.id if isinstance(span, Span) else span
        span_id = self._next_id
        self._next_id += 1
        record = {
            "kind": "event",
            "id": span_id,
            "span": parent_id,
            "name": name,
            "time": self._clock() - self._epoch,
            "attrs": _sanitised(attrs),
        }
        self._seq = record["seq"] = self._seq + 1
        self.records.append(record)
        if self._sink is not None:
            self._sink(record)
        return record

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Emitted event records, optionally filtered by name."""
        return [
            r
            for r in self.records
            if r["kind"] == "event" and (name is None or r["name"] == name)
        ]

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Closed span records, optionally filtered by name."""
        return [
            r
            for r in self.records
            if r["kind"] == "span" and (name is None or r["name"] == name)
        ]


class JsonlSink:
    """Append one JSON line per record to a file (or writable handle)."""

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._handle = target
            self._owned = False

    def __call__(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TraceRecords(List[Dict[str, Any]]):
    """The records of one parsed trace — a plain ``list`` plus
    :attr:`skipped`, the number of lines :func:`read_trace` dropped:
    undecodable ones (a crash mid-write leaves a partial final line) and
    JSON values that are not a span or event record."""

    skipped: int = 0


def read_trace(
    source: Union[str, Iterable[str]], *, strict: bool = False
) -> TraceRecords:
    """Parse a trace back to records.

    ``source`` is a path or an iterable of JSONL lines.  A path may also
    name a Chrome trace-event JSON file written by
    :func:`~repro.observability.traceview.write_chrome_trace`; the export
    round-trips — the embedded records are reconstructed.

    Undecodable lines are **skipped, not fatal**: a crash mid-write leaves
    a truncated final line, and the rest of the trace must stay readable.
    So is a line that decodes to something other than a record (a dict
    whose ``kind`` is ``"span"`` or ``"event"``): the analytics index
    ``record["kind"]`` without asking again.  The returned
    :class:`TraceRecords` counts the drops in ``.skipped``; pass
    ``strict=True`` to raise ``ValueError`` instead.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
        if text.lstrip().startswith("{") and '"traceEvents"' in text:
            try:
                data = json.loads(text)
            except ValueError:
                data = None
            if isinstance(data, dict) and "traceEvents" in data:
                from .traceview import from_chrome_trace

                return from_chrome_trace(data)
        lines: Iterable[str] = text.splitlines()
    else:
        lines = list(source)
    records = TraceRecords()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not (
                isinstance(record, dict) and record.get("kind") in ("span", "event")
            ):
                raise ValueError(f"not a trace record: {line[:80]}")
        except ValueError:
            if strict:
                raise
            records.skipped += 1
        else:
            records.append(record)
    return records


def span_tree(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reconstruct the span tree from trace records.

    Returns the root nodes; every node is
    ``{"record": <span record>, "children": [...], "events": [...]}``,
    children and events ordered by emission sequence.  Events whose parent
    span record is missing (the span never closed — e.g. the trace was
    truncated by a crash) are not dropped: they attach to a synthetic
    ``"orphans"`` root appended after the real roots, so truncated traces
    stay inspectable.  The synthetic record has ``id: None`` and
    ``attrs: {"synthetic": true}``.
    """
    records = list(records)
    spans = {
        r["id"]: {"record": r, "children": [], "events": []}
        for r in records
        if r["kind"] == "span"
    }
    roots: List[Dict[str, Any]] = []
    for record in sorted(
        (r for r in records if r["kind"] == "span"), key=lambda r: r["seq"]
    ):
        node = spans[record["id"]]
        parent = record.get("parent")
        if parent is not None and parent in spans:
            spans[parent]["children"].append(node)
        else:
            roots.append(node)
    orphans: List[Dict[str, Any]] = []
    for record in sorted(
        (r for r in records if r["kind"] == "event"), key=lambda r: r["seq"]
    ):
        parent = record.get("span")
        if parent is not None and parent in spans:
            spans[parent]["events"].append(record)
        else:
            orphans.append(record)
    if orphans:
        times = [e["time"] for e in orphans]
        roots.append(
            {
                "record": {
                    "kind": "span",
                    "id": None,
                    "parent": None,
                    "name": "orphans",
                    "start": min(times),
                    "end": max(times),
                    "seq": max(e["seq"] for e in orphans),
                    "attrs": {"synthetic": True},
                },
                "children": [],
                "events": orphans,
            }
        )
    return roots
