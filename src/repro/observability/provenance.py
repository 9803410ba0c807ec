"""Phenomenon provenance: *why* a phenomenon latched, as trace events.

When an online :class:`~repro.core.incremental.IncrementalAnalysis` proves
a phenomenon present mid-run, the verdict alone ("G2 is now exhibited") is
not actionable — the operator needs the witness: which DSG cycle closed,
through which conflict edges, backed by which raw history events.  This
module derives that witness from the incremental state at latch time and
emits it as a structured **provenance event** through a
:class:`~repro.observability.trace.Tracer`:

    {"kind": "event", "name": "phenomenon", "attrs": {
        "phenomenon": "G2",
        "cycle": [{"src": 1, "dst": 2, "kind": "rw", "obj": "x", ...}, ...],
        "events": [{"index": 4, "tid": 2, "event": "w2(x2)"}, ...]}}

Wire-up is through the two existing hooks: build the analysis with
``watch=`` and ``on_phenomenon=phenomenon_hook(tracer)`` (or call
:func:`watching_analysis`, which does both) and attach it as the engine's
``monitor=``; phenomena then latch — and narrate themselves — while the
workload runs.

The witness is the batch checker's: the online checker keeps its edges as
the rows of an :class:`~repro.core.conflicts.EdgeTable`, and
:func:`repro.core.dsg.view_witness` asks the phenomenon's view of that table,
in place, what :class:`~repro.core.phenomena.Analysis` asks of a history;
only the witness's rows become :class:`Edge` objects.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import graph as _g
from ..core.conflicts import DepKind, Edge
from ..core.dsg import view_adjacency, view_witness
from ..core.events import PredicateRead
from ..core.incremental import IncrementalAnalysis
from ..core.phenomena import VIEW_OF, Phenomenon

from .trace import Tracer

__all__ = [
    "witness_cycle",
    "provenance_record",
    "phenomenon_hook",
    "watching_analysis",
]

def witness_cycle(
    analysis: IncrementalAnalysis, phenomenon: Phenomenon
) -> Optional[List[Edge]]:
    """A concrete DSG cycle witnessing a (latched) cycle phenomenon, as a
    chained edge list, or ``None`` when the phenomenon has no cycle witness
    (not present, or a G1a/G1b-style read phenomenon)."""
    view = VIEW_OF.get(phenomenon)
    if view is None:
        return None
    table = analysis._table
    adj = view_adjacency(table, view)
    rows = view_witness(
        table, view, adj, lambda: _g.strongly_connected_components(adj)
    )
    return None if rows is None else [table.edge(row) for row in rows]


def _edge_dict(edge: Edge) -> Dict[str, Any]:
    return {
        "src": edge.src,
        "dst": edge.dst,
        "kind": str(edge.kind),
        "obj": edge.obj,
        "version": str(edge.version) if edge.version else None,
        "predicate": str(edge.predicate) if edge.predicate else None,
        "cursor": edge.cursor,
        "describe": edge.describe(),
    }


def _supporting_events(
    analysis: IncrementalAnalysis, cycle: List[Edge]
) -> List[Dict[str, Any]]:
    """The raw history events behind each witness edge: the installing
    write, the reads of the conflicting version, and any predicate reads
    the edge quantifies over."""
    index_of = {id(ev): i for i, ev in enumerate(analysis.events)}
    picked: Dict[int, Any] = {}

    def take(ev: Any) -> None:
        i = index_of.get(id(ev))
        if i is not None:
            picked.setdefault(i, ev)

    for edge in cycle:
        if edge.version is not None:
            write = analysis.write_of(edge.version)
            if write is not None:
                take(write)
            for read in analysis.reads_of_version(edge.version):
                if read.tid in (edge.src, edge.dst):
                    take(read)
        if edge.kind is DepKind.RW and not edge.via_predicate:
            # The read the installer overwrote: src's reads of the object.
            for read in analysis.reads_of_tid(edge.src):
                if read.version.obj == edge.obj:
                    take(read)
        if edge.predicate is not None:
            # Predicates are equal by name and relations; the edge holds the
            # first equal object the online checker saw, not necessarily
            # the one this reader's event carries.
            reader = edge.src if edge.kind is DepKind.RW else edge.dst
            if edge.predicate in analysis.predicates_read_by(reader):
                for i, ev in enumerate(analysis.events):
                    if (
                        isinstance(ev, PredicateRead)
                        and ev.tid == reader
                        and ev.predicate == edge.predicate
                    ):
                        picked.setdefault(i, ev)
    return [
        {"index": i, "tid": ev.tid, "event": str(ev)}
        for i, ev in sorted(picked.items())
    ]


def provenance_record(
    analysis: IncrementalAnalysis, phenomenon: Phenomenon
) -> Dict[str, Any]:
    """The provenance payload for one latched phenomenon: the witness
    cycle's edges and the raw events behind them (cycle phenomena), or the
    offending reads (G1a/G1b), plus the latch position."""
    record: Dict[str, Any] = {
        "phenomenon": str(phenomenon),
        "at_event": len(analysis.events) - 1,
        "events_consumed": len(analysis.events),
    }
    cycle = witness_cycle(analysis, phenomenon)
    if cycle is not None:
        record["cycle"] = [_edge_dict(e) for e in cycle]
        record["cycle_tids"] = [e.src for e in cycle]
        record["events"] = _supporting_events(analysis, cycle)
        return record
    if phenomenon in (Phenomenon.G1A, Phenomenon.G1B, Phenomenon.G1):
        for sub in (Phenomenon.G1A, Phenomenon.G1B):
            report = analysis.report(sub)
            if report.present:
                record.setdefault("witnesses", []).extend(
                    {"phenomenon": str(sub), "description": str(w), "tid": w.tid}
                    for w in report.witnesses
                )
        if phenomenon is Phenomenon.G1 and "witnesses" not in record:
            # G1 latched through its G1c component.
            cycle = witness_cycle(analysis, Phenomenon.G1C)
            if cycle is not None:
                record["cycle"] = [_edge_dict(e) for e in cycle]
                record["cycle_tids"] = [e.src for e in cycle]
                record["events"] = _supporting_events(analysis, cycle)
    return record


def phenomenon_hook(
    tracer: Tracer,
    *,
    also: Optional[Callable[[Phenomenon, IncrementalAnalysis], None]] = None,
) -> Callable[[Phenomenon, IncrementalAnalysis], None]:
    """An ``on_phenomenon=`` callback that emits a provenance event through
    ``tracer`` each time a watched phenomenon latches; ``also`` chains a
    second callback after the event is recorded."""

    def hook(phenomenon: Phenomenon, analysis: IncrementalAnalysis) -> None:
        tracer.event("phenomenon", **provenance_record(analysis, phenomenon))
        if also is not None:
            also(phenomenon, analysis)

    return hook


#: Phenomena a provenance monitor watches by default — the concrete ones
#: (G1 is their union and would only duplicate the latch events).
DEFAULT_WATCH: Tuple[Phenomenon, ...] = (
    Phenomenon.G0,
    Phenomenon.G1A,
    Phenomenon.G1B,
    Phenomenon.G1C,
    Phenomenon.G2_ITEM,
    Phenomenon.G2,
)


def watching_analysis(
    tracer: Tracer,
    *,
    watch: Tuple[Phenomenon, ...] = DEFAULT_WATCH,
    on_phenomenon: Optional[Callable[[Phenomenon, IncrementalAnalysis], None]] = None,
    **kwargs: Any,
) -> IncrementalAnalysis:
    """An :class:`IncrementalAnalysis` pre-wired to narrate phenomenon
    provenance through ``tracer`` — pass it as the engine's ``monitor=``."""
    return IncrementalAnalysis(
        watch=watch,
        on_phenomenon=phenomenon_hook(tracer, also=on_phenomenon),
        **kwargs,
    )
