"""Extension-level phenomena from Adya's thesis (paper Sections 1 and 6).

The paper's approach "can be used to define additional levels as well,
including commercial levels such as Cursor Stability, and Oracle's Snapshot
Isolation ... and new levels; for example ... PL-2+".  This module implements
the thesis phenomena behind those levels:

* **G-single** (level PL-2+): the DSG contains a cycle with *exactly one*
  anti-dependency edge.  PL-2+ is the weakest level guaranteeing consistent
  reads; read skew is its canonical violation.
* **G-SIa / G-SIb** (level PL-SI, Snapshot Isolation):

  - *G-SIa, interference*: the DSG contains a read- or write-dependency edge
    ``T_i -> T_j`` without a corresponding start-dependency edge — ``T_j``
    observed or overwrote ``T_i`` without having started after ``T_i``
    committed.
  - *G-SIb, missed effects*: the start-ordered serialization graph
    :class:`~repro.core.ssg.SSG` contains a cycle with exactly one
    anti-dependency edge.  (Write skew — two anti-dependency edges — is
    deliberately *not* caught: snapshot isolation permits it.)

* **G-SS** (level PL-SS, strict serializability): the start-ordered
  serialization graph contains a cycle with at least one anti-dependency or
  start-dependency edge — either a plain serializability violation or a
  serialization order that contradicts real time (a transaction that began
  after another committed yet serializes before it).  Pure dependency
  cycles are already G1c, so PL-SS = G1 + G-SS proscribed.

* **G-cursor** (level PL-CS, Cursor Stability): the DSG contains a cycle with
  exactly one anti-dependency edge, where that edge arises from a *cursor
  read* of some object ``x`` and the cycle also contains a write-dependency
  edge on ``x`` — the classical lost update on the cursor.  Reads are marked
  as cursor reads via ``rcI(...)`` in the notation or ``cursor=True`` on
  :class:`~repro.core.events.Read`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from . import graph as _g
from .conflicts import DEPENDENCY, DepKind
from .dsg import Cycle
from .phenomena import Phenomenon, PhenomenonReport, Witness
from .ssg import SSG

if TYPE_CHECKING:  # pragma: no cover
    from .phenomena import Analysis

__all__ = ["detect_extension"]


def detect_extension(analysis: "Analysis", phenomenon: Phenomenon) -> PhenomenonReport:
    """Dispatch for the extension phenomena (called from ``Analysis``)."""
    if phenomenon is Phenomenon.G_SINGLE:
        return _g_single(analysis)
    if phenomenon is Phenomenon.G_SIA:
        return _g_sia(analysis)
    if phenomenon is Phenomenon.G_SIB:
        return _g_sib(analysis)
    if phenomenon is Phenomenon.G_SI:
        parts = [
            analysis.report(Phenomenon.G_SIA),
            analysis.report(Phenomenon.G_SIB),
        ]
        return PhenomenonReport(
            Phenomenon.G_SI,
            any(parts),
            tuple(w for r in parts for w in r.witnesses),
        )
    if phenomenon is Phenomenon.G_CURSOR:
        return _g_cursor(analysis)
    if phenomenon is Phenomenon.G_SS:
        return _g_ss(analysis)
    raise ValueError(f"not an extension phenomenon: {phenomenon}")


def _cycle_report(
    phenomenon: Phenomenon, cycle: Optional[Cycle], what: str
) -> PhenomenonReport:
    if cycle is None:
        return PhenomenonReport(phenomenon, False)
    detail = "; ".join(e.describe() for e in cycle.edges)
    return PhenomenonReport(
        phenomenon,
        True,
        (Witness(f"{what}: {cycle.describe()} ({detail})", cycle),),
    )


def _g_single(analysis: "Analysis") -> PhenomenonReport:
    cycle = analysis.dsg.find_cycle_with(
        special=lambda e: e.kind is DepKind.RW,
        keep=lambda e: True,
        exactly_one=True,
    )
    return _cycle_report(
        Phenomenon.G_SINGLE, cycle, "cycle with exactly one anti-dependency edge"
    )


def _g_sia(analysis: "Analysis") -> PhenomenonReport:
    history = analysis.history
    ssg = _ssg(analysis)
    witnesses = []
    for edge in analysis.dsg.edges:
        if edge.kind in (DepKind.WW, DepKind.WR) and not ssg.start_edge(
            edge.src, edge.dst
        ):
            witnesses.append(
                Witness(
                    f"interference: {edge.describe()}, but T{edge.src} did not "
                    f"commit before T{edge.dst} started"
                )
            )
    return PhenomenonReport(Phenomenon.G_SIA, bool(witnesses), tuple(witnesses))


def _g_sib(analysis: "Analysis") -> PhenomenonReport:
    ssg = _ssg(analysis)
    cycle = ssg.find_cycle_with(
        special=lambda e: e.kind is DepKind.RW,
        keep=lambda e: True,
        exactly_one=True,
    )
    return _cycle_report(
        Phenomenon.G_SIB,
        cycle,
        "missed effects: SSG cycle with exactly one anti-dependency edge",
    )


def _g_ss(analysis: "Analysis") -> PhenomenonReport:
    ssg = _ssg(analysis)
    cycle = ssg.find_cycle_with(
        special=lambda e: e.kind in (DepKind.RW, DepKind.SO),
        keep=lambda e: True,
    )
    return _cycle_report(
        Phenomenon.G_SS,
        cycle,
        "real-time violation: SSG cycle with an anti- or start-dependency edge",
    )


def _ssg(analysis: "Analysis") -> SSG:
    cached = getattr(analysis, "_ssg_cache", None)
    if cached is None:
        # Reuse the analysis's already-extracted conflict rows; the SSG only
        # adds the start-dependency edges on top.
        cached = SSG(analysis.history, analysis.mode, edges=analysis._table)
        analysis._ssg_cache = cached
    return cached


def _g_cursor(analysis: "Analysis") -> PhenomenonReport:
    """Lost update through a cursor: for each cursor-read item
    anti-dependency edge on ``x``, look for a dependency path back that
    passes through a write-dependency on ``x``."""
    dsg = analysis.dsg
    for anti in dsg.edges:
        if anti.kind is not DepKind.RW or anti.via_predicate or not anti.cursor:
            continue
        for ww in dsg.edges:
            if ww.kind is not DepKind.WW or ww.obj != anti.obj:
                continue
            first = _dep_path(dsg, anti.dst, ww.src)
            if first is None:
                continue
            second = _dep_path(dsg, ww.dst, anti.src)
            if second is None:
                continue
            try:
                cycle = Cycle((anti, *first, ww, *second))
            except ValueError:
                continue
            return _cycle_report(
                Phenomenon.G_CURSOR,
                cycle,
                f"lost cursor update on {anti.obj!r}",
            )
    return PhenomenonReport(Phenomenon.G_CURSOR, False)


def _dep_path(dsg, src: int, dst: int):
    """Shortest path of dependency (ww/wr) edges, or ``None``."""
    rows = _g.shortest_edge_path(dsg._view(DEPENDENCY), src, dst)
    return None if rows is None else map(dsg._table.edge, rows)
