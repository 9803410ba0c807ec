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

Each is a question over the rows of the graph's edge table and its cached
views, and only the rows of a witness become ``Edge`` objects.  G-single and
G-SIb are one routine (an anti-dependency row closed by a shortest path of
the ``DEPENDENCY`` view, where the SSG's start rows sit); G-SS closes the
first anti-dependency or start row of the SSG's full view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from . import graph as _g
from .conflicts import DEPENDENCY, FULL, WRITE, EdgeTable
from .dsg import DSG, Cycle
from .phenomena import Phenomenon, PhenomenonReport, Witness
from .ssg import starts_before

if TYPE_CHECKING:  # pragma: no cover
    from .phenomena import Analysis

__all__ = ["detect_extension"]


def detect_extension(analysis: "Analysis", phenomenon: Phenomenon) -> PhenomenonReport:
    """Dispatch for the extension phenomena (called from ``Analysis`` for
    every phenomenon it does not detect itself)."""
    if phenomenon is Phenomenon.G_SINGLE:
        return _cycle_report(
            Phenomenon.G_SINGLE,
            analysis.dsg.table,
            _single_anti(analysis.dsg),
            "cycle with exactly one anti-dependency edge",
        )
    if phenomenon is Phenomenon.G_SIA:
        return _g_sia(analysis)
    if phenomenon is Phenomenon.G_SIB:
        return _cycle_report(
            Phenomenon.G_SIB,
            analysis.ssg.table,
            _single_anti(analysis.ssg),
            "missed effects: SSG cycle with exactly one anti-dependency edge",
        )
    if phenomenon is Phenomenon.G_CURSOR:
        return _g_cursor(analysis)
    if phenomenon is Phenomenon.G_SS:
        return _g_ss(analysis)
    raise ValueError(f"unknown phenomenon {phenomenon}")


def _cycle_report(
    phenomenon: Phenomenon,
    table: EdgeTable,
    rows: Optional[Sequence[int]],
    what: str,
) -> PhenomenonReport:
    if rows is None:
        return PhenomenonReport(phenomenon, False)
    cycle = Cycle(tuple(map(table.edge, rows)))
    detail = "; ".join(e.describe() for e in cycle.edges)
    return PhenomenonReport(
        phenomenon,
        True,
        (Witness(f"{what}: {cycle.describe()} ({detail})", cycle),),
    )


def _single_anti(graph: DSG) -> Optional[List[int]]:
    """The first anti-dependency row closed by a shortest path of dependency
    rows: a cycle with exactly one anti-dependency edge."""
    table, dependency = graph.table, graph.view(DEPENDENCY)
    src, dst = table.src, table.dst
    for row, depth in enumerate(table.depth):
        if depth < DEPENDENCY:
            path = _g.shortest_edge_path(dependency, dst[row], src[row])
            if path is not None:
                return [row, *path]
    return None


def _g_sia(analysis: "Analysis") -> PhenomenonReport:
    history = analysis.history
    table = analysis.dsg.table
    witnesses = []
    for row, depth in enumerate(table.depth):
        if depth >= DEPENDENCY and not starts_before(
            history, table.src[row], table.dst[row]
        ):
            edge = table.edge(row)
            witnesses.append(
                Witness(
                    f"interference: {edge.describe()}, but T{edge.src} did not "
                    f"commit before T{edge.dst} started"
                )
            )
    return PhenomenonReport(Phenomenon.G_SIA, bool(witnesses), tuple(witnesses))


def _g_ss(analysis: "Analysis") -> PhenomenonReport:
    ssg = analysis.ssg
    table = ssg.table
    # The anti-dependency rows, then the start rows (the rows with no version).
    special = [
        row
        for row, (depth, version) in enumerate(zip(table.depth, table.version))
        if depth < DEPENDENCY or version is None
    ]
    return _cycle_report(
        Phenomenon.G_SS,
        table,
        _g.cycle_through(ssg.view(FULL), ssg.components(FULL), special),
        "real-time violation: SSG cycle with an anti- or start-dependency edge",
    )


def _g_cursor(analysis: "Analysis") -> PhenomenonReport:
    """Lost update through a cursor: for each cursor-read item
    anti-dependency row on ``x``, look for a dependency path back that
    passes through a write-dependency row on ``x``."""
    dsg = analysis.dsg
    table, dependency = dsg.table, dsg.view(DEPENDENCY)
    src, dst, version = table.src, table.dst, table.version
    ww_on: Dict[str, List[int]] = {}
    for row, depth in enumerate(table.depth):
        if depth == WRITE:
            ww_on.setdefault(version[row].obj, []).append(row)
    # The cursor rows are item anti-dependencies.
    for anti in sorted(table.cursor):
        obj = version[anti].obj
        for ww in ww_on.get(obj, ()):
            first = _g.shortest_edge_path(dependency, dst[anti], src[ww])
            if first is None:
                continue
            second = _g.shortest_edge_path(dependency, dst[ww], src[anti])
            if second is not None:
                return _cycle_report(
                    Phenomenon.G_CURSOR,
                    table,
                    [anti, *first, ww, *second],
                    f"lost cursor update on {obj!r}",
                )
    return PhenomenonReport(Phenomenon.G_CURSOR, False)
