"""The generalized phenomena G0, G1a, G1b, G1c, G2 and G2-item (Section 5).

Each detector returns a :class:`PhenomenonReport` stating whether the history
*exhibits* the phenomenon, with concrete witnesses: an offending cycle of the
DSG for the graph-based phenomena, or the offending read events for G1a/G1b.

Isolation levels (:mod:`repro.core.levels`) are defined by proscribing these
phenomena, exactly as in Figure 6:

========  =====================  ==========================================
Level     Proscribed             Informal guarantee
========  =====================  ==========================================
PL-1      G0                     writes completely isolated
PL-2      G1 (= G1a ∪ G1b ∪ G1c) no dirty reads
PL-2.99   G1, G2-item            repeatable reads, phantoms possible
PL-3      G1, G2                 (conflict-)serializability
========  =====================  ==========================================

:class:`Analysis` computes the DSG once and memoizes per-phenomenon reports;
use it when checking several phenomena of one history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .conflicts import (
    DEPENDENCY,
    FULL,
    ITEM,
    WRITE,
    Edge,
    EdgeTable,
    PredicateDepMode,
    edge_table,
)
from .dsg import DSG, Cycle
from .history import History

if TYPE_CHECKING:  # pragma: no cover
    from .ssg import SSG

__all__ = ["Phenomenon", "Witness", "PhenomenonReport", "Analysis"]


class Phenomenon(Enum):
    """The phenomena of Section 5 (plus the thesis extensions, detected by
    :mod:`repro.core.extensions`)."""

    G0 = "G0"  # write cycles
    G1A = "G1a"  # aborted reads
    G1B = "G1b"  # intermediate reads
    G1C = "G1c"  # circular information flow
    G1 = "G1"  # G1a ∪ G1b ∪ G1c
    G2_ITEM = "G2-item"  # item anti-dependency cycles
    G2 = "G2"  # anti-dependency cycles
    # Extension-level phenomena (Adya's thesis, referenced in Sections 1, 6):
    G_SINGLE = "G-single"  # single anti-dependency cycles (PL-2+)
    G_SIA = "G-SIa"  # interference (Snapshot Isolation)
    G_SIB = "G-SIb"  # missed effects (Snapshot Isolation)
    G_SI = "G-SI"  # G-SIa ∪ G-SIb
    G_CURSOR = "G-cursor"  # labeled lost update (Cursor Stability)
    G_SS = "G-SS"  # real-time violations (strict serializability, PL-SS)

    def __str__(self) -> str:
        return self.value


#: The view (:mod:`repro.core.conflicts`) each cycle phenomenon is a cycle of.
VIEW_OF: Dict[Phenomenon, int] = {
    Phenomenon.G2: FULL,
    Phenomenon.G2_ITEM: ITEM,
    Phenomenon.G1C: DEPENDENCY,
    Phenomenon.G0: WRITE,
}

#: Witness headings of the cycle phenomena.
_CYCLE_OF = {
    Phenomenon.G0: "directed cycle of write-dependency edges",
    Phenomenon.G1C: "directed cycle of dependency (ww/wr) edges",
    Phenomenon.G2_ITEM: "directed cycle with one or more item-anti-dependency edges",
    Phenomenon.G2: "directed cycle with one or more anti-dependency edges",
}

#: The phenomena that are unions of others, with the witnesses of each part.
_UNION_OF = {
    Phenomenon.G1: (Phenomenon.G1A, Phenomenon.G1B, Phenomenon.G1C),
    Phenomenon.G_SI: (Phenomenon.G_SIA, Phenomenon.G_SIB),
}


@dataclass(frozen=True)
class Witness:
    """One concrete occurrence of a phenomenon.

    ``tid`` identifies the transaction the phenomenon condemns (the reader
    for G1a/G1b); cycle-based witnesses carry the offending ``cycle``.
    """

    description: str
    cycle: Optional[Cycle] = None
    tid: Optional[int] = None

    def __str__(self) -> str:
        return self.description


@dataclass(frozen=True)
class PhenomenonReport:
    """Result of testing one phenomenon against one history."""

    phenomenon: Phenomenon
    present: bool
    witnesses: Tuple[Witness, ...] = ()

    def describe(self) -> str:
        head = f"{self.phenomenon}: {'EXHIBITED' if self.present else 'absent'}"
        if not self.witnesses:
            return head
        lines = [head]
        for w in self.witnesses:
            lines.append(f"  - {w.description}")
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return self.present


class Analysis:
    """Phenomenon analysis of one history with a shared, memoized DSG."""

    def __init__(
        self,
        history: History,
        mode: PredicateDepMode = PredicateDepMode.LATEST,
        *,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
    ):
        self.history = history
        self.mode = mode
        self._dsg: Optional[DSG] = None
        self._ssg: Optional[SSG] = None
        self._extracted: Optional[EdgeTable] = None
        self._cache: Dict[Phenomenon, PhenomenonReport] = {}
        #: Optional observability sinks (see :mod:`repro.observability`).
        self.metrics = metrics
        self.tracer = tracer
        #: Wall-clock seconds per stage: ``"extract"`` for edge extraction,
        #: plus one entry per phenomenon detected (``"G0"``, ``"G2"``, ...),
        #: each net of the extraction and of the phenomena it asked for in
        #: turn (G1 of G1a/G1b/G1c), so the entries add up.
        #: Always populated — the cost is a handful of clock reads.
        self.timings: Dict[str, float] = {}
        #: Seconds spent in reports finished inside the one being timed.
        self._nested = 0.0

    @property
    def _table(self) -> EdgeTable:
        """The history's direct conflicts as rows, extracted exactly once
        per analysis and shared by the DSG, the SSG of the extension
        phenomena, and every per-level ``satisfies`` call reusing this
        analysis."""
        if self._extracted is None:
            self._extract()
        return self._extracted

    def _extract(self) -> None:
        span = None
        if self.tracer is not None:
            span = self.tracer.span(
                "checker.extract", events=len(self.history.events)
            )
        started = time.perf_counter()
        self._extracted = table = edge_table(self.history, self.mode)
        elapsed = time.perf_counter() - started
        self.timings["extract"] = elapsed
        if span is not None:
            span.end(edges=len(table))
        if self.metrics is not None:
            from ..observability.metrics import SECONDS_BUCKETS

            self.metrics.histogram(
                "checker_extract_seconds",
                "edge-extraction pass durations",
                buckets=SECONDS_BUCKETS,
            ).observe(elapsed)
            self.metrics.counter(
                "checker_edges_total", "direct-conflict edges extracted"
            ).inc(len(table))

    @property
    def edges(self) -> List[Edge]:
        """The history's direct-conflict edges as objects (built from the
        table's rows on first use)."""
        return self._table.edges()

    @property
    def dsg(self) -> DSG:
        if self._dsg is None:
            self._dsg = DSG(self.history, self.mode, edges=self._table)
        return self._dsg

    @property
    def ssg(self) -> SSG:
        """The start-ordered serialization graph (built on first use; only
        the extension levels read it, so its module loads then too)."""
        if self._ssg is None:
            from .ssg import SSG

            self._ssg = SSG(self.history, self.mode, edges=self._table)
        return self._ssg

    def report(self, phenomenon: Phenomenon) -> PhenomenonReport:
        """The (memoized) report for one phenomenon."""
        if phenomenon not in self._cache:
            if self._extracted is None and phenomenon not in (
                Phenomenon.G1A,
                Phenomenon.G1B,
            ):
                # Every other phenomenon reads the graph: extraction has its
                # own timing row and span, outside this phenomenon's.
                self._extract()
            span = None
            if self.tracer is not None:
                span = self.tracer.span(
                    "checker.phenomenon", phenomenon=str(phenomenon)
                )
            outer, self._nested = self._nested, 0.0
            started = time.perf_counter()
            result = self._detect(phenomenon)
            elapsed = time.perf_counter() - started
            own = elapsed - self._nested
            self._nested = outer + elapsed
            self.timings[str(phenomenon)] = own
            if span is not None:
                span.end(present=result.present)
            if self.metrics is not None:
                from ..observability.metrics import SECONDS_BUCKETS

                self.metrics.histogram(
                    "checker_phenomenon_seconds",
                    "per-phenomenon detection durations",
                    buckets=SECONDS_BUCKETS,
                ).observe(own, phenomenon=str(phenomenon))
            self._cache[phenomenon] = result
        return self._cache[phenomenon]

    def exhibits(self, phenomenon: Phenomenon) -> bool:
        return self.report(phenomenon).present

    def reports(self, phenomena) -> List[PhenomenonReport]:
        return [self.report(p) for p in phenomena]

    # ------------------------------------------------------------------
    # detectors
    # ------------------------------------------------------------------

    def _detect(self, phenomenon: Phenomenon) -> PhenomenonReport:
        if phenomenon in (Phenomenon.G0, Phenomenon.G1C, Phenomenon.G2):
            return self._cycle_report(
                phenomenon, self.dsg._view_cycle(VIEW_OF[phenomenon])
            )
        if phenomenon is Phenomenon.G1A:
            return self._g1a()
        if phenomenon is Phenomenon.G1B:
            return self._g1b()
        if phenomenon in _UNION_OF:
            parts = self.reports(_UNION_OF[phenomenon])
            witnesses = tuple(w for r in parts for w in r.witnesses)
            return PhenomenonReport(phenomenon, any(parts), witnesses)
        if phenomenon is Phenomenon.G2_ITEM:
            if FULL in self._table.depth:
                cycle = self.dsg._view_cycle(ITEM)
            else:
                # No predicate anti-dependency edge: the item view is the
                # full view, so G2's (memoized) witness serves both.
                g2 = self.report(Phenomenon.G2)
                cycle = g2.witnesses[0].cycle if g2.present else None
            return self._cycle_report(phenomenon, cycle)
        from .extensions import detect_extension

        return detect_extension(self, phenomenon)

    def _cycle_report(
        self, phenomenon: Phenomenon, cycle: Optional[Cycle]
    ) -> PhenomenonReport:
        if cycle is None:
            return PhenomenonReport(phenomenon, False)
        detail = "; ".join(e.describe() for e in cycle.edges)
        witness = Witness(
            f"{_CYCLE_OF[phenomenon]}: {cycle.describe()} ({detail})", cycle
        )
        return PhenomenonReport(phenomenon, True, (witness,))

    def _g1a(self) -> PhenomenonReport:
        """Aborted reads: a committed transaction read a version (directly or
        in a predicate read's version set) created by an aborted
        transaction.  Item reads are rows of the event log: the reader, the
        interned version and its writer are ints."""
        h = self.history
        log = h.log
        tids, vids = log.tid, log.vid
        versions, ver_tid = log.interner.versions, log.interner.ver_tid
        committed, aborted = h.committed, h.aborted
        witnesses: List[Witness] = []
        for i in h._read_at:
            writer = ver_tid[vids[i]]
            if writer in aborted and tids[i] in committed:
                witnesses.append(
                    Witness(
                        f"committed T{tids[i]} read {versions[vids[i]]}, "
                        f"written by aborted T{writer}",
                        tid=tids[i],
                    )
                )
        for _i, pread in h.predicate_reads:
            if pread.tid not in committed:
                continue
            for v in pread.vset.versions():
                if v.tid in aborted:
                    witnesses.append(
                        Witness(
                            f"committed T{pread.tid}'s read of predicate "
                            f"{pread.predicate} selected {v}, written by "
                            f"aborted T{v.tid}",
                            tid=pread.tid,
                        )
                    )
        return PhenomenonReport(Phenomenon.G1A, bool(witnesses), tuple(witnesses))

    def _g1b(self) -> PhenomenonReport:
        """Intermediate reads: a committed transaction read a version of an
        object that was not the writer's final modification of it — a
        version in :attr:`History._nonfinal`, by interned id."""
        h = self.history
        log = h.log
        tids, vids = log.tid, log.vid
        versions, ver_tid = log.interner.versions, log.interner.ver_tid
        version_id = log.interner.version_id
        committed, nonfinal = h.committed, h._nonfinal
        witnesses: List[Witness] = []
        for i in h._read_at:
            vid = vids[i]
            if vid in nonfinal and tids[i] in committed and ver_tid[vid] != tids[i]:
                v = versions[vid]
                final = h.final_version(v.obj, v.tid)
                witnesses.append(
                    Witness(
                        f"committed T{tids[i]} read intermediate version {v.label(explicit_seq=True)}; "
                        f"T{v.tid}'s final modification of {v.obj!r} is {final}",
                        tid=tids[i],
                    )
                )
        for _i, pread in h.predicate_reads:
            if pread.tid not in committed:
                continue
            for v in pread.vset.versions():
                if v.tid != pread.tid and version_id[v] in nonfinal:
                    witnesses.append(
                        Witness(
                            f"committed T{pread.tid}'s read of predicate "
                            f"{pread.predicate} selected intermediate version "
                            f"{v.label(explicit_seq=True)}",
                            tid=pread.tid,
                        )
                    )
        return PhenomenonReport(Phenomenon.G1B, bool(witnesses), tuple(witnesses))
