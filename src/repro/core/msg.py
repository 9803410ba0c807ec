"""Mixed systems: the Mixed Serialization Graph and mixing-correctness
(paper Section 5.5, Definition 9).

In a mixed system every transaction declares its own level (``Begin`` events
carry it; ``History.default_level`` covers the rest).  The MSG keeps only the
edges *relevant* to the levels involved, plus obligatory conflicts:

* write-dependency edges are relevant at all levels and are always kept;
* read-dependency edges are kept when the *reader* runs at PL-2 or above
  (reads matter from PL-2 up);
* item-anti-dependency edges are kept when the *reader* (the edge source)
  runs at PL-2.99 or above;
* predicate-anti-dependency edges are kept when the reader runs at PL-3.

A history is **mixing-correct** (Definition 9) iff its MSG is acyclic and
phenomena G1a and G1b do not occur for PL-2 and higher transactions.  The
paper's Mixing Theorem then guarantees each transaction the protections of
its own level.

Extension levels (PL-CS, PL-2+, PL-SI) are approximated for MSG purposes by
the strongest ANSI level they imply (all three imply PL-2); the MSG
construction in the paper is defined for the ANSI chain only.

The MSG is a list of rows of the history's edge table (a row's view depth
tells its flavour); its witness is the batch checker's
:func:`repro.core.graph.cycle_through` over its first non-trivial component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import graph as _g
from .conflicts import DEPENDENCY, ITEM, WRITE, Edge, PredicateDepMode, edge_table
from .dsg import Cycle
from .history import History
from .levels import ANSI_CHAIN, IsolationLevel
from .phenomena import Analysis, Phenomenon, Witness

__all__ = ["MSG", "MixingReport", "mixing_correct", "ansi_projection"]


def ansi_projection(level: IsolationLevel) -> IsolationLevel:
    """The strongest ANSI-chain level implied by ``level``."""
    best = IsolationLevel.PL_1
    for candidate in ANSI_CHAIN:
        if level.implies(candidate):
            best = candidate
    return best


def _relevant(depth: int, src_level: IsolationLevel, dst_level: IsolationLevel) -> bool:
    """Whether an edge table row of that view depth (its flavour) is kept."""
    if depth == WRITE:
        return True
    if depth == DEPENDENCY:
        return dst_level.implies(IsolationLevel.PL_2)
    if depth == ITEM:
        return src_level.implies(IsolationLevel.PL_2_99)
    return src_level.implies(IsolationLevel.PL_3)  # predicate anti-dependency


class MSG:
    """Mixed serialization graph of a history."""

    def __init__(
        self,
        history: History,
        mode: PredicateDepMode = PredicateDepMode.LATEST,
    ):
        self.history = history
        levels = {
            tid: ansi_projection(history.level_of(tid))
            for tid in history.committed
        }
        for tid in history.setup_tids:
            levels[tid] = IsolationLevel.PL_3  # setup state is fully isolated
        self.levels = levels
        self._table = table = edge_table(history, mode)
        src, dst = table.src, table.dst
        self._rows = [
            row
            for row, depth in enumerate(table.depth)
            if _relevant(depth, levels[src[row]], levels[dst[row]])
        ]
        self._nodes = set(history.committed_all)
        self._adj = _g.adjacency_of(self._rows, src, dst)

    @property
    def edges(self) -> List[Edge]:
        """The relevant edges as objects, in row order."""
        return [self._table.edge(row) for row in self._rows]

    def is_acyclic(self) -> bool:
        return all(
            len(scc) < 2
            for scc in _g.strongly_connected_components(self._adj, self._nodes)
        )

    def find_cycle(self) -> Optional[Cycle]:
        sccs = _g.strongly_connected_components(self._adj, self._nodes)
        for scc in sccs:
            if len(scc) >= 2:
                members = set(scc)
                src = self._table.src
                inside = [row for row in self._rows if src[row] in members]
                rows = _g.cycle_through(self._adj, sccs, inside)
                return Cycle(tuple(map(self._table.edge, rows)))
        return None

    def topological_order(self) -> List[int]:
        return _g.topological_order(self._adj, self._nodes)


@dataclass(frozen=True)
class MixingReport:
    """Outcome of the Definition 9 test."""

    ok: bool
    cycle: Optional[Cycle] = None
    dirty_reads: Tuple[Witness, ...] = ()

    def describe(self) -> str:
        if self.ok:
            return "mixing-correct: MSG acyclic, no dirty reads at PL-2+"
        lines = ["NOT mixing-correct:"]
        if self.cycle is not None:
            lines.append(f"  MSG cycle: {self.cycle.describe()}")
        for w in self.dirty_reads:
            lines.append(f"  {w.description}")
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return self.ok


def mixing_correct(
    history: History,
    mode: PredicateDepMode = PredicateDepMode.LATEST,
) -> MixingReport:
    """Definition 9: MSG acyclic and no G1a/G1b for PL-2+ transactions."""
    msg = MSG(history, mode)
    cycle = msg.find_cycle()
    analysis = Analysis(history, mode)
    dirty: List[Witness] = []
    needs_clean_reads = {
        tid
        for tid in history.committed
        if msg.levels.get(tid, IsolationLevel.PL_3).implies(IsolationLevel.PL_2)
    }
    for phenomenon in (Phenomenon.G1A, Phenomenon.G1B):
        report = analysis.report(phenomenon)
        for witness in report.witnesses:
            if witness.tid is None or witness.tid in needs_clean_reads:
                dirty.append(witness)
    ok = cycle is None and not dirty
    return MixingReport(ok, cycle, tuple(dirty))
