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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import graph as _g
from .conflicts import DepKind, Edge, PredicateDepMode, all_dependencies
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


def _relevant(edge: Edge, src_level: IsolationLevel, dst_level: IsolationLevel) -> bool:
    if edge.kind is DepKind.WW:
        return True
    if edge.kind is DepKind.WR:
        return dst_level.implies(IsolationLevel.PL_2)
    if edge.kind is DepKind.RW:
        if edge.via_predicate:
            return src_level.implies(IsolationLevel.PL_3)
        return src_level.implies(IsolationLevel.PL_2_99)
    return False


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
        self.edges: List[Edge] = [
            e
            for e in all_dependencies(history, mode)
            if _relevant(e, levels[e.src], levels[e.dst])
        ]
        self._nodes = set(history.committed_all)
        self._adj = _g.adjacency(self.edges)

    def is_acyclic(self) -> bool:
        return all(
            len(scc) < 2
            for scc in _g.strongly_connected_components(self._adj, self._nodes)
        )

    def find_cycle(self) -> Optional[Cycle]:
        for scc in _g.strongly_connected_components(self._adj, self._nodes):
            if len(scc) < 2:
                continue
            members = set(scc)
            inside = [
                e for e in self.edges if e.src in members and e.dst in members
            ]
            sub = _g.adjacency(inside)
            for e in inside:
                back = _g.shortest_edge_path(sub, e.dst, e.src)
                if back is not None:
                    return Cycle((e, *(inside[row] for row in back)))
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
    cycle = None if msg.is_acyclic() else msg.find_cycle()
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
