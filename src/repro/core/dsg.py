"""The Direct Serialization Graph (paper Definition 7).

``DSG(H)`` has one node per committed transaction of ``H`` (including the
paper's implicit setup transactions, cf. Figure 5's "T0 is not shown") and
one edge per direct conflict.  The edges are the rows of an
:class:`~repro.core.conflicts.EdgeTable`; the class never looks at an
:class:`Edge` object to answer the paper's four cycle questions, which are
cycles over four *nested* subsets of the rows — the views
:data:`~repro.core.conflicts.WRITE` (G0), ``DEPENDENCY`` (G1c), ``ITEM``
(G2-item) and ``FULL`` (G2), a row belonging to the views ``0..depth[row]``:

* one :class:`~repro.core.graph.Adjacency` per view asked for, row numbers
  picked by an int compare on the depth column (the full view is every
  row), built once;
* a view is declared acyclic *without a search* when every row of it goes
  forward in commit order — ``rank[src] < rank[dst]`` over the rank of each
  transaction's commit event (one dict per history,
  ``History._commit_rank``) is a topological order, and one scan of the
  rows finds the deepest view it covers (:meth:`DSG._acyclic`).  A history
  recorded under strict two-phase locking is forward in every view; a
  multi-version history is typically forward in its ww and ww+wr views and
  not in its anti-dependencies.  One row that goes backward (or joins two
  setup transactions, which share a rank) sends the view to a search;
* the ww and ww+wr views search by Tarjan.  A cycle of the item or full
  view threads one of its anti-dependency rows or is a cycle of the ww+wr
  view, so those two are acyclic when no anti-dependency row closes and the
  ww+wr view is acyclic; which row closes is searched for, not read off
  the components (below);
* a view found acyclic by a search settles every deeper view too, and the
  components of a view are computed once (:meth:`DSG.components`);
* :func:`view_witness`: G0 / G1c take the first component with two nodes
  and walk a cycle in it; G2 / G2-item take the first anti-dependency row
  ``a -> b`` whose ``b`` reaches ``a`` — whose ends share a component — and
  close it with a shortest path.  That row is found by a breadth-first
  search from each row's ``b`` in turn
  (:func:`~repro.core.graph.cycle_through`), and the searches follow at
  most as many rows as the view holds: past that the view's components are
  computed once and decide the remaining rows.  A history whose first
  anti-dependency rows close never runs Tarjan; none pays more than one
  pass over the view's rows for trying.  The online checker's provenance
  witness asks the same of its own table.

The graph routines live in :mod:`repro.core.graph`; the class keeps what
needs the history: the node set, the commit-rank certificate and the cached
views and components (:attr:`DSG.table`, :meth:`DSG.view`,
:meth:`DSG.components`, which the extension phenomena read too).  Searches
with caller-supplied edge predicates (:meth:`DSG.find_cycle`,
:meth:`DSG.find_cycles`) evaluate them once over the materialised edges into
a row list and then run the same routines.

All searches return a concrete :class:`Cycle` witness (the edge list), which
the checker renders into explanations; only the rows of a witness are turned
into :class:`Edge` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import graph as _g
from .conflicts import (
    DEPENDENCY,
    FULL,
    WRITE,
    DepKind,
    Edge,
    EdgeTable,
    PredicateDepMode,
    edge_table,
)
from .history import History

__all__ = ["DSG", "Cycle", "EdgeFilter"]

#: Predicate over edges used to carve out subgraphs.
EdgeFilter = Callable[[Edge], bool]


def view_adjacency(table: EdgeTable, view: int) -> _g.Adjacency:
    """The graph of the rows of ``table`` in ``view``, in row order (every
    row but a tombstone is in the full view)."""
    if view == FULL and not table.tombstones:
        rows = range(len(table.depth))
    else:
        rows = [row for row, depth in enumerate(table.depth) if depth >= view]
    return _g.adjacency_of(rows, table.src, table.dst)


def view_witness(
    table: EdgeTable,
    view: int,
    adj: _g.Adjacency,
    components: Callable[[], List[List[int]]],
) -> Optional[List[int]]:
    """The rows of the cycle witnessing ``view``'s phenomenon, given the
    view's graph and what gives its components: any cycle of ``WRITE`` (G0)
    or ``DEPENDENCY`` (G1c); a cycle of ``ITEM`` (G2-item) or ``FULL`` (G2)
    through one of its anti-dependency rows, which asks for the components
    only when its search runs out (:func:`~repro.core.graph.cycle_through`)."""
    if view >= DEPENDENCY:
        return _g.cycle(adj, components())
    # Lazily: the search stops at the first row it closes.
    anti = (row for row, depth in enumerate(table.depth) if view <= depth < DEPENDENCY)
    return _g.cycle_through(adj, anti, components)


def dependency_edge(edge: Edge) -> bool:
    """Definition 8's *dependency* edges: read- or write-dependencies."""
    return edge.kind in (DepKind.WW, DepKind.WR)


@dataclass(frozen=True)
class Cycle:
    """A directed cycle as a sequence of edges, each ending where the next
    begins (and the last ending at the first's source)."""

    edges: Tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a cycle has at least one edge")
        for a, b in zip(self.edges, self.edges[1:] + self.edges[:1]):
            if a.dst != b.src:
                raise ValueError(f"edges do not chain: {a} then {b}")

    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(e.src for e in self.edges)

    def count(self, kind: DepKind, *, via_predicate: Optional[bool] = None) -> int:
        return sum(
            1
            for e in self.edges
            if e.kind is kind
            and (via_predicate is None or e.via_predicate == via_predicate)
        )

    def describe(self) -> str:
        path = " ".join(f"T{e.src} -{_tag(e)}->" for e in self.edges)
        return f"{path} T{self.edges[0].src}"

    def __str__(self) -> str:
        return self.describe()

    def __len__(self) -> int:
        return len(self.edges)


def _tag(edge: Edge) -> str:
    return ("p" if edge.via_predicate else "") + edge.kind.value


class DSG:
    """Direct serialization graph of a history.

    Parameters
    ----------
    history:
        The (validated) history.
    mode:
        Predicate-read-dependency quantification, see
        :class:`~repro.core.conflicts.PredicateDepMode`.
    edges:
        The direct conflicts of ``history`` under ``mode``, if already
        extracted: how :class:`~repro.core.phenomena.Analysis` shares one
        :class:`~repro.core.conflicts.EdgeTable` between its DSG and SSG.
    """

    def __init__(
        self,
        history: History,
        mode: PredicateDepMode = PredicateDepMode.LATEST,
        *,
        edges: Optional[EdgeTable] = None,
    ):
        self.history = history
        #: The edges as rows, in the order every search visits them.
        self.table = edge_table(history, mode) if edges is None else edges
        self._nodes = set(history.committed_all)
        #: view -> adjacency over its rows / its strongly connected components.
        self._views: Dict[int, _g.Adjacency] = {}
        self._sccs: Dict[int, List[List[int]]] = {}
        #: view -> the rows of its phenomenon's witness (:func:`view_witness`).
        self._cycles: Dict[int, Optional[List[int]]] = {}
        #: The largest view known acyclic (every deeper one is a subgraph of
        #: it); ``WRITE + 1`` when none is, ``None`` before the rank scan.
        self._acyclic_from: Optional[int] = None

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------

    @property
    def edges(self) -> List[Edge]:
        """Every edge as an object, in row order (built on first use)."""
        return self.table.edges()

    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._nodes))

    def edges_between(self, src: int, dst: int) -> List[Edge]:
        table = self.table
        return [
            table.edge(row)
            for row in self.view(FULL).rows.get(src, ())
            if table.dst[row] == dst
        ]

    def edges_of(self, kind: DepKind, *, via_predicate: Optional[bool] = None) -> List[Edge]:
        return [
            e
            for e in self.edges
            if e.kind is kind
            and (via_predicate is None or e.via_predicate == via_predicate)
        ]

    def to_dot(self) -> str:
        """GraphViz rendering (labels match the paper's figures)."""
        lines = ["digraph DSG {"]
        for n in self.nodes:
            lines.append(f'  T{n} [shape=circle, label="T{n}"];')
        for e in self.edges:
            style = "dashed" if e.kind is DepKind.RW else "solid"
            lines.append(
                f'  T{e.src} -> T{e.dst} [label="{_tag(e)}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # the nested views
    # ------------------------------------------------------------------

    def view(self, view: int) -> _g.Adjacency:
        """The graph of the rows in a view, built once."""
        adj = self._views.get(view)
        if adj is None:
            adj = self._views[view] = view_adjacency(self.table, view)
        return adj

    def components(self, view: int) -> List[List[int]]:
        """The strongly connected components of ``view``: Tarjan, once."""
        sccs = self._sccs.get(view)
        if sccs is None:
            sccs = self._sccs[view] = _g.strongly_connected_components(
                self.view(view)
            )
        return sccs

    def _acyclic(self, view: int) -> bool:
        """Whether the view has no cycle: by the commit-rank certificate if
        it covers the view, by a search otherwise — and a view found acyclic
        settles every deeper one."""
        if self._acyclic_from is None:
            self._acyclic_from = self._forward_from()
        if view < self._acyclic_from:
            if view >= DEPENDENCY:
                acyclic = all(len(scc) < 2 for scc in self.components(view))
            else:
                # Its cycles thread an anti-dependency row or are the
                # dependency view's.
                acyclic = (
                    self._acyclic(DEPENDENCY) and self._cycle_rows(view) is None
                )
            if acyclic:
                self._acyclic_from = view
        return view >= self._acyclic_from

    def _cycle_rows(self, view: int) -> Optional[List[int]]:
        """The rows of the view's witness (:func:`view_witness`), searched
        once."""
        if view not in self._cycles:
            self._cycles[view] = view_witness(
                self.table, view, self.view(view), lambda: self.components(view)
            )
        return self._cycles[view]

    def _forward_from(self) -> int:
        """The largest view whose rows all go forward in commit order.

        Its place among the commit events ranks a transaction (a setup
        transaction, which has no events, ranks before all of them); a view
        in which every row has ``rank[src] < rank[dst]`` is acyclic, the
        ranks being a topological order of it.  One scan finds the deepest
        row that does not: the views it belongs to need a search, the deeper
        ones do not.
        """
        rank = self.history._commit_rank.get
        table = self.table
        deepest = -1
        for src, dst, depth in zip(table.src, table.dst, table.depth):
            if depth > deepest and rank(src, -1) >= rank(dst, -1):
                deepest = depth
                if deepest == WRITE:
                    break
        return deepest + 1

    def _witness(self, rows: Optional[Iterable[int]]) -> Optional[Cycle]:
        return None if rows is None else Cycle(tuple(map(self.table.edge, rows)))

    def _view_cycle(self, view: int) -> Optional[Cycle]:
        """The witness of a view's phenomenon (:func:`view_witness`), or
        ``None`` when the view is acyclic."""
        if self._acyclic(view):
            return None
        return self._witness(self._cycle_rows(view))

    # ------------------------------------------------------------------
    # cycle searches over caller-supplied edge predicates
    # ------------------------------------------------------------------

    def _kept(self, keep: EdgeFilter) -> _g.Adjacency:
        table = self.table
        rows = [row for row, e in enumerate(self.edges) if keep(e)]
        return _g.adjacency_of(rows, table.src, table.dst)

    def find_cycle(self, keep: EdgeFilter) -> Optional[Cycle]:
        """Any cycle using only edges passing ``keep``, or ``None``."""
        adj = self._kept(keep)
        return self._witness(_g.cycle(adj, _g.strongly_connected_components(adj)))

    def find_cycles(
        self,
        keep: EdgeFilter,
        *,
        special: Optional[EdgeFilter] = None,
        limit: int = 10,
    ) -> List[Cycle]:
        """Up to ``limit`` distinct simple cycles whose edges all pass
        ``keep`` (and, if given, containing at least one ``special`` edge).

        Cycle enumeration is exponential in general; the ``limit`` bounds
        the work.  Distinctness is by node set, so parallel edges do not
        inflate the list; among parallels the first ``special`` edge is
        preferred.  Which cycles come first is not part of the contract.
        Used for multi-witness reports; the phenomena themselves only need
        existence (:meth:`find_cycle`)."""
        edges = self.edges
        adj = self._kept(keep)
        out: List[Cycle] = []
        seen_nodesets = set()
        for nodes in _g.simple_cycles(adj):
            if len(out) >= limit:
                break
            key = frozenset(nodes)
            if key in seen_nodesets:
                continue
            chosen = []
            for u, v in zip(nodes, nodes[1:] + nodes[:1]):
                parallel = [edges[row] for row in adj.rows[u] if adj.dst[row] == v]
                preferred = [e for e in parallel if special(e)] if special else []
                chosen.append((preferred or parallel)[0])
            if special is not None and not any(map(special, chosen)):
                continue
            seen_nodesets.add(key)
            out.append(Cycle(tuple(chosen)))
        return out

    def directly_depends(self, ti: int, tj: int) -> bool:
        """Definition 8, first half: ``T_j`` directly write- or
        read-depends on ``T_i``."""
        dst = self.table.dst
        return any(
            dst[row] == tj for row in self.view(DEPENDENCY).rows.get(ti, ())
        )

    def depends(self, ti: int, tj: int) -> bool:
        """Definition 8: ``T_j`` depends on ``T_i`` — a path of one or more
        dependency (ww/wr) edges from ``T_i`` to ``T_j``."""
        if ti == tj or ti not in self._nodes or tj not in self._nodes:
            return False
        return _g.shortest_edge_path(self.view(DEPENDENCY), ti, tj) is not None

    def is_acyclic(self) -> bool:
        return self._acyclic(FULL)

    def topological_order(self) -> List[int]:
        """A serialization order of the committed transactions (only valid
        when the graph is acyclic)."""
        return _g.topological_order(self.view(FULL), self._nodes)
