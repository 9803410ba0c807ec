"""Cycle verdicts over the nested views of one DSG.

The paper states G0, G1c, G2-item and G2 as cycles over four subsets of the
same edge set, and the subsets nest::

    full  ⊇  item (no predicate rw)  ⊇  dependency (ww + wr)  ⊇  write (ww)
     G2        G2-item                    G1c                     G0

:class:`ViewChain` reads the rows of the online checker's
:class:`~repro.core.conflicts.EdgeTable` — the representation the batch
checker uses — and gives those four verdicts out.  The checker only appends
rows; the chain reads the ones appended since its last answer itself, in
row order, when it is next asked.  Which flavour belongs to which views is
stated once, for both checkers: :data:`repro.core.conflicts.DEPTH`, which
gives each row its ``depth`` column when it is appended; the row reads, the
removal, the replay and the anti-dependency pass compare that column with a
view (and :data:`repro.core.phenomena.VIEW_OF` names the view behind each
phenomenon).  A tombstoned row (depth ``-1``) is in no view.

A subgraph of an acyclic graph is acyclic, so only one view is ever
tracked: the *live* one, the largest that has not closed a cycle yet.  Every
larger view is latched cyclic, every smaller one is trivially acyclic.

The live view is tracked by the batch checker's certificate first
(:meth:`repro.core.dsg.DSG._forward_from`).  Every node carries a rank fixed
when it enters the graph — its place in commit order, ``-1`` for a setup
transaction — and while every row of the view has ``rank[src] <
rank[dst]`` the ranks are a topological order of it: the view is acyclic and
a row costs one compare.  The first row that does not go forward builds
a :class:`_CycleMonitor` (a Pearce–Kelly dynamic topological order) by
replaying the view's rows once, and the monitor answers from then on.  When
the live view closes its first cycle the next smaller view is brought live
the same way — certified if all its rows go forward, else by a replay, and
so on down the chain.  A history recorded under strict two-phase locking
never builds a monitor; a multi-version one builds one for the views that
hold its backward anti-dependencies, and a latched view costs nothing.

G0 and G1c are "the view has a cycle".  G2 and G2-item also need the cycle
to thread an anti-dependency edge — an edge of the view that is not in the
dependency view.  While the dependency view is acyclic no cycle consists of
ww/wr edges alone, so a latched full (resp. item) view *is* the verdict, in
O(1).  Only once G1c is itself present can the view's cycle be a pure
dependency cycle, and the question goes to a pass over the view, one per
table generation (an append or a tombstone starts a new one) until the
verdict turns True: the batch checker's view graph and witness search
(:func:`repro.core.dsg.view_adjacency`,
:func:`repro.core.dsg.view_witness`) over the table's own columns, which
runs Tarjan only when its bounded search runs out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import graph as _g
from .conflicts import DEPENDENCY, FULL, ITEM, WRITE, EdgeTable
from .dsg import view_adjacency, view_witness
from .phenomena import VIEW_OF, Phenomenon

__all__ = ["ViewChain"]


class _CycleMonitor:
    """Incremental cycle detection over one graph.

    Maintains a topological order of the collapsed transaction graph with
    the Pearce–Kelly dynamic algorithm: inserting an edge that already
    respects the order costs O(1), and a violating insert reorders only the
    affected region between the two endpoints' ranks.  :meth:`add` returns
    True for the insert that closes a cycle; the order is not maintained
    past that point and the monitor is done.  :class:`ViewChain` builds one
    only for a view the commit-rank certificate no longer covers.
    """

    __slots__ = ("order", "_next_rank", "fwd", "back", "count")

    def __init__(self) -> None:
        self.order: Dict[int, int] = {}
        self._next_rank = 0
        self.fwd: Dict[int, Set[int]] = {}
        self.back: Dict[int, Set[int]] = {}
        self.count: Dict[Tuple[int, int], int] = {}

    def add(self, u: int, v: int) -> bool:
        if u == v:
            return False  # a self-loop is a singleton SCC, not a cycle
        key = (u, v)
        count = self.count
        refs = count.get(key)
        if refs is not None:
            count[key] = refs + 1
            return False  # collapsed pair already in the graph
        count[key] = 1
        order = self.order
        rank_u = order.get(u)
        if rank_u is None:
            rank_u = order[u] = self._next_rank
            self._next_rank += 1
            self.fwd[u] = {v}
            self.back[u] = set()
        else:
            self.fwd[u].add(v)
        rank_v = order.get(v)
        if rank_v is None:
            rank_v = order[v] = self._next_rank
            self._next_rank += 1
            self.fwd[v] = set()
            self.back[v] = {u}
        else:
            self.back[v].add(u)
        return rank_u > rank_v and self._reorder(u, v, rank_u, rank_v)

    def _reorder(self, u: int, v: int, rank_u: int, rank_v: int) -> bool:
        # Order violated: discover the affected region (Pearce–Kelly).
        # Forward from v, pruned to ranks below rank(u): in a valid order
        # any v=>u path stays inside that window, so meeting u here is the
        # definitive cycle test for the new edge.
        order, fwd, back = self.order, self.fwd, self.back
        lower, upper = rank_v, rank_u
        delta_f: List[int] = []
        seen = {v}
        stack = [v]
        while stack:
            node = stack.pop()
            delta_f.append(node)
            for succ in fwd[node]:
                if succ == u:
                    return True
                if succ not in seen and order[succ] < upper:
                    seen.add(succ)
                    stack.append(succ)
        # Backward from u, pruned to ranks above rank(v).
        delta_b: List[int] = []
        seen = {u}
        stack = [u]
        while stack:
            node = stack.pop()
            delta_b.append(node)
            for pred in back[node]:
                if pred not in seen and order[pred] > lower:
                    seen.add(pred)
                    stack.append(pred)
        # Re-rank: the affected nodes permute among their own old ranks —
        # ancestors of u first, then descendants of v, each group keeping
        # its relative order.  Nodes outside the region are untouched.
        delta_b.sort(key=order.__getitem__)
        delta_f.sort(key=order.__getitem__)
        moved = delta_b + delta_f
        for rank, node in zip(sorted(order[n] for n in moved), moved):
            order[node] = rank
        return False

    def remove(self, u: int, v: int) -> None:
        if u == v:
            return
        refs = self.count[(u, v)] - 1
        if refs:
            self.count[(u, v)] = refs
        else:
            del self.count[(u, v)]
            self.fwd[u].discard(v)
            self.back[v].discard(u)


class ViewChain:
    """G0 / G1c / G2-item / G2 presence over the rows of a growing table.

    ``table`` is the owner's :class:`~repro.core.conflicts.EdgeTable`, held
    by reference; only its ``src``, ``dst`` and ``depth`` columns are read
    here.  The owner only appends rows: the chain reads the rows appended
    since its last answer itself, at the next :meth:`present`, so feeding
    a row costs the owner nothing here.  Before the owner tombstones a row
    it calls :meth:`remove` with it.  ``rank`` is the owner's node -> rank
    dict, also held by reference: both ends of a row have an entry by the
    time the row is read, and an entry never changes.

    Verdicts are permanent.  That is sound for a growing edge set, and for
    the one removal the online analysis performs — a version-chain repair,
    which replaces edges with transitive refinements (a mid-chain insert
    turns ``u->w`` into ``u->v, v->w``) and so can reroute a cycle but never
    break the last one.  :meth:`remove` is correct for removals of that
    shape only: it keeps the live view's monitor exact (a certified view
    stays certified: fewer rows cannot go backward) and never re-opens a
    latched view.  A row tombstoned before the chain read it is never read.
    """

    __slots__ = ("_table", "_rank", "_metrics", "_live", "_monitor", "_read", "_passes")

    def __init__(
        self,
        table: EdgeTable,
        rank: Dict[int, int],
        metrics: Optional[object] = None,
    ):
        self._table = table
        self._rank = rank
        self._metrics = metrics
        #: Depth of the live view: views above it are latched cyclic, it and
        #: the views below are acyclic.  ``WRITE + 1`` = all latched.
        self._live = FULL
        #: The live view's monitor; ``None`` while the certificate covers the
        #: view (every row goes forward in rank) and once all are latched.
        self._monitor: Optional[_CycleMonitor] = None
        #: Rows ``0 .. _read - 1`` have been read.
        self._read = 0
        self._passes: Dict[int, Tuple[int, bool]] = {}  # view -> (generation, present)

    @property
    def generation(self) -> int:
        """Grows whenever the table's rows change (an append or a
        tombstone); anti-dependency pass answers are cached against it."""
        table = self._table
        return len(table.src) + table.tombstones

    def _read_rows(self) -> None:
        """Bring the live view up to date with the rows appended since the
        last call, in row order."""
        table = self._table
        start, end = self._read, len(table.src)
        self._read = end
        live = self._live
        if start == end or live > WRITE:
            return
        columns = (table.src, table.dst, table.depth)
        if start:  # a table read for the first time is not copied
            columns = tuple(column[start:] for column in columns)
        rows = zip(*columns)
        monitor = self._monitor
        if monitor is None:
            rank = self._rank
            for u, v, depth in rows:
                if depth >= live and rank[u] >= rank[v]:
                    break
            else:
                return
            closed = self._replay()
        else:
            add = monitor.add
            closed = any(depth >= live and add(u, v) for u, v, depth in rows)
        if closed:
            self._latch()

    def remove(self, row: int) -> None:
        """Row ``row`` is about to be tombstoned."""
        monitor = self._monitor
        if monitor is not None and row < self._read:
            table = self._table
            if table.depth[row] >= self._live:
                monitor.remove(table.src[row], table.dst[row])

    def _latch(self) -> None:
        """The live view closed its first cycle: bring the next smaller
        view live — certified if all its rows go forward, else by a monitor
        replaying them (cascading further if the replay closes a cycle)."""
        while True:
            self._live = live = self._live + 1
            self._monitor = None
            if live > WRITE or self._forward(live) or not self._replay():
                return

    def _forward(self, view: int) -> bool:
        """Whether every row of ``view`` goes forward in rank."""
        rank = self._rank
        table = self._table
        for src, dst, depth in zip(table.src, table.dst, table.depth):
            if depth >= view and rank[src] >= rank[dst]:
                return False
        return True

    def _replay(self) -> bool:
        """Build the live view's monitor from every row appended so far;
        True if they close a cycle."""
        live = self._live
        monitor = self._monitor = _CycleMonitor()
        add = monitor.add
        table = self._table
        for src, dst, depth in zip(table.src, table.dst, table.depth):
            if depth >= live and add(src, dst):
                return True
        return False

    def present(self, phenomenon: Phenomenon) -> bool:
        """Presence of ``phenomenon`` (G0, G1c, G2-item or G2) over the
        rows appended so far."""
        self._read_rows()
        view = VIEW_OF[phenomenon]
        if view >= self._live:
            return False
        if view >= DEPENDENCY or self._live <= DEPENDENCY:
            return True
        cached = self._passes.get(view)
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        if self._metrics is not None:
            self._metrics.counter(
                "incremental_scc_fallbacks_total",
                "SCC passes run for G2/G2-item while G1c is present",
            ).inc(phenomenon=str(phenomenon))
        return self._anti_pass(view)

    def _anti_pass(self, view: int) -> bool:
        """One pass over the table's rows in place, no :class:`Edge`
        objects: does an anti-dependency row of ``view`` close a cycle of
        it?  Without a row that separates them (a predicate
        anti-dependency) the full and item views coincide and the answer is
        recorded for both."""
        table = self._table
        adj = view_adjacency(table, view)
        present = (
            view_witness(
                table, view, adj, lambda: _g.strongly_connected_components(adj)
            )
            is not None
        )
        answer = (self.generation, present)
        coincide = FULL not in table.depth
        for same in (FULL, ITEM) if coincide else (view,):
            self._passes[same] = answer
        return present
