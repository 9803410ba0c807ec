"""Cycle verdicts over the nested views of one DSG.

The paper states G0, G1c, G2-item and G2 as cycles over four subsets of the
same edge set, and the subsets nest::

    full  ⊇  item (no predicate rw)  ⊇  dependency (ww + wr)  ⊇  write (ww)
     G2        G2-item                    G1c                     G0

:class:`ViewChain` takes flavoured edges in and gives those four verdicts
out.  Which flavour belongs to which views is stated once, for this online
checker and the batch one alike: :data:`repro.core.conflicts.DEPTH`, which
the feed, the removal, the replay and the SCC pass all index (and
:data:`repro.core.phenomena.VIEW_OF` for the view behind each phenomenon).

A subgraph of an acyclic graph is acyclic, so only one view is ever
tracked: the *live* one, the largest that has not closed a cycle yet.  Every
larger view is latched cyclic, every smaller one is trivially acyclic.

The live view is tracked by the batch checker's certificate first
(:meth:`repro.core.dsg.DSG._forward_from`).  Every node carries a rank fixed
when it enters the graph — its place in commit order, ``-1`` for a setup
transaction — and while every row of the view has ``rank[src] <
rank[dst]`` the ranks are a topological order of it: the view is acyclic and
an insert costs one compare.  The first row that does not go forward builds
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
dependency cycle, and the question goes to an SCC pass, one per edge
generation until the verdict turns True: the batch checker's Tarjan
(:func:`repro.core.graph.component_index`) over int columns copied from the
edge keys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import graph as _g
from .conflicts import DEPENDENCY, DEPTH, FULL, ITEM, RW, WR, WRITE, WW
from .phenomena import VIEW_OF, Phenomenon

__all__ = ["ViewChain", "WW", "WR", "RW"]


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
    """G0 / G1c / G2-item / G2 presence over a growing set of flavoured edges.

    ``edges`` is the owner's edge store, held by reference: a dict (insertion
    ordered) keyed by ``(src, dst, kind, oid, vid, pid)`` tuples, of which
    only ``src``, ``dst``, ``kind`` and ``pid`` (0 = no predicate) are read
    here.  The owner inserts a key *before* calling :meth:`add` and deletes
    it before calling :meth:`remove`; the certificate scan, the replay and
    the SCC pass iterate the store itself.  ``rank`` is the owner's node ->
    rank dict, also held by reference: both ends of an edge have an entry
    before it is added, and an entry never changes.

    Verdicts are permanent.  That is sound for a growing edge set, and for
    the one removal the online analysis performs — a version-chain repair,
    which replaces edges with transitive refinements (a mid-chain insert
    turns ``u->w`` into ``u->v, v->w``) and so can reroute a cycle but never
    break the last one.  :meth:`remove` is correct for removals of that
    shape only: it keeps the live view's monitor exact (a certified view
    stays certified: fewer rows cannot go backward) and never re-opens a
    latched view.
    """

    __slots__ = (
        "_edges", "_rank", "_metrics", "_live", "_monitor", "generation", "_passes"
    )

    def __init__(
        self,
        edges: Dict[tuple, bool],
        rank: Dict[int, int],
        metrics: Optional[object] = None,
    ):
        self._edges = edges
        self._rank = rank
        self._metrics = metrics
        #: Depth of the live view: views above it are latched cyclic, it and
        #: the views below are acyclic.  ``WRITE + 1`` = all latched.
        self._live = FULL
        #: The live view's monitor; ``None`` while the certificate covers the
        #: view (every row goes forward in rank) and once all are latched.
        self._monitor: Optional[_CycleMonitor] = None
        #: Bumped on every add/remove; SCC pass answers are cached against it.
        self.generation = 0
        self._passes: Dict[int, Tuple[int, bool]] = {}  # view -> (generation, present)

    def add(self, u: int, v: int, kind: int, pid: int) -> None:
        self.generation += 1
        if DEPTH[kind][pid != 0] < self._live:
            return
        monitor = self._monitor
        if monitor is None:
            rank = self._rank
            if rank[u] < rank[v]:
                return
            closed = self._replay()
        else:
            closed = monitor.add(u, v)
        if closed:
            self._latch()

    def remove(self, u: int, v: int, kind: int, pid: int) -> None:
        self.generation += 1
        if self._monitor is not None and DEPTH[kind][pid != 0] >= self._live:
            self._monitor.remove(u, v)

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
        for src, dst, kind, _oid, _vid, pid in self._edges:
            if DEPTH[kind][pid != 0] >= view and rank[src] >= rank[dst]:
                return False
        return True

    def _replay(self) -> bool:
        """Build the live view's monitor from the rows accumulated so far;
        True if they close a cycle."""
        live = self._live
        monitor = self._monitor = _CycleMonitor()
        add = monitor.add
        for src, dst, kind, _oid, _vid, pid in self._edges:
            if DEPTH[kind][pid != 0] >= live and add(src, dst):
                return True
        return False

    def present(self, phenomenon: Phenomenon) -> bool:
        """Presence of ``phenomenon`` (G0, G1c, G2-item or G2) over the
        edges added so far."""
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
        """One SCC pass over the edge keys — int rows, no :class:`Edge`
        objects: does an anti-dependency row of ``view`` lie inside a
        component of it?  Without an edge that separates them the full and
        item views coincide and the answer is recorded for both."""
        src: List[int] = []
        dst: List[int] = []
        anti: List[int] = []
        coincide = True
        for u, v, kind, _oid, _vid, pid in self._edges:
            depth = DEPTH[kind][pid != 0]
            if depth < ITEM:
                coincide = False
            if depth < view:
                continue
            if depth < DEPENDENCY:
                anti.append(len(src))
            src.append(u)
            dst.append(v)
        comp = _g.component_index(_g.adjacency_of(range(len(src)), src, dst))
        present = any(comp[src[row]] == comp[dst[row]] for row in anti)
        answer = (self.generation, present)
        for same in (FULL, ITEM) if coincide else (view,):
            self._passes[same] = answer
        return present
