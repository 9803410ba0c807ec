"""``repro.core.cycles.ViewChain`` on its own: rows of an edge table in, G0 /
G1c / G2-item / G2 out.

``test_incremental_verdicts.py`` reaches the chain through 30-transaction
histories, whose graphs are sparse.  Here random insert-only streams of
flavoured edges over at most 12 nodes are appended as rows of an
:class:`~repro.core.conflicts.EdgeTable` — depth from
:data:`~repro.core.conflicts.DEPTH`, as the online checker appends them —
and fed straight in, and after every insert the chain's answers are
compared with Section 5's definitions,
computed with ``graph.component_index`` over the same arcs, as rows of int
columns, by rules written out below (not read from the chain's table).  Both
ways of answering G2 / G2-item must be reached, and are counted: from the
monitors alone while the ww+wr view is acyclic, and by the SCC pass once G1c
is present.  So must both ways of tracking the live view: by the commit-rank
certificate (no monitor) while its rows go forward in the nodes' ranks, and
by a monitor from the insert that first goes backward — including ranks
shared by several setup nodes, between which no edge goes forward.
"""

import random
from collections import namedtuple

import pytest

from repro.core import graph
from repro.core.conflicts import (
    DEPENDENCY,
    DEPTH,
    FULL,
    ITEM,
    RW,
    WR,
    WRITE,
    WW,
    EdgeTable,
)
from repro.core.cycles import ViewChain, _CycleMonitor
from repro.core.phenomena import Phenomenon

G0, G1C = Phenomenon.G0, Phenomenon.G1C
G2_ITEM, G2 = Phenomenon.G2_ITEM, Phenomenon.G2

Arc = namedtuple("Arc", "src dst kind pid")

#: The five edge flavours of Section 4.4 (ww has no predicate flavour).
FLAVOURS = [(WW, 0), (WR, 0), (WR, 1), (RW, 0), (RW, 1)]

#: The paper's edge filter of each view, largest view first.
KEEPS = {
    FULL: lambda a: True,
    ITEM: lambda a: not (a.kind == RW and a.pid),
    DEPENDENCY: lambda a: a.kind != RW,
    WRITE: lambda a: a.kind == WW,
}


def components(arcs):
    """``node -> component id`` of the graph whose row ``i`` is ``arcs[i]``."""
    src = [a.src for a in arcs]
    dst = [a.dst for a in arcs]
    return graph.component_index(graph.adjacency_of(range(len(arcs)), src, dst))


def definition(arcs):
    """(view -> cyclic?, phenomenon -> present?) from the definitions."""
    cyclic, through_rw = {}, {}
    for view, keep in KEEPS.items():
        kept = [a for a in arcs if keep(a)]
        comp = components(kept)
        on_cycle = [a for a in kept if comp[a.src] == comp[a.dst]]
        cyclic[view] = bool(on_cycle)
        through_rw[view] = any(a.kind == RW for a in on_cycle)
    return cyclic, {
        G0: cyclic[WRITE],
        G1C: cyclic[DEPENDENCY],
        G2_ITEM: through_rw[ITEM],
        G2: through_rw[FULL],
    }


def append(table, chain, arc):
    """Append ``arc`` as a row of ``table``, then hand it to ``chain``, as
    the online checker does."""
    depth = DEPTH[arc.kind][arc.pid != 0]
    table.src.append(arc.src)
    table.dst.append(arc.dst)
    table.depth.append(depth)
    chain.add(arc.src, arc.dst, depth)


def stream(rng):
    """Distinct edge keys joining distinct nodes, mostly along one hidden
    ranking of the nodes, and the node ranks the chain certifies against.

    The ranks are that hidden ranking, so the chain certifies for a while
    and falls back to a monitor at a back edge, which then reorders for a
    while before a back edge closes a cycle; in about half the streams up to
    three nodes are "setup" nodes sharing rank -1 (an edge into one, or
    between two, never goes forward).  The flavour mix varies from stream to
    stream."""
    n = rng.randrange(3, 13)
    order = rng.sample(range(n), n)
    rank = dict(enumerate(order))
    for node in rng.sample(range(n), rng.choice((0, 0, 0, 1, 2, 3))):
        rank[node] = -1
    weights = [rng.choice((0, 1, 1, 4)) for _ in FLAVOURS]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    back = rng.choice((0.02, 0.1, 0.5))
    keys = {}
    for _ in range(rng.randrange(5, 6 * n)):
        u, v = rng.sample(range(n), 2)
        if (order[u] > order[v]) != (rng.random() < back):
            u, v = v, u
        kind, pid = rng.choices(FLAVOURS, weights)[0]
        # A few objects, so one pair of nodes is joined by several keys.
        keys.setdefault((u, v, kind, rng.randrange(3), 0, pid), False)
    return list(keys), rank


def assert_topological(chain, arcs):
    """The live monitor ranks every node of its view before its successors."""
    order = chain._monitor.order
    for arc in arcs:
        if KEEPS[chain._live](arc):
            assert order[arc.src] < order[arc.dst], (chain._live, arc)


def test_every_insert_matches_definition():
    rng = random.Random(22)
    regimes = {
        "monitor_only": 0, "scc_true": 0, "scc_false": 0, "ordered": 0,
        # The commit-rank certificate: a live view answered with no monitor,
        # an insert that ended a certified view's certificate, and inserts
        # touching a setup node.
        "certified": 0, "fell_back": 0, "setup": 0,
    }
    latched_at = set()
    for case in range(400):
        table = EdgeTable()
        keys, rank = stream(rng)
        chain = ViewChain(table, rank)
        arcs = []
        for key in keys:
            certified = chain._monitor is None and chain._live <= WRITE
            src, dst, kind, _oid, _vid, pid = key
            arcs.append(Arc(src, dst, kind, pid))
            append(table, chain, arcs[-1])
            cyclic, present = definition(arcs)
            where = f"case {case} after {len(arcs)} edges"
            for view, want in cyclic.items():
                assert (view < chain._live) == want, (where, view)
            for phenomenon, want in present.items():
                assert chain.present(phenomenon) == want, (where, phenomenon)
            if chain._monitor is not None:
                assert_topological(chain, arcs)
                regimes["ordered"] += 1
                regimes["fell_back"] += certified
            elif chain._live <= WRITE:
                regimes["certified"] += 1
            regimes["setup"] += rank[src] == -1 or rank[dst] == -1
            if chain._live > DEPENDENCY:
                regimes["scc_true" if present[G2] else "scc_false"] += 1
            elif present[G2]:
                regimes["monitor_only"] += 1
        latched_at.add(chain._live)
    assert latched_at == {FULL, ITEM, DEPENDENCY, WRITE, WRITE + 1}
    assert min(regimes.values()) >= 100, regimes


def test_monitor_reports_the_insert_that_closes_the_first_cycle():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 10)
        monitor = _CycleMonitor()
        arcs = []
        for _ in range(4 * n):
            arc = Arc(rng.randrange(n), rng.randrange(n), WW, 0)
            arcs.append(arc)
            comp = components(arcs)
            cyclic = any(
                a.src != a.dst and comp[a.src] == comp[a.dst] for a in arcs
            )
            assert monitor.add(arc.src, arc.dst) == cyclic
            if cyclic:
                break
            for a in arcs:
                if a.src != a.dst:
                    assert monitor.order[a.src] < monitor.order[a.dst]


@pytest.mark.parametrize(
    "flavour,views,phenomena",
    [
        ((WW, 0), {FULL, ITEM, DEPENDENCY, WRITE}, {G0, G1C}),
        ((WR, 0), {FULL, ITEM, DEPENDENCY}, {G1C}),
        ((WR, 1), {FULL, ITEM, DEPENDENCY}, {G1C}),
        ((RW, 0), {FULL, ITEM}, {G2_ITEM, G2}),
        ((RW, 1), {FULL}, {G2}),
    ],
    ids=["ww", "wr", "wr-predicate", "rw", "rw-predicate"],
)
def test_two_cycle_of_one_flavour_enters_exactly_its_views(
    flavour, views, phenomena
):
    kind, pid = flavour
    table = EdgeTable()
    chain = ViewChain(table, {1: 0, 2: 1})
    for src, dst in ((1, 2), (2, 1)):
        assert chain._live == FULL
        append(table, chain, Arc(src, dst, kind, pid))
    assert {view for view in KEEPS if view < chain._live} == views
    assert {p for p in (G0, G1C, G2_ITEM, G2) if chain.present(p)} == phenomena
