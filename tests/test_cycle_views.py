"""``repro.core.cycles.ViewChain`` on its own: rows of an edge table in, G0 /
G1c / G2-item / G2 out.

``test_incremental_verdicts.py`` reaches the chain through 30-transaction
histories, whose graphs are sparse.  Here random insert-only streams of
flavoured edges over at most 12 nodes are appended as rows of an
:class:`~repro.core.conflicts.EdgeTable` — depth from
:data:`~repro.core.conflicts.DEPTH`, as the online checker appends them —
and read by the chain at its next answer, and after every insert (and,
in a second test, after every batch of inserts) the chain's answers are
compared with Section 5's definitions as
:mod:`tests.reference_definitions` states them, over the same arcs (not
read from the chain's table).  Both
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

from repro.core import cycles
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

from . import reference_definitions as ref

G0, G1C = Phenomenon.G0, Phenomenon.G1C
G2_ITEM, G2 = Phenomenon.G2_ITEM, Phenomenon.G2

Arc = namedtuple("Arc", "src dst kind pid")

#: The five edge flavours of Section 4.4 (ww has no predicate flavour).
FLAVOURS = [(WW, 0), (WR, 0), (WR, 1), (RW, 0), (RW, 1)]

#: Each view of the chain, largest first, by the phenomenon whose cycles it
#: holds.
VIEWS = {FULL: "G2", ITEM: "G2-item", DEPENDENCY: "G1c", WRITE: "G0"}


def as_reference(arc):
    return ref.Arc(arc.src, arc.dst, ("ww", "wr", "rw")[arc.kind], bool(arc.pid))


def in_view(view, arc):
    """Whether the reference keeps ``arc`` in the cycles of ``view``."""
    return ref.CYCLES[VIEWS[view]][0](as_reference(arc))


def expected(arcs):
    """(view -> cyclic?, phenomenon -> present?) by the reference."""
    mine = [as_reference(a) for a in arcs]
    cyclic = {
        view: ref.on_cycle([a for a in mine if ref.CYCLES[name][0](a)])
        for view, name in VIEWS.items()
    }
    present = ref.cycle_phenomena(mine)
    return cyclic, {p: present[str(p)] for p in (G0, G1C, G2_ITEM, G2)}


def append(table, arc):
    """Append ``arc`` as a row of ``table``, as the online checker does; the
    chain reads it at its next answer."""
    table.src.append(arc.src)
    table.dst.append(arc.dst)
    table.depth.append(DEPTH[arc.kind][arc.pid != 0])


def answers(chain):
    """The chain's four verdicts (reading the rows appended since the last
    answer), then which views it holds cyclic."""
    present = {p: chain.present(p) for p in (G0, G1C, G2_ITEM, G2)}
    return present, {view for view in VIEWS if view < chain._live}


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
        if in_view(chain._live, arc):
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
            append(table, arcs[-1])
            cyclic, present = expected(arcs)
            where = f"case {case} after {len(arcs)} edges"
            got, latched = answers(chain)
            assert got == present, where
            assert latched == {v for v, want in cyclic.items() if want}, where
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


def test_rows_read_in_batches_match_definition():
    # The online checker appends several rows per event and asks once in a
    # while: the chain reads whatever was appended since its last answer.
    rng = random.Random(23)
    batches = read_back_pass = 0
    for case in range(400):
        table = EdgeTable()
        keys, rank = stream(rng)
        chain = ViewChain(table, rank)
        arcs = []
        while len(arcs) < len(keys):
            before = chain._live
            for key in keys[len(arcs):len(arcs) + rng.randrange(1, 9)]:
                src, dst, kind, _oid, _vid, pid = key
                arcs.append(Arc(src, dst, kind, pid))
                append(table, arcs[-1])
            cyclic, present = expected(arcs)
            got, latched = answers(chain)
            where = f"case {case} after {len(arcs)} edges"
            assert got == present, where
            assert latched == {v for v, want in cyclic.items() if want}, where
            batches += 1
            read_back_pass += chain._live > before + 1
    # Not vacuous: a batch can latch more than one view at once.
    assert batches >= 1_000 and read_back_pass >= 50, (batches, read_back_pass)


class CountingRanks(dict):
    """Node ranks that count their lookups."""

    lookups = 0

    def __getitem__(self, node):
        self.lookups += 1
        return super().__getitem__(node)


def test_each_row_is_read_once(monkeypatch):
    # Asked after every append, the chain reads only the new row: two rank
    # lookups while the certificate holds, one monitor insert after it.
    adds = 0

    class Counted(_CycleMonitor):
        __slots__ = ()

        def add(self, u, v):
            nonlocal adds
            adds += 1
            return super().add(u, v)

    monkeypatch.setattr(cycles, "_CycleMonitor", Counted)
    n = 50
    rank = CountingRanks((node, node) for node in range(n + 1))
    a, b = n + 1, n + 2  # a -> b goes backward: rank[a] > rank[b]
    rank.update({a: 3 * n, b: 2 * n})
    rank.update((b + k, 3 * n + k) for k in range(1, 11))
    table = EdgeTable()
    chain = ViewChain(table, rank)
    for node in range(n):
        append(table, Arc(node, node + 1, RW, 0))
        answers(chain)
    assert rank.lookups == 2 * n and adds == 0
    append(table, Arc(a, b, RW, 0))
    answers(chain)  # the first backward row: a monitor replays every row
    assert chain._monitor is not None and adds == n + 1
    for node in range(b, b + 10):
        append(table, Arc(node, node + 1, RW, 0))
        answers(chain)
    assert adds == n + 11 and rank.lookups == 2 * (n + 1)
    assert answers(chain)[1] == set()  # no cycle anywhere


def test_generation_moves_on_an_append_and_on_a_tombstone():
    # SCC pass answers are cached against it: a repair that only tombstones
    # must not be answered from the pass before it.
    table = EdgeTable()
    chain = ViewChain(table, {1: 0, 2: 1})
    seen = {chain.generation}
    append(table, Arc(1, 2, WW, 0))
    seen.add(chain.generation)
    chain.remove(0)
    table.depth[0] = -1
    table.tombstones += 1
    seen.add(chain.generation)
    assert len(seen) == 3


def test_monitor_reports_the_insert_that_closes_the_first_cycle():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 10)
        monitor = _CycleMonitor()
        arcs = []
        for _ in range(4 * n):
            arc = Arc(rng.randrange(n), rng.randrange(n), WW, 0)
            arcs.append(arc)
            cyclic = ref.on_cycle(arcs, lambda a: a.src != a.dst)
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
    append(table, Arc(1, 2, kind, pid))
    assert answers(chain) == ({p: False for p in (G0, G1C, G2_ITEM, G2)}, set())
    append(table, Arc(2, 1, kind, pid))
    present, latched = answers(chain)
    assert latched == views
    assert {p for p, there in present.items() if there} == phenomena
