"""The bounded witness search against the components-first reference.

``repro.core.graph.cycle_through`` decides each given row ``a -> b`` by a
breadth-first search from ``b`` and computes the graph's components only
once its searches have followed as many rows as the graph holds;
``tests/reference_cycles.py`` keeps the routine it replaced (Tarjan first,
then the first row whose ends share a component, closed by a shortest path
back).  Both must return the same rows — the witness bytes of
``tests/test_checker_golden.py`` and ``tests/test_witness_golden.py`` depend
on it — for every caller:

* random multigraphs (parallel rows, self-loops, rows in any order), where
  small budgets run out often;
* the ``FULL`` and ``ITEM`` views of the checker-golden corpus, of seeded
  synthetic histories, of engine histories of every scheduler family and of
  histories whose searches are long, through :func:`view_witness` and
  ``DSG``'s own answers (``DSG.is_acyclic`` too, asked before and after the
  witness: a G1c cycle makes the full view cyclic with no anti-dependency
  row closing);
* the SSG's special rows (G-SS: its anti-dependency and start rows);
* the online checker's provenance witness (``witness_cycle``) and the MSG's.

Every test counts which way the rows were decided, and the graph and view
tests require each way to have been taken: closed by a search, left open by
the searches, and decided by the components after the searches ran out.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.core import graph
from repro.core.conflicts import DEPENDENCY, FULL, ITEM, EdgeTable, PredicateDepMode
from repro.core.dsg import DSG, view_adjacency, view_witness
from repro.core.events import Commit, Read, Write
from repro.core.history import History
from repro.core.incremental import IncrementalAnalysis
from repro.core.msg import MSG
from repro.core.objects import Version
from repro.core.phenomena import VIEW_OF, Phenomenon
from repro.core.ssg import SSG
from repro.engine import Database, Simulator, create_scheduler
from repro.observability.provenance import witness_cycle
from repro.workloads import WorkloadConfig, random_programs, synthetic_history

from .reference_cycles import reference_cycle_through, reference_shortest_path
from .test_checker_golden import HISTORIES as CHECKER_HISTORIES
from .test_checker_golden import SYNTHETIC
from .test_checker_hotpath import _long_search_history

#: How a row list was decided: (components asked?, witness found?).
Ways = Counter


def _components(adj: graph.Adjacency) -> List[List[int]]:
    return graph.strongly_connected_components(adj)


def _compare(
    adj: graph.Adjacency, special: Sequence[int], ways: Ways
) -> Optional[List[int]]:
    """The new routine's rows, asserted equal to the reference's."""
    expected = reference_cycle_through(adj, _components(adj), special)
    asked: List[bool] = []

    def components() -> List[List[int]]:
        asked.append(True)
        return _components(adj)

    got = graph.cycle_through(adj, iter(special), components)
    assert got == expected
    assert len(asked) <= 1
    ways[bool(asked), got is not None] += 1
    return got


def _require_every_way(ways: Ways) -> None:
    assert ways[False, True], "no search closed a row"
    assert ways[False, False], "no search left every row open"
    assert ways[True, True] + ways[True, False], "no search ran out"


# ---------------------------------------------------------------------------
# the routine on random graphs
# ---------------------------------------------------------------------------


def _random_graph(rng: random.Random) -> Tuple[graph.Adjacency, List[int]]:
    """A multigraph on at most 12 nodes (self-loops and parallel rows
    included) with its rows in random order, and some of its rows."""
    n = rng.randrange(1, 13)
    m = rng.randrange(0, 4 * n)
    src = [rng.randrange(n) for _ in range(m)]
    dst = [rng.randrange(n) for _ in range(m)]
    rows = rng.sample(range(m), m)
    special = rng.sample(rows, rng.randrange(0, m + 1))
    return graph.adjacency_of(rows, src, dst), special


def test_random_graphs():
    rng = random.Random(35)
    ways: Ways = Counter()
    for _ in range(3000):
        adj, special = _random_graph(rng)
        _compare(adj, special, ways)
        nodes = list(adj.rows) or [0]
        for _ in range(3):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert graph.shortest_edge_path(adj, a, b) == reference_shortest_path(
                adj, a, b
            )
    _require_every_way(ways)


# ---------------------------------------------------------------------------
# the checker's views, the SSG, the provenance witness and the MSG
# ---------------------------------------------------------------------------

#: ``synthetic_history`` sizes beyond the golden corpus's 40 transactions.
SYNTHETIC_SIZES = (120, 300)
#: Engine workloads for every scheduler family.
ENGINE_FAMILIES = (
    ("locking", {"profile": "degree-0"}),
    ("locking", {"profile": "read-committed"}),
    ("optimistic", {}),
    ("snapshot-isolation", {}),
    ("mixed-optimistic", {}),
)
ENGINE_WORKLOAD = WorkloadConfig(
    n_programs=24, steps_per_program=4, n_keys=8, hot_keys=3,
    hot_fraction=0.5, write_fraction=0.5, predicate_fraction=0.1,
    insert_fraction=0.05,
)


def _write_skew_after(history: History, first_tid: int) -> History:
    """``history`` followed by a write skew of two new transactions, whose
    anti-dependency rows come after the history's own."""
    t, u = first_tid, first_tid + 1
    return History(
        [
            *history.events,
            Read(t, Version("skew_a", 0)),
            Read(u, Version("skew_b", 0)),
            Write(t, Version("skew_b", t)),
            Write(u, Version("skew_a", u)),
            Commit(t),
            Commit(u),
        ]
    )


def _engine_history(family: str, options, seed: int) -> History:
    db = Database(create_scheduler(family, **options))
    db.load(ENGINE_WORKLOAD.initial_state())
    programs = random_programs(ENGINE_WORKLOAD, seed=seed)
    return Simulator(db, programs, seed=seed).run().history


@functools.lru_cache(maxsize=None)
def _corpus() -> Tuple[Tuple[str, History], ...]:
    out = [(name, make()) for name, make in CHECKER_HISTORIES.items()]
    for knob, knobs in SYNTHETIC.items():
        for n_txns in SYNTHETIC_SIZES:
            for seed in range(2):
                out.append(
                    (
                        f"synthetic/{knob}/{n_txns}/{seed}",
                        synthetic_history(
                            n_txns=n_txns, n_objects=n_txns // 8, ops_per_txn=5,
                            seed=seed, **knobs,
                        ),
                    )
                )
    for family, options in ENGINE_FAMILIES:
        for seed in range(4):
            name = f"engine/{family}/{options.get('profile', '')}/{seed}"
            out.append((name, _engine_history(family, options, seed)))
    for n_writers, n_readers in ((300, 4), (300, 40)):
        long = _long_search_history(n_writers, n_readers)
        out.append((f"long/{n_writers}/{n_readers}", long))
        skewed = _write_skew_after(long, n_writers + n_readers + 1)
        out.append((f"long/{n_writers}/{n_readers}/skew", skewed))
    return tuple(out)


def _anti_rows(table: EdgeTable, view: int) -> List[int]:
    return [row for row, depth in enumerate(table.depth) if view <= depth < DEPENDENCY]


def _edges(table: EdgeTable, rows: Optional[List[int]]):
    return None if rows is None else [table.edge(row) for row in rows]


def _acyclic(adj: graph.Adjacency) -> bool:
    return all(len(scc) < 2 for scc in _components(adj))


@pytest.mark.parametrize("mode", list(PredicateDepMode), ids=lambda m: m.value)
def test_dsg_views(mode):
    ways: Ways = Counter()
    for name, history in _corpus():
        dsg, first_asked = DSG(history, mode), DSG(history, mode)
        table = dsg.table
        for view in (FULL, ITEM):
            adj = view_adjacency(table, view)
            rows = _compare(adj, _anti_rows(table, view), ways)
            components = functools.partial(_components, adj)
            assert view_witness(table, view, adj, components) == rows
            cycle = dsg._view_cycle(view)
            assert _edges(table, rows) == (None if cycle is None else list(cycle.edges))
            acyclic = _acyclic(adj)
            assert dsg._acyclic(view) == acyclic, name
            assert first_asked._acyclic(view) == acyclic, name
    _require_every_way(ways)


@pytest.mark.parametrize("mode", list(PredicateDepMode), ids=lambda m: m.value)
def test_ssg_special_rows(mode):
    ways: Ways = Counter()
    for _name, history in _corpus():
        table = SSG(history, mode).table
        special = [
            row
            for row, (depth, version) in enumerate(zip(table.depth, table.version))
            if depth < DEPENDENCY or version is None
        ]
        _compare(view_adjacency(table, FULL), special, ways)
    assert ways[False, True] and ways[False, False]


@pytest.mark.parametrize("order_mode", ["event", "commit"])
def test_provenance_witness(order_mode):
    ways: Ways = Counter()
    for _name, history in _corpus():
        inc = IncrementalAnalysis(order_mode=order_mode).add_all(history.events)
        table = inc._table
        for phenomenon in (Phenomenon.G2_ITEM, Phenomenon.G2):
            view = VIEW_OF[phenomenon]
            adj = view_adjacency(table, view)
            rows = _compare(adj, _anti_rows(table, view), ways)
            assert witness_cycle(inc, phenomenon) == _edges(table, rows)
    assert ways[False, True] and ways[False, False]


@pytest.mark.parametrize("mode", list(PredicateDepMode), ids=lambda m: m.value)
def test_msg_witness(mode):
    for _name, history in _corpus():
        msg = MSG(history, mode)
        sccs = graph.strongly_connected_components(msg._adj, msg._nodes)
        expected: Optional[List[int]] = None
        for scc in sccs:
            if len(scc) >= 2:
                members = set(scc)
                inside = [row for row in msg._rows if msg._table.src[row] in members]
                expected = reference_cycle_through(msg._adj, sccs, inside)
                break
        cycle = msg.find_cycle()
        assert _edges(msg._table, expected) == (
            None if cycle is None else list(cycle.edges)
        )


def test_the_corpus_reaches_its_shapes():
    """Not vacuous: the corpus holds G2 witnesses, G2-free histories and a
    G1c history whose full view has no anti-dependency row closing."""
    kinds = set()
    for _name, history in _corpus():
        dsg = DSG(history)
        table = dsg.table
        adj = view_adjacency(table, FULL)
        closes = reference_cycle_through(adj, _components(adj), _anti_rows(table, FULL))
        kinds.add((closes is not None, _acyclic(view_adjacency(table, DEPENDENCY))))
    assert kinds >= {(True, True), (False, True), (False, False)}

