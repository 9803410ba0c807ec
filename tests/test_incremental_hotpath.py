"""Structural guard for the online checker: ``IncrementalAnalysis`` certifies
from commit ranks.

Counts, not timings (every number here is exact per input, so nothing can
flake), in the shape of ``test_checker_hotpath.py``.
``test_cycle_views.py`` holds the view chain to the definitions; this module
pins how much it does on the histories the service and the ladder feed it.
Every node of the DSG gets a rank when it enters (its place in commit order,
-1 for a setup installer), and while every edge of the live view goes
forward in rank the view is certified acyclic with no
:class:`~repro.core.cycles._CycleMonitor` at all (a Pearce–Kelly monitor
kept from the start would be fed every edge of the live view):

* a locking ``run_stress`` — the ladder's ``svc_single`` config — builds no
  monitor (one kept from the start takes 3,840 inserts there);
* nor does the recorder history of ``test_simulator_golden``'s
  ``locking_fleet`` config;
* on the ladder's multi-version history a monitor is fed only while a view
  holding its backward anti-dependencies is live; once the ww+wr view is
  live (certified) no monitor exists.

The analysis keeps its edges as the rows of one
:class:`~repro.core.conflicts.EdgeTable`, which the view chain and the
provenance witness read in place:

* a witness builds no more :class:`~repro.core.conflicts.Edge` objects than
  it has edges (flattening every edge into a second table built one per
  edge);
* the SCC pass that answers G2 / G2-item while G1c is present hands the
  graph routines the table's own ``src`` / ``dst`` columns, not copies;
* appending a row calls nothing in the view chain: the chain reads the
  rows appended since its last answer at the next query, each row once;
* each read or write is one probe of the analysis's ``(obj, tid, seq)`` ->
  vid dict, and no :class:`~repro.core.objects.Version` is hashed or
  compared on the way;
* a ``watch`` set is asked again only after the edge rows, tombstones or
  G1a/G1b witness sets moved, and every latch still fires at the event
  where a monitor asked after every event first sees the phenomenon.
"""

from __future__ import annotations

import collections
import functools
import inspect

import pytest

import repro
from repro.core import cycles, graph
from repro.core.conflicts import Edge
from repro.core.events import Commit, PredicateRead, Read, Write
from repro.core.incremental import IncrementalAnalysis
from repro.core.levels import IsolationLevel
from repro.core.objects import Version
from repro.core.phenomena import Phenomenon
from repro.observability.provenance import DEFAULT_WATCH, witness_cycle
from repro.service import NetworkConfig, StressConfig, run_stress
from repro.workloads import synthetic_history

from .test_simulator_golden import CONFIGS as SIMULATOR_CONFIGS
from .test_witness_golden import HISTORIES as WITNESS_HISTORIES

#: ``_CycleMonitor.add`` calls on the ladder's history per size: the full
#: and item views' replays and inserts up to their first cycle (monitors kept
#: for the whole feed take 4,869 and 19,922).
MONITOR_ADDS = {1_000: 142, 4_000: 1_022}


@functools.lru_cache(maxsize=None)
def _ladder_history(n_txns: int):
    return synthetic_history(
        n_txns=n_txns,
        n_objects=n_txns // 10,
        ops_per_txn=5,
        stale_read_fraction=0.5,
        write_fraction=0.6,
        seed=1,
        validate=False,
    )


class Monitors:
    """Counts :class:`~repro.core.cycles._CycleMonitor` constructions and
    inserts, and the inserts made by the time the ww+wr view went live."""

    def __init__(self, monkeypatch):
        self.built = 0
        self.adds = 0
        self.adds_when_dependency_live = None
        tally = self

        class Counted(cycles._CycleMonitor):
            __slots__ = ()

            def __init__(self):
                tally.built += 1
                super().__init__()

            def add(self, u, v):
                tally.adds += 1
                return super().add(u, v)

        latch = cycles.ViewChain._latch

        def latching(chain):
            latch(chain)
            if chain._live >= cycles.DEPENDENCY and (
                tally.adds_when_dependency_live is None
            ):
                tally.adds_when_dependency_live = tally.adds

        monkeypatch.setattr(cycles, "_CycleMonitor", Counted)
        monkeypatch.setattr(cycles.ViewChain, "_latch", latching)


def test_a_locking_stress_run_builds_no_monitor(monkeypatch):
    monitors = Monitors(monkeypatch)
    # The ladder's svc_single input for seed 1 (its first sub-seed).
    result = run_stress(StressConfig(
        seed=4, txns_per_client=60, scheduler="locking", clients=8, keys=16,
        ops_per_txn=4, network=NetworkConfig(min_delay=1, max_delay=3),
    ))
    assert result.committed == 480 and result.all_certified
    assert result.monitor.strongest_level() is IsolationLevel.PL_3
    assert result.monitor.edges_inserted > 1_000  # not vacuous
    assert monitors.built == 0 and monitors.adds == 0


@pytest.mark.parametrize("order_mode", ["event", "commit"])
def test_a_locking_recorder_history_builds_no_monitor(monkeypatch, order_mode):
    monitors = Monitors(monkeypatch)
    history = SIMULATOR_CONFIGS["locking_fleet"](1).history
    analysis = IncrementalAnalysis(order_mode=order_mode).add_all(history.events)
    assert analysis.strongest_level() is IsolationLevel.PL_3
    assert analysis.edges_inserted > 100
    assert monitors.built == 0 and monitors.adds == 0


@pytest.mark.parametrize("n_txns", sorted(MONITOR_ADDS))
def test_monitors_run_only_before_the_dependency_view_is_live(
    monkeypatch, n_txns
):
    monitors = Monitors(monkeypatch)
    analysis = IncrementalAnalysis(order_mode="commit")
    for event in _ladder_history(n_txns).events:
        analysis.add(event)
    analysis.finish()
    assert analysis.strongest_level() is IsolationLevel.PL_2
    chain = analysis._cycles
    # Full and item views latched (G2), ww+wr live and certified.
    assert chain._live == cycles.DEPENDENCY and chain._monitor is None
    assert monitors.built == 2
    assert monitors.adds == monitors.adds_when_dependency_live
    assert monitors.adds == MONITOR_ADDS[n_txns]
    assert analysis.edges_inserted > 5 * n_txns


@pytest.mark.parametrize("order_mode", ["event", "commit"])
def test_a_witness_builds_only_its_own_edges(monkeypatch, order_mode):
    analysis = IncrementalAnalysis(order_mode=order_mode)
    analysis.add_all(_ladder_history(1_000).events).finish()
    built = 0
    init = Edge.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counted)
    witnesses = [
        witness_cycle(analysis, p)
        for p in (Phenomenon.G0, Phenomenon.G1C, Phenomenon.G2_ITEM, Phenomenon.G2)
    ]
    length = sum(len(w) for w in witnesses if w is not None)
    assert length >= 10  # not vacuous: G2 and G2-item in both orders
    assert 0 < built <= length
    # Flattening every edge into a second table would build this many.
    assert analysis.edges_inserted > 100 * length


def _calls_into_the_view_chain(monkeypatch):
    """Counts calls of every method of ``ViewChain``, by name."""
    calls = collections.Counter()
    for name, member in list(vars(cycles.ViewChain).items()):
        if inspect.isfunction(member) and name != "__init__":

            def counted(*args, _name=name, _member=member, **kwargs):
                calls[_name] += 1
                return _member(*args, **kwargs)

            monkeypatch.setattr(cycles.ViewChain, name, counted)
    return calls


@pytest.mark.parametrize("order_mode", ["event", "commit"])
def test_appending_rows_costs_the_view_chain_nothing(monkeypatch, order_mode):
    # The chain reads the rows appended since its last answer itself, at
    # the next query; a feed with no query calls into it only to tombstone
    # a row it may have read (a repair, "event" order only).
    calls = _calls_into_the_view_chain(monkeypatch)
    analysis = IncrementalAnalysis(order_mode=order_mode)
    analysis.add_all(_ladder_history(1_000).events).finish()
    table = analysis._table
    assert len(table) > 5_000  # not vacuous
    assert dict(calls) == ({"remove": table.tombstones} if table.tombstones else {})
    assert (order_mode == "event") == (table.tombstones > 0)
    calls.clear()
    assert analysis.strongest_level() is analysis.check().strongest_level
    assert calls["_read_rows"] >= 1


def test_the_view_chain_reads_each_row_once(monkeypatch):
    # The service's shape: a level query after every commit.  Each query
    # reads only the rows appended since the last one.
    read = 0
    read_rows = cycles.ViewChain._read_rows

    def counted(chain):
        nonlocal read
        read += len(chain._table) - chain._read
        read_rows(chain)

    monkeypatch.setattr(cycles.ViewChain, "_read_rows", counted)
    analysis = IncrementalAnalysis(order_mode="commit")
    queries = 0
    for event in _ladder_history(1_000).events:
        analysis.add(event)
        if isinstance(event, Commit):
            analysis.provides(IsolationLevel.PL_3)
            queries += 1
    assert analysis.strongest_level() is IsolationLevel.PL_2
    assert queries > 500 and read == len(analysis._table)


class CountingDict(dict):
    """A dict that counts ``setdefault`` and ``get`` probes."""

    probes = 0

    def setdefault(self, key, default=None):
        self.probes += 1
        return super().setdefault(key, default)

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


@pytest.mark.parametrize(
    "history",
    [
        pytest.param(lambda: _ladder_history(1_000), id="ladder-1000"),
        pytest.param(
            lambda: synthetic_history(
                n_txns=300, n_objects=30, stale_read_fraction=0.5,
                predicate_fraction=0.2, seed=3,
            ),
            id="predicates-300",
        ),
    ],
)
@pytest.mark.parametrize("order_mode", ["event", "commit"])
def test_one_intern_probe_per_read_or_write(history, order_mode):
    # Each version mention is one probe of the analysis's interner (version
    # -> vid), hit or miss; a new object adds two (its unborn version, which
    # is interned first, then the retry).  A commit re-resolves nothing it
    # was told at the write.  The probes hash and compare versions as
    # tuples, in C.
    assert Version.__hash__ is tuple.__hash__
    assert Version.__eq__ is tuple.__eq__
    events = history().events
    analysis = IncrementalAnalysis(order_mode=order_mode)
    analysis._in.version_id = CountingDict()
    analysis.add_all(events).finish()
    analysis.strongest_level()
    mentions = sum(
        len(ev.vset) if isinstance(ev, PredicateRead) else 1
        for ev in events
        if isinstance(ev, (Read, Write, PredicateRead))
    )
    objects = analysis._in.objects
    assert analysis._in.version_id.probes == mentions + 2 * len(objects)
    # Today's id order: each object's unborn version before its others.
    versions = analysis._in.versions
    first = {}
    for vid, version in enumerate(versions):
        first.setdefault(version.obj, vid)
    assert all(versions[first[obj]].is_unborn for obj in objects)


def test_the_scc_pass_reads_the_table_in_place(monkeypatch):
    columns = []
    adjacency_of = graph.adjacency_of

    def recording(rows, src, dst):
        columns.append((src, dst))
        return adjacency_of(rows, src, dst)

    monkeypatch.setattr(graph, "adjacency_of", recording)
    analysis = IncrementalAnalysis()
    # A wr/wr cycle (G1c), then a write-skew-shaped anti-dependency cycle.
    history = repro.parse_history(
        "w1(x1) w2(y2) r1(y2) r2(x1) c1 c2 r3(x1) r4(z0) w4(x4) c4 w3(z3) c3"
    )
    for event in history.events:
        analysis.add(event)
        analysis.exhibits(Phenomenon.G2)
        analysis.exhibits(Phenomenon.G2_ITEM)
    assert analysis.exhibits(Phenomenon.G1C) and analysis.exhibits(Phenomenon.G2)
    assert columns, "no SCC pass ran"
    table = analysis._table
    assert all(src is table.src and dst is table.dst for src, dst in columns)


#: Every core phenomenon; G1 is answered from G1a, G1b and G1c.
WATCHED = DEFAULT_WATCH + (Phenomenon.G1,)


def _state(analysis):
    """What every ``exhibits`` answer is a function of."""
    table = analysis._table
    return (
        len(table.src), table.tombstones, len(analysis._g1a), len(analysis._g1b)
    )


@pytest.mark.parametrize("order_mode", ["event", "commit"])
def test_watched_phenomena_are_asked_only_after_a_change(monkeypatch, order_mode):
    asked = {"calls": 0, "depth": 0}
    exhibits = IncrementalAnalysis.exhibits

    def counted(analysis, phenomenon):
        # Outermost calls only: G1 asks G1a, G1b and G1c itself.
        asked["calls"] += asked["depth"] == 0
        asked["depth"] += 1
        try:
            return exhibits(analysis, phenomenon)
        finally:
            asked["depth"] -= 1

    events = changes = 0
    for name, build in WITNESS_HISTORIES.items():
        history = build()
        plain = IncrementalAnalysis(order_mode=order_mode)
        first = {}
        for i, event in enumerate(history.events):
            plain.add(event)
            for ph in WATCHED:
                if ph not in first and plain.exhibits(ph):
                    first[ph] = i
        fired = {}
        watched = IncrementalAnalysis(
            order_mode=order_mode,
            watch=WATCHED,
            on_phenomenon=lambda ph, a: fired.setdefault(ph, len(a.events) - 1),
        )
        monkeypatch.setattr(IncrementalAnalysis, "exhibits", counted)
        before = None
        for event in history.events:
            watched.add(event)
            state = _state(watched)
            changes += state != before
            before = state
        monkeypatch.setattr(IncrementalAnalysis, "exhibits", exhibits)
        events += len(history.events)
        assert fired == first, name
    assert asked["calls"] <= changes * len(WATCHED)
    assert changes < events  # the skip is taken on this corpus
