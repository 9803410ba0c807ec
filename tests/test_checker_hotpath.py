"""Structural guard for the batch checker: ``repro.check`` works on rows.

Counts, not timings (every number here is exact per input, so nothing can
flake), in the style of ``test_history_hotpath.py``.
``test_checker_golden.py`` pins *what* the checker says; this module pins how
much it does to say it, on the ladder's checker history at two sizes:

* :class:`~repro.core.conflicts.Edge` objects are built for the rows of the
  witness cycles and for nothing else (the object pipeline built one per
  conflict before any question was asked), with the extension levels too:
  there the only other ones are G-SIa's, one per interference witness (the
  extension phenomena built one per conflict and per start-order pair);
* the four cycle questions of the ANSI chain cost no strongly-connected-
  components pass on the ladder's multi-version history (its ww and ww+wr
  views go forward in commit order, and the search for G2's witness closes
  an anti-dependency row long before it runs out) nor on a history recorded
  under strict two-phase locking; on a G2-free history whose searches are
  long they cost one, after the searches have followed no more rows than
  the view holds;
* G1a and G1b hash no ``Version`` and ``check`` asks no version whether it is
  its writer's final one: the read scans walk the event log's int columns;
* the calls made grow with the events;
* the edge table travels through ``check_many``'s process pool.
"""

from __future__ import annotations

import functools
import sys
import types

import pytest

import repro
from repro.core import conflicts, graph, ssg
from repro.core.events import Commit, Read, Write
from repro.core.history import History
from repro.core.objects import Version
from repro.workloads import synthetic_history

from .test_simulator_golden import CONFIGS as SIMULATOR_CONFIGS

SMALL, LARGE = 1_000, 4_000  # transactions; 4x the events
#: Linear growth reads 4.0x; anything with a square in it reads 9x or more.
BOUND = 5.0


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


@functools.lru_cache(maxsize=None)
def _locking_history():
    return SIMULATOR_CONFIGS["locking_fleet"](1).history


class Tally:
    """Counts the calls of one module-level callable."""

    def __init__(self, monkeypatch, module, name: str):
        self.calls = 0
        inner = getattr(module, name)

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


EXTENSIONS = (
    repro.Phenomenon.G_SINGLE,
    repro.Phenomenon.G_SIA,
    repro.Phenomenon.G_SIB,
    repro.Phenomenon.G_SI,
    repro.Phenomenon.G_CURSOR,
    repro.Phenomenon.G_SS,
)


def _witness_edges(reports) -> int:
    """Total length of the distinct witness cycles the reports hold."""
    cycles = {
        id(w.cycle): w.cycle
        for r in reports
        for w in r.witnesses
        if w.cycle is not None
    }
    return sum(len(cycle) for cycle in cycles.values())


@pytest.mark.parametrize(
    "n_txns, extensions",
    [(SMALL, False), (LARGE, False), (SMALL, True)],
    ids=[str(SMALL), str(LARGE), f"{SMALL}-extensions"],
)
def test_edges_are_built_for_witnesses_only(monkeypatch, n_txns, extensions):
    history = _ladder_history(n_txns)
    built = Tally(monkeypatch, conflicts, "Edge")
    started = Tally(monkeypatch, ssg, "Edge")
    report = repro.check(history, extensions=extensions)
    assert report.exhibited() == (repro.Phenomenon.G2_ITEM, repro.Phenomenon.G2)
    if extensions:
        reports = report.phenomena() + tuple(report.analysis.reports(EXTENSIONS))
        interference = report.analysis.report(repro.Phenomenon.G_SIA).witnesses
        assert len(interference) > n_txns and _witness_edges(reports) > 10
        assert 0 < built.calls + started.calls <= (
            _witness_edges(reports) + len(interference)
        )
        return
    assert started.calls == 0
    assert 0 < built.calls <= _witness_edges(report.phenomena())
    # ... and all of them once somebody asks.
    assert len(report.analysis.edges) > 5 * n_txns
    assert built.calls == len(report.analysis.edges)


@pytest.mark.parametrize("n_txns", [SMALL, LARGE])
def test_no_component_pass_on_a_multiversion_history(monkeypatch, n_txns):
    passes = Tally(monkeypatch, graph, "strongly_connected_components")
    report = repro.check(_ladder_history(n_txns))
    assert str(report.strongest_level) == "PL-2"
    assert passes.calls == 0


@functools.lru_cache(maxsize=None)
def _long_search_history(n_writers: int = 3_000, n_readers: int = 4):
    """G2-free, with every anti-dependency row backward in commit order and
    every search from one long: writer ``i`` writes ``y`` (a ww chain through
    all of them) and its own ``x<i>``; reader ``j``, which reads first and
    commits last, reads the setup version of ``x<j>``.  The anti-dependency
    row ``reader j -> writer j`` sends a search down the rest of the chain,
    which never leads back to a reader."""
    readers = range(n_writers + 1, n_writers + 1 + n_readers)
    events = [Read(tid, Version(f"x{j}", 0)) for j, tid in enumerate(readers, 1)]
    for i in range(1, n_writers + 1):
        events += [Write(i, Version("y", i)), Write(i, Version(f"x{i}", i)), Commit(i)]
    events += [Commit(tid) for tid in readers]
    return History(events)


class _Walked:
    """A node's row list that counts the rows a walk takes from it."""

    def __init__(self, rows, walks):
        self.rows, self.walks = rows, walks

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        for row in self.rows:
            self.walks.rows += 1
            yield row


def test_the_searches_run_out_after_one_pass_over_the_view(monkeypatch):
    """The G2 witness search follows no more rows than the view holds before
    the components decide: one component pass, and the rows followed before
    it bounded by the row count (without the bound the searches follow the
    chain from every writer a reader's row points at, and never compute the
    components)."""
    walks = types.SimpleNamespace(rows=0)
    before = []  # rows walked when each component pass starts
    adjacency_of, components = graph.adjacency_of, graph.strongly_connected_components

    def walked_adjacency(rows, src, dst):
        adj = adjacency_of(rows, src, dst)
        walked = {node: _Walked(out, walks) for node, out in adj.rows.items()}
        return graph.Adjacency(walked, src, dst)

    def noted_components(adj, nodes=()):
        before.append(walks.rows)
        return components(adj, nodes)

    monkeypatch.setattr(graph, "adjacency_of", walked_adjacency)
    monkeypatch.setattr(graph, "strongly_connected_components", noted_components)
    history = _long_search_history()
    report = repro.check(history)
    assert report.exhibited() == () and report.serializable
    view_rows = len(report.analysis.dsg.table.src)
    assert len(before) == 1
    # Not vacuous: the first search followed the chain to its end.
    assert view_rows // 2 < before[0] <= view_rows


def test_no_component_pass_on_a_locking_history(monkeypatch):
    passes = Tally(monkeypatch, graph, "strongly_connected_components")
    built = Tally(monkeypatch, conflicts, "Edge")
    report = repro.check(_locking_history())
    assert report.serializable
    assert passes.calls == 0 and built.calls == 0
    assert report.analysis.dsg.is_acyclic() and passes.calls == 0
    assert len(report.analysis.edges) > 100  # not vacuous: there were rows


@pytest.mark.parametrize("n_txns", [SMALL, LARGE])
def test_read_phenomena_hash_no_version(monkeypatch, n_txns):
    """G1a and G1b read the event log's int columns: a read is its reader,
    its interned version and that version's writer, and no ``Version`` is
    hashed (the object scans hashed one per read, probing
    ``setup_versions``)."""
    history = _ladder_history(n_txns)
    analysis = repro.Analysis(history)
    # A Version hashes and compares as its tuple, in C; the count below
    # would see any hash, Python or C, through the patched slot.
    assert Version.__hash__ is tuple.__hash__
    assert Version.__eq__ is tuple.__eq__
    hashes = Tally(monkeypatch, Version, "__hash__")
    g1a = analysis.report(repro.Phenomenon.G1A)
    g1b = analysis.report(repro.Phenomenon.G1B)
    assert hashes.calls == 0
    assert not g1a and not g1b
    # Not vacuous: there were reads to scan and aborted writers to look for.
    assert len(history.reads) > n_txns and history.aborted


@pytest.mark.parametrize("n_txns", [SMALL, LARGE])
def test_check_asks_no_version_whether_it_is_final(monkeypatch, n_txns):
    finals = Tally(monkeypatch, History, "is_final")
    repro.check(_ladder_history(n_txns))
    assert finals.calls == 0


def _calls(history) -> int:
    """Calls made while checking the history (Python functions and C
    builtins, as ``sys.setprofile`` reports them)."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        repro.check(history)
    finally:
        sys.setprofile(previous)
    return count


def test_calls_grow_with_the_events():
    small, large = _calls(_ladder_history(SMALL)), _calls(_ladder_history(LARGE))
    assert large <= BOUND * small, (
        f"{LARGE // SMALL}x the transactions took {large / small:.2f}x the "
        f"calls ({small} -> {large})"
    )


def test_the_table_crosses_the_process_pool():
    histories = [
        synthetic_history(
            n_txns=60, n_objects=6, ops_per_txn=4, stale_read_fraction=0.4,
            predicate_fraction=0.1, seed=seed,
        )
        for seed in range(6)
    ]
    serial = repro.check_many(histories, processes=1, extensions=True)
    pooled = repro.check_many(histories, processes=2, extensions=True)

    def said(report):
        return (
            report.explain(),
            [(str(e), e.describe(), e.cursor) for e in report.analysis.edges],
        )

    assert [said(r) for r in pooled] == [said(r) for r in serial]
    assert any(r.exhibited() for r in serial)
