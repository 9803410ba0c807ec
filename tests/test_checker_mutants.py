"""Checker mutants: each must make some corpus history part from the reference.

Every mutant below is one small fault put into the checker by monkeypatch
(``src/`` untouched), where a refactor of the tables, views, certificates or
searches could put it.  Run against :mod:`tests.bounded_corpus`, the paths
of ``test_reference_agreement.py`` must disagree with
:mod:`tests.reference_definitions` on some history — the corpus *kills* the
mutant.  A mutant no corpus history can kill is listed in ``EQUIVALENT``
with the argument why; the unmutated checker kills nothing
(``test_reference_agreement.py``).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import (
    conflicts, cycles, dsg, extensions, graph, incremental, levels, phenomena,
)
from repro.core.conflicts import DEPENDENCY, FULL, ITEM, WR, WRITE
from repro.core.levels import IsolationLevel as L
from repro.core.phenomena import Phenomenon as G

from . import test_reference_agreement as agreement
from .bounded_corpus import interleaved


def depth_entry(mp):
    """``DEPTH``'s item read-dependency entry in the item view: wr rows
    leave G1c's view (the online checker reads ``DEPTH`` when loaded, so
    its flavour depths are re-derived as a reload would)."""
    depth = list(conflicts.DEPTH)
    depth[WR] = (ITEM, DEPENDENCY)
    mp.setattr(conflicts, "DEPTH", tuple(depth))
    mp.setattr(incremental, "_WR", ITEM)


def view_entry(mp):
    """G0 judged on the dependency view."""
    mp.setitem(phenomena.VIEW_OF, G.G0, DEPENDENCY)


def proscribed_row(mp):
    """PL-2.99 without G2-item."""
    mp.setitem(levels._PROSCRIBED, L.PL_2_99, (G.G1,))


class _WithoutPredicateReads:
    """A history whose predicate reads are hidden from one extractor."""

    predicate_reads = ()

    def __init__(self, history):
        self._history = history

    def __getattr__(self, name):
        return getattr(self._history, name)


def predicate_read_rows(mp):
    """``_read_rows`` drops its predicate rows."""
    read_rows = conflicts._read_rows
    mp.setattr(
        conflicts, "_read_rows",
        lambda table, history, mode: read_rows(table, _WithoutPredicateReads(history), mode),
    )


def predicate_anti_rows(mp):
    """``_anti_rows`` drops its predicate rows."""
    anti_rows = conflicts._anti_rows
    mp.setattr(
        conflicts, "_anti_rows",
        lambda table, history: anti_rows(table, _WithoutPredicateReads(history)),
    )


def forward_from_strict(mp):
    """``DSG._forward_from`` compares ranks with ``>``: a row between two
    setup transactions, both ranked -1, counts as going forward."""

    def _forward_from(self):
        rank = self.history._commit_rank.get
        deepest = -1
        for src, dst, depth in zip(self.table.src, self.table.dst, self.table.depth):
            if depth > deepest and rank(src, -1) > rank(dst, -1):
                deepest = depth
                if deepest == WRITE:
                    break
        return deepest + 1

    mp.setattr(dsg.DSG, "_forward_from", _forward_from)


def view_forward_strict(mp):
    """``ViewChain._forward`` compares ranks with ``>``."""

    def _forward(self, view):
        rank, table = self._rank, self._table
        return not any(
            depth >= view and rank[src] > rank[dst]
            for src, dst, depth in zip(table.src, table.dst, table.depth)
        )

    mp.setattr(cycles.ViewChain, "_forward", _forward)


def zero_budget(mp):
    """Every bounded search in ``graph`` is charged a zero budget."""
    search = graph._search
    mp.setattr(
        graph, "_search",
        lambda adj, src, dst, budget: search(
            adj, src, dst, budget if budget == graph._UNBOUNDED else 0
        ),
    )


def any_anti_count(mp):
    """G-single and G-SIb close an anti-dependency by any path, other
    anti-dependencies included: "exactly one" ignored."""

    def _single_anti(graph_):
        table, full = graph_.table, graph_.view(FULL)
        for row, depth in enumerate(table.depth):
            if depth < DEPENDENCY:
                path = graph.shortest_edge_path(full, table.dst[row], table.src[row])
                if path is not None:
                    return [row, *path]
        return None

    mp.setattr(extensions, "_single_anti", _single_anti)


def no_g1b(mp):
    """``IncrementalAnalysis._add_g1b`` does nothing."""
    mp.setattr(incremental.IncrementalAnalysis, "_add_g1b", lambda self, tid, vid: None)


MUTANTS = (
    depth_entry,
    view_entry,
    proscribed_row,
    predicate_read_rows,
    predicate_anti_rows,
    forward_from_strict,
    view_forward_strict,
    zero_budget,
    any_anti_count,
    no_g1b,
)

#: Mutants no history can kill, with the argument.
EQUIVALENT = {
    # ``graph.cycle_through`` gives a bounded search up when it runs out of
    # budget and decides the remaining rows by strongly connected
    # components, which answer the same question exactly ("does this row's
    # target reach its source?").  A zero budget only sends every search to
    # that fallback: the witness may differ, never the verdict.  The
    # unbounded searches (shortest paths of the extension phenomena) are
    # not charged.
    zero_budget: "the budget decides how a cycle is found, not whether",
}


def first_kill(entries):
    for entry in entries:
        found = agreement.disagreements(entry)
        if found:
            return entry, found
    return None


@pytest.fixture
def fresh(monkeypatch):
    # Prefixes compared under the unmutated checker must be compared again.
    monkeypatch.setattr(agreement, "_compared", set())
    return monkeypatch


@pytest.mark.parametrize(
    "mutant", [m for m in MUTANTS if m not in EQUIVALENT], ids=lambda m: m.__name__
)
def test_the_corpus_kills_the_mutant(mutant, fresh):
    mutant(fresh)
    assert first_kill(interleaved()) is not None, f"{mutant.__name__} survived"


@pytest.mark.parametrize("mutant", list(EQUIVALENT), ids=lambda m: m.__name__)
def test_an_equivalent_mutant_survives(mutant, fresh):
    # The whole corpus is ~13 s a mutant; every 25th history keeps each
    # family in the sample.
    mutant(fresh)
    assert first_kill(itertools.islice(interleaved(), 0, None, 25)) is None
