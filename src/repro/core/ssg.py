"""Start-ordered serialization graphs (Adya's thesis, Chapter 4).

Snapshot Isolation constrains not just what committed transactions read and
wrote but *when they started* relative to each other's commits.  The
start-ordered serialization graph ``SSG(H)`` is ``DSG(H)`` plus a
*start-dependency* edge ``T_i --so--> T_j`` whenever ``T_i``'s commit event
precedes ``T_j``'s start.

A transaction's start is its ``Begin`` event if it has one, else its first
event; histories written without ``Begin`` events therefore still have a
well-defined (if late) start point.  Implicit setup transactions committed
before the history began, so they start-precede every event transaction.

The start dependencies are rows with no version appended to a copy of the
DSG's edge table, in its ``DEPENDENCY`` view (a start dependency counts as a
dependency edge); one becomes an :class:`Edge` only when asked for.
"""

from __future__ import annotations

from typing import List, Tuple

from .conflicts import DEPENDENCY, Edge, EdgeTable, PredicateDepMode
from .dsg import DSG
from .history import History

__all__ = ["start_dependencies", "SSG", "starts_before"]


def _commit_and_start(history: History, tid: int) -> Tuple[int, int]:
    """``T_tid``'s commit and start as event indices: both -1 for a setup
    transaction (before every event, after nothing), the commit past the
    last event for a transaction that never commits."""
    if tid in history.setup_tids:
        return -1, -1
    commit = history.commit_index(tid)
    if commit is None:
        commit = len(history.events)
    return commit, history.begin_index(tid)


def starts_before(history: History, ti: int, tj: int) -> bool:
    """Whether committed ``T_i``'s commit precedes ``T_j``'s start.

    Setup transactions (no events) precede everything; nothing precedes a
    setup transaction.
    """
    return _commit_and_start(history, ti)[0] < _commit_and_start(history, tj)[1]


def _start_rows(table: EdgeTable, history: History) -> None:
    """Append a row ``T_i --so--> T_j`` for every start dependency among the
    committed transactions, ``T_i`` then ``T_j`` in tid order."""
    tids = sorted(history.committed_all)
    times = [_commit_and_start(history, tid) for tid in tids]
    for ti, (commit, _start) in zip(tids, times):
        later = [tj for tj, (_commit, start) in zip(tids, times) if commit < start]
        table.src += [ti] * len(later)
        table.dst += later
    added = len(table.src) - len(table.depth)
    table.depth += [DEPENDENCY] * added
    table.version += [None] * added


def start_dependencies(history: History) -> List[Edge]:
    """All start-dependency edges among committed transactions: the SSG's
    start rows as :class:`Edge` objects."""
    table = EdgeTable()
    _start_rows(table, history)
    return table.edges()


class SSG(DSG):
    """``DSG(H)`` augmented with start-dependency edges.

    ``edges`` optionally supplies the precomputed direct-conflict edges
    (sans start edges), so an :class:`~repro.core.phenomena.Analysis` that
    already extracted them does not run the extractors a second time.
    """

    def __init__(
        self,
        history: History,
        mode: PredicateDepMode = PredicateDepMode.LATEST,
        *,
        edges=None,
    ):
        super().__init__(history, mode, edges=edges)
        # A copy: the conflict rows may be an analysis' DSG's as well.
        conflicts = self.table
        self.table = table = EdgeTable()
        table.src, table.dst = conflicts.src[:], conflicts.dst[:]
        table.depth, table.version = conflicts.depth[:], conflicts.version[:]
        table.predicate, table.cursor = dict(conflicts.predicate), set(conflicts.cursor)
        table._made = dict(conflicts._made)
        _start_rows(table, history)
