"""Properties of ``History``'s indexes and of the incremental core.

Generated histories (predicate reads and aborts included) pin down:

* every ``History`` index equals Section 4.2 — ``isinstance`` scans of the
  events for the basic indexes, and the reference
  (:mod:`tests.reference_definitions`) for the default version order
  ("unborn version, then setup versions in first-read order, then the
  committed transactions' final writes in event order") and the event
  positions of each transaction;
* whenever the incremental analysis reports a cycle phenomenon, its
  witness is a real chained cycle drawn from the analysis's own edges;
* the incremental analysis agrees with the batch checker on every
  phenomenon and level verdict.
"""

from hypothesis import given, settings, strategies as st

from repro.checker import check
from repro.core.events import Abort, Commit, PredicateRead, Read, Write
from repro.core.history import History
from repro.core.incremental import IncrementalAnalysis
from repro.core.levels import ANSI_CHAIN
from repro.core.phenomena import Phenomenon
from repro.observability.provenance import witness_cycle
from repro.workloads.generator import synthetic_history

from . import reference_definitions as ref

#: Richer than test_properties' strategy on purpose: predicate reads and
#: aborts on by default, since those paths carry the trickiest state
#: (version sets, setup versions, G1a/G1b bookkeeping).
history_params = st.fixed_dictionaries(
    {
        "n_txns": st.integers(min_value=1, max_value=25),
        "n_objects": st.integers(min_value=1, max_value=8),
        "ops_per_txn": st.integers(min_value=1, max_value=6),
        "write_fraction": st.floats(min_value=0.0, max_value=1.0),
        "abort_fraction": st.floats(min_value=0.0, max_value=0.5),
        "stale_read_fraction": st.floats(min_value=0.0, max_value=1.0),
        "predicate_fraction": st.floats(min_value=0.0, max_value=0.5),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


# ----------------------------------------------------------------------
# History indexes against the definitions
# ----------------------------------------------------------------------


def inferred_order_history(params, drop_loader=False):
    """The generated events with the version order left for ``History`` to
    infer (the generator supplies an explicit one).  ``drop_loader`` removes
    T0's events, which turns the initial versions into setup versions."""
    h = synthetic_history(**params)
    events = [ev for ev in h.events if not (drop_loader and ev.tid == 0)]
    return History(events, default_level=h.default_level, validate=False)


@given(history_params, st.booleans())
@settings(max_examples=60, deadline=None)
def test_history_indexes_identical(params, drop_loader):
    h = inferred_order_history(params, drop_loader)
    evs = h.events
    assert h.version_order == ref.version_order(evs)
    assert h.tids == tuple(dict.fromkeys(ev.tid for ev in evs))
    assert h.committed == {ev.tid for ev in evs if isinstance(ev, Commit)}
    assert h.aborted == {ev.tid for ev in evs if isinstance(ev, Abort)}
    assert h.writes == {ev.version: ev for ev in evs if isinstance(ev, Write)}
    assert h.reads == tuple(
        (i, ev) for i, ev in enumerate(evs) if isinstance(ev, Read)
    )
    assert h.predicate_reads == tuple(
        (i, ev) for i, ev in enumerate(evs) if isinstance(ev, PredicateRead)
    )
    assert h._event_positions == ref.event_positions(evs)


# ----------------------------------------------------------------------
# Incremental core: batch checker, witnesses
# ----------------------------------------------------------------------

_CYCLE_PHENOMENA = (
    Phenomenon.G0,
    Phenomenon.G1C,
    Phenomenon.G2_ITEM,
    Phenomenon.G2,
)


@given(history_params)
@settings(max_examples=30, deadline=None)
def test_incremental_matches_batch_checker(params):
    """The incremental core against the batch checker: identical phenomena
    and level verdicts."""
    h = inferred_order_history(params)
    # order_mode="event" keys installs like the batch path's inferred
    # version order; "commit" is a different (also valid) order and may
    # legitimately disagree on cycle phenomena.
    report = check(h)
    inc = IncrementalAnalysis(order_mode="event").add_all(h.events)
    for item in report.phenomena():
        assert inc.exhibits(item.phenomenon) == item.present, str(item.phenomenon)
    for level in ANSI_CHAIN:
        assert inc.provides(level) == report.ok(level)


@given(history_params)
@settings(max_examples=25, deadline=None)
def test_batch_witness_cycles_are_valid(params):
    """Whenever the analysis latches a cycle phenomenon, its witness is a
    real chained cycle drawn from the analysis's own edges."""
    h = synthetic_history(**params)
    inc = IncrementalAnalysis(order_mode="commit").add_all(h.events)
    for ph in _CYCLE_PHENOMENA:
        if not inc.exhibits(ph):
            assert witness_cycle(inc, ph) is None
            continue
        cycle = witness_cycle(inc, ph)
        assert cycle, f"{ph} latched but no witness cycle"
        for edge, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            assert edge.dst == nxt.src
        edge_set = set(inc.edges)
        for edge in cycle:
            assert edge in edge_set
