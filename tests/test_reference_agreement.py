"""Every checker path against the reference, on every corpus history.

:mod:`tests.bounded_corpus` holds every history of its families;
:mod:`tests.reference_definitions` states the definitions.  On each history:

* batch ``check`` in both predicate modes, with and without
  ``extensions=True``, reports what the reference does, phenomenon by
  phenomenon and level by level (a history without a predicate read is
  checked in one mode: the modes differ only in a predicate read's
  read-dependencies);
* ``IncrementalAnalysis`` under both ``order_mode``s agrees with the
  reference after every event on the cycle phenomena (judged on
  ``to_history()`` of the prefix), and on the complete history on every
  core phenomenon and ANSI level;
* the preventative baseline admits a history at an ANSI level only where
  the reference provides it, on the histories whose reads observe the
  latest version and whose version order is the default one (a locking
  engine's histories; a stale read, or an order against the writes', is
  outside what the preventative definitions describe).

Fed with version-order hints that land versions mid-chain, the online
analysis's verdicts after every event with a chain repair are the
reference's, but where a latched view lost its last cycle.  The view
chain's claim that a latched view never loses its last cycle under repair
is checked on every repair call too; it does not hold (a strict xfail,
below).  Nor does the checker's G-cursor, a closed walk, always stand for
the simple cycle the reference asks for (another strict xfail); batch
``check``'s G-cursor and PL-CS are held to the reference one way only.
"""

from __future__ import annotations

import pytest

from repro.baseline import PreventativeAnalysis, preventative_satisfies
from repro.checker import check
from repro.core.conflicts import PredicateDepMode
from repro.core.events import PredicateRead
from repro.core.incremental import IncrementalAnalysis
from repro.core.levels import ANSI_CHAIN, IsolationLevel
from repro.core.phenomena import Phenomenon

from . import reference_definitions as ref
from .bounded_corpus import CORPUS, FAMILIES, interleaved
from .test_cycle_views import VIEWS
from .test_incremental_verdicts import displaced_hint, permuted_hint

CYCLES = ("G0", "G1c", "G2-item", "G2")
PHENOMENON = {str(p): p for p in Phenomenon}
#: The checker reads G-cursor as a closed walk, the reference as the simple
#: cycle ``core/extensions.py`` states; the two are held together by the
#: G-cursor tests below, not by the batch comparison.
WALK = ("G-cursor", "PL-CS")


def events_key(events):
    """A history's events as a key: a predicate read with its match set,
    which predicate equality leaves out."""
    return tuple(
        (ev, ev.predicate.matching) if isinstance(ev, PredicateRead) else ev
        for ev in events
    )


_judged = {}


def reference(key, events, order=None, mode="latest", extensions=True):
    """The reference's phenomena and levels, once per distinct history
    (``key`` is :func:`events_key` of ``events``): the predicate modes
    differ only with a predicate read, and the core verdicts are a part of
    the extended ones."""
    if not any(isinstance(ev, PredicateRead) for ev in events):
        mode = "latest"
    key = (key, order and tuple(sorted(order.items())), mode, extensions)
    if key not in _judged:
        exhibited = ref.phenomena(events, order, mode, extensions=extensions)
        _judged[key] = exhibited, ref.levels(exhibited)
    return _judged[key]


def batch_disagreements(entry, key, mode, extensions):
    report = check(entry.history, mode=mode, extensions=extensions)
    want, want_levels = reference(key, entry.events, entry.order, mode.value)
    names = ref.CORE + ref.EXTENSIONS if extensions else ref.CORE
    names = [name for name in names if name not in WALK]
    got = {p: report.analysis.exhibits(PHENOMENON[p]) for p in names}
    got_levels = {
        str(level): report.ok(level) for level in report.levels
        if str(level) not in WALK
    }
    return [
        f"batch {mode.value} ext={extensions}: {name} {got[name]} != {want[name]}"
        for name in names if got[name] != want[name]
    ] + [
        f"batch {mode.value} ext={extensions}: {level} {ok} != {want_levels[level]}"
        for level, ok in got_levels.items() if ok != want_levels[level]
    ]


#: ``(order_mode, events key)`` of every event sequence whose run has been
#: compared: the analysis is a function of its events (and of the queries
#: made after each, always the same here), so a prefix shared by many
#: corpus histories, or a history under many version orders, is compared
#: once.
_compared = set()


def incremental_disagreements(entry, key, order_mode):
    if (order_mode, key) in _compared:
        return []
    analysis = IncrementalAnalysis(order_mode=order_mode)
    out = []
    for n, event in enumerate(entry.events, 1):
        analysis.add(event)
        got = {name: analysis.exhibits(PHENOMENON[name]) for name in CYCLES}
        if (order_mode, key[:n]) in _compared:
            continue
        _compared.add((order_mode, key[:n]))
        chains = analysis.to_history().version_order
        want = reference(key[:n], entry.events[:n], chains, extensions=False)[0]
        out += [
            f"incremental {order_mode} after {n}: {name}"
            for name in CYCLES if got[name] != want[name]
        ]
    want, want_levels = reference(key, entry.events, chains, extensions=False)
    for name in ref.CORE:
        if analysis.exhibits(PHENOMENON[name]) != want[name]:
            out.append(f"incremental {order_mode}: {name}")
    for level in ANSI_CHAIN:
        if analysis.provides(level) != want_levels[str(level)]:
            out.append(f"incremental {order_mode}: {level}")
    return out


def preventative_disagreements(entry, key):
    if entry.family.reads != "latest" or entry.order is not None:
        return []
    prevented = PreventativeAnalysis(entry.history)
    provided = reference(key, entry.events, entry.order)[1]
    return [
        f"preventative admits {level}"
        for level in ANSI_CHAIN
        if preventative_satisfies(entry.history, level, analysis=prevented)
        and not provided[str(level)]
    ]


def disagreements(entry):
    """Every way the checker paths part from the reference on one history."""
    key = events_key(entry.events)
    out = []
    predicates = any(isinstance(ev, PredicateRead) for ev in entry.events)
    for mode in PredicateDepMode if predicates else [PredicateDepMode.LATEST]:
        for extensions in (False, True):
            out += batch_disagreements(entry, key, mode, extensions)
    for order_mode in ("event", "commit"):
        out += incremental_disagreements(entry, key, order_mode)
    return out + preventative_disagreements(entry, key)


def _where(entry):
    return f"{entry.family.name}: {entry.history}"


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.name)
def test_every_path_agrees_with_the_reference(family):
    for entry in CORPUS:
        if entry.family is family:
            assert disagreements(entry) == [], _where(entry)


def cursor_verdicts(entries):
    """``(entry, checker's, reference's)`` G-cursor verdict and PL-CS level
    of every entry with a cursor read, and the reference's G1."""
    for entry in entries:
        if any(getattr(ev, "cursor", False) for ev in entry.events):
            report = check(entry.history, extensions=True)
            got = report.analysis.exhibits(Phenomenon.G_CURSOR)
            want, levels = reference(events_key(entry.events), entry.events, entry.order)
            yield (
                entry,
                (got, report.ok(IsolationLevel.PL_CS)),
                (want["G-cursor"], levels["PL-CS"]),
                want["G1"],
            )


def test_the_checker_finds_every_g_cursor_cycle():
    # A simple cycle is a closed walk, so the checker's reading reports
    # every G-cursor the reference does, and provides PL-CS where neither
    # G1 nor its G-cursor is, so only where the reference does.
    judged = 0
    for entry, (got, got_level), (want, want_level), g1 in cursor_verdicts(CORPUS):
        judged += 1
        assert got or not want, _where(entry)
        assert got_level == (not g1 and not got), _where(entry)
        assert want_level or not got_level, _where(entry)
    assert judged > 400


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the checker reads G-cursor as a closed walk, not a simple cycle",
)
def test_g_cursor_is_a_simple_cycle():
    # ``core/extensions._g_cursor`` joins two shortest dependency paths
    # around a cursor anti-dependency and a ww on its object, so it reports
    # closed walks no simple cycle stands for, e.g. in
    # ``w0(x0, 0) w0(y0, 0) c0 rc1(x0) w1(x1) c1 rc2(x1) w2(x2) c2
    # [x2 << x1 << x0]``: 16 of the ``cursor`` family's histories.
    for entry, got, want, _ in cursor_verdicts(CORPUS):
        assert got == want, _where(entry)


def test_the_reference_reads_extension_levels_too():
    assert set(ref.levels(ref.phenomena([], extensions=True))) == {
        str(level) for level in IsolationLevel
    }


def latched_views_without_a_cycle(analysis):
    """The views the chain holds latched cyclic that have no cycle of rows."""
    table = analysis._table
    arcs = [
        ref.Arc(e.src, e.dst, str(e.kind), e.via_predicate)
        for e in map(table.edge, analysis._row_of.values())
    ]
    return [
        VIEWS[view] for view in range(analysis._cycles._live)
        if not ref.on_cycle([a for a in arcs if ref.CYCLES[VIEWS[view]][0](a)])
    ]


@pytest.fixture
def repairs(monkeypatch):
    """The chain repairs the test drives, each as the depth of the live
    view it ran under (above 0: some view was latched)."""
    done = []
    repair_object = IncrementalAnalysis._repair_object

    def counted(self, oid):
        repair_object(self, oid)
        done.append(self._cycles._live)

    monkeypatch.setattr(IncrementalAnalysis, "_repair_object", counted)
    return done


def feed_with_hint(entry, seed, make_hint, repairs, after_repair):
    """Feed the entry's events to an analysis whose version-order hint lands
    versions mid-chain, asking for the cycle phenomena after each (as a live
    certifier does, so views latch) and calling ``after_repair(analysis, n,
    got)`` with the answers after each event that repaired a chain."""
    analysis = IncrementalAnalysis(version_order_hint=make_hint(entry.history, seed))
    for n, event in enumerate(entry.events, 1):
        before = len(repairs)
        analysis.add(event)
        got = {name: analysis.exhibits(PHENOMENON[name]) for name in CYCLES}
        if len(repairs) > before:
            after_repair(analysis, n, got)


@pytest.mark.parametrize("make_hint", [permuted_hint, displaced_hint])
def test_every_event_with_a_repair_agrees_with_the_reference(make_hint, repairs):
    # But for the fault the strict xfail below pins: a view latched before a
    # repair broke its last cycle still answers yes (G1c, on two events of
    # the ``predicate`` family under permuted hints and one under displaced
    # ones).  The analysis never misses a cycle.
    for seed, entry in enumerate(CORPUS):
        key = events_key(entry.events)

        def judge(analysis, n, got):
            chains = analysis.to_history().version_order
            want = reference(key[:n], entry.events[:n], chains, extensions=False)[0]
            wrong = {name for name in CYCLES if got[name] != want[name]}
            assert all(got[name] for name in wrong), _where(entry)
            assert wrong <= set(latched_views_without_a_cycle(analysis)), _where(entry)

        feed_with_hint(entry, seed, make_hint, repairs, judge)
    # Repairs under a latched view are the ones the verdicts could lose.
    assert len(repairs) > 1000 and sum(live > 0 for live in repairs) > 100


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a repair that moves a predicate read-dependency to another "
    "changer can break a latched view's last cycle",
)
@pytest.mark.parametrize("make_hint", [permuted_hint, displaced_hint])
def test_a_latched_view_keeps_a_cycle_through_every_repair(
    make_hint, repairs, monkeypatch
):
    # The view chain's claim, checked on every repair call.  It fails: in
    # ``w1(y1) w2(x2) c1 r2(y1) c2`` after ``r1(P: x0*, y0)``, with x2 hinted
    # before x0 and P matching x2 too, T2's install leaves x0 no longer
    # changing P's matches, so T0 -pwr-> T1 goes and with it the latched
    # cycle T1 -ww-> T0 -pwr-> T1.  That commit's own read restores a cycle;
    # ``test_incremental.py::TestRepairs`` pins a history where nothing does.
    repair_object = IncrementalAnalysis._repair_object

    def checked(self, oid):
        repair_object(self, oid)
        assert latched_views_without_a_cycle(self) == []

    monkeypatch.setattr(IncrementalAnalysis, "_repair_object", checked)
    for seed, entry in enumerate(interleaved()):
        feed_with_hint(entry, seed, make_hint, repairs, lambda *_: None)
