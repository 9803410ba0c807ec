"""Per-prefix verdict identity for the cycle phenomena of the online analysis.

``IncrementalAnalysis`` answers G2 / G2-item from its cycle monitors: a
cycle in the phenomenon's view while the ww+wr view is acyclic must thread
an anti-dependency edge (Section 5: G1c is a cycle of dependency edges only,
G2 a cycle with one or more anti-dependency edges).  Only with G1c present
does it run an SCC pass, over the rows of its edge table.  This file compares those
answers, after *every* event, with the reference's cycle phenomena
(:func:`tests.reference_definitions.cycle_phenomena`) over the edges the
analysis holds, and each complete history with the reference's verdicts
judged from its events on ``to_history()`` — and pins the two properties the
fast path is there for: no level query materialises an ``Edge``, and the SCC
pass runs only while G1c is present.  On the bounded corpus the events decide
after every event too (``test_reference_agreement.py``); the monitors are
tested on their own, on denser graphs, in ``test_cycle_views.py``.
"""

import itertools
import random

import pytest

import repro
from repro.core import cycles, graph
from repro.core.conflicts import EdgeTable, PredicateDepMode
from repro.core.events import Commit
from repro.core.incremental import CORE_PHENOMENA, IncrementalAnalysis
from repro.core.levels import ANSI_CHAIN, IsolationLevel
from repro.core.phenomena import Phenomenon
from repro.observability import MetricsRegistry
from repro.workloads import synthetic_history

from . import reference_definitions as ref

G1C, G2, G2_ITEM = Phenomenon.G1C, Phenomenon.G2, Phenomenon.G2_ITEM
FALLBACKS = "incremental_scc_fallbacks_total"


def reference(analysis):
    """G1c / G2 / G2-item presence by the reference's definitions, over the
    edges the analysis holds."""
    arcs = [
        ref.Arc(e.src, e.dst, str(e.kind), e.via_predicate) for e in analysis.edges
    ]
    cycle = ref.cycle_phenomena(arcs)
    return {p: cycle[str(p)] for p in (G1C, G2, G2_ITEM)}


def test_component_index_over_bare_arcs_matches_networkx():
    # The analysis' fallback runs ``graph.component_index`` over int rows;
    # networkx, fed the arcs themselves, is the independent witness.
    import networkx as nx
    from collections import namedtuple

    Arc = namedtuple("Arc", "src dst")
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 12)
        arcs = [
            Arc(rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(0, 3 * n))
        ]
        expected = sorted(
            map(sorted, nx.strongly_connected_components(nx.DiGraph(arcs)))
        )
        index = graph.component_index(graph.adjacency_of(
            range(len(arcs)), [a.src for a in arcs], [a.dst for a in arcs]
        ))
        parts = {}
        for node, cid in index.items():
            parts.setdefault(cid, []).append(node)
        assert sorted(map(sorted, parts.values())) == expected
        # Reverse topological ids: no arc points at a later component.
        assert all(index[a.src] >= index[a.dst] for a in arcs)


class Tally:
    """Which verdict regimes a run of prefixes went through."""

    def __init__(self):
        self.g1c_without_g2 = 0
        self.g2_without_g1c = 0
        self.g2_without_g2_item = 0
        self.g1c_and_g2 = 0

    def note(self, verdicts):
        self.g1c_without_g2 += verdicts[G1C] and not verdicts[G2]
        self.g2_without_g1c += verdicts[G2] and not verdicts[G1C]
        self.g2_without_g2_item += verdicts[G2] and not verdicts[G2_ITEM]
        self.g1c_and_g2 += verdicts[G1C] and verdicts[G2]


def compare(analysis, label, tally=None):
    want = reference(analysis)
    got = {p: analysis.exhibits(p) for p in want}
    assert got == want, f"{label}: after {len(analysis.events)} events"
    if tally is not None:
        tally.note(want)


def feed_comparing(events, label, tally=None, **kwargs):
    analysis = IncrementalAnalysis(**kwargs)
    for event in events:
        analysis.add(event)
        compare(analysis, label, tally)
    judged = analysis.to_history()
    want = ref.phenomena(analysis.events, judged.version_order, analysis.mode.value)
    assert {
        name: analysis.exhibits(Phenomenon(name)) for name in ref.CORE
    } == want, f"{label}: the complete history"
    return analysis


def small_history(seed, **fractions):
    # Four hot objects, thirty short transactions: dense enough that the
    # views latch within a few dozen events, in either order.
    return synthetic_history(
        n_txns=30, n_objects=4, ops_per_txn=3, seed=seed, **fractions
    )


def permuted_hint(history, seed):
    """Every chain in a random order: the hinted chains disagree with
    install order and with each other, so versions land mid-chain, the
    affected objects' edges are repaired, and ww cycles (G1c) come early."""
    rng = random.Random(seed)
    hint = {}
    for obj, chain in history.version_order.items():
        hint[obj] = rng.sample(list(chain), len(chain))
    return hint


def displaced_hint(history, seed):
    """Every chain sorted by one ranking of the transactions — commit order
    with each commit displaced by up to three places.  Versions still land
    mid-chain, but one ranking for all objects keeps the ww view acyclic:
    G2 latches long before G1c, so the repairs hit views whose verdict
    rests on the latched monitor alone."""
    rng = random.Random(seed)
    commits = [e.tid for e in history.events if isinstance(e, Commit)]
    rank = {tid: i + rng.uniform(-3, 3) for i, tid in enumerate(commits)}
    return {
        obj: sorted(chain, key=lambda v: rank.get(v.tid, -1))
        for obj, chain in history.version_order.items()
    }


GRID = [
    dict(
        stale_read_fraction=stale,
        write_fraction=write,
        predicate_fraction=pred,
        abort_fraction=abort,
    )
    for stale, write, pred, abort in itertools.product(
        (0.0, 0.5), (0.3, 0.7), (0.0, 0.2), (0.0, 0.2)
    )
]


@pytest.mark.parametrize("order_mode", ["event", "commit"])
@pytest.mark.parametrize(
    "fractions", GRID, ids=lambda f: "-".join(str(v) for v in f.values())
)
def test_every_prefix_matches_definition(fractions, order_mode):
    # "event" keys versions by write position, not commit order, so the
    # same events also yield ww/wr cycles: both G1c regimes get prefixes.
    for seed in range(3):
        history = small_history(seed, **fractions)
        feed_comparing(
            history.events, f"seed {seed} {fractions}", order_mode=order_mode
        )


@pytest.mark.parametrize("make_hint", [permuted_hint, displaced_hint])
def test_every_prefix_matches_definition_through_repairs(make_hint, monkeypatch):
    # (A hint covering every version decides the order: no ``order_mode``.)
    # A latched monitor stops tracking, so a repair that removed a view's
    # last cycle would leave a stale True.  Count the repairs that put that
    # to the test — item view latched, verdict read from the monitors alone
    # (dependency view still acyclic) — and let ``compare`` check the
    # reference after each.
    repairs = {"any": 0, "monitor_only": 0}
    repair_object = IncrementalAnalysis._repair_object

    def counting(self, oid):
        repairs["any"] += 1
        if cycles.ITEM < self._cycles._live <= cycles.DEPENDENCY:
            repairs["monitor_only"] += 1
        repair_object(self, oid)

    monkeypatch.setattr(IncrementalAnalysis, "_repair_object", counting)
    tally = Tally()
    for seed, mode in itertools.product(range(6), PredicateDepMode):
        history = small_history(
            seed, stale_read_fraction=0.5, write_fraction=0.7,
            predicate_fraction=0.3 * (seed % 2),
        )
        before = repairs["any"]
        feed_comparing(
            history.events,
            f"{make_hint.__name__} seed {seed} {mode}",
            tally,
            mode=mode,
            version_order_hint=make_hint(history, seed),
        )
        assert repairs["any"] > before, "the hint forced no mid-chain repair"
    # The regimes that matter are exercised, not just reachable: the SCC
    # pass answering both ways, resp. repairs under a monitor-only verdict.
    if make_hint is permuted_hint:
        assert tally.g1c_without_g2 > 0 and tally.g1c_and_g2 > 0
    else:
        assert tally.g2_without_g1c > 0 and repairs["monitor_only"] >= 20


def test_predicate_only_cycles_separate_g2_from_g2_item():
    tally = Tally()
    for seed in range(4):
        history = small_history(
            seed, stale_read_fraction=0.0, write_fraction=0.3,
            predicate_fraction=0.4,
        )
        feed_comparing(history.events, f"predicates seed {seed}", tally,
                       order_mode="commit")
    assert tally.g2_without_g2_item > 0


# ----------------------------------------------------------------------
# directed fixtures
# ----------------------------------------------------------------------

#: T1 and T2 read each other's writes: a wr/wr cycle and nothing else.
G1C_ONLY = "w1(x1) w2(y2) r1(y2) r2(x1) c1 c2"
#: ... then T3/T4 add a write-skew-shaped anti-dependency cycle.
G1C_THEN_G2 = G1C_ONLY + " r3(x1) r4(z0) w4(x4) c4 w3(z3) c3"
#: The paper's H1: PL-2, with G2 and G2-item.
H1 = "r1(x0, 5) w1(x1, 1) r2(x1, 1) r2(y0, 5) c2 r1(y0, 5) w1(y1, 9) c1"
SERIAL = "w1(x1) c1 r2(x1) w2(x2) c2"


def _fixtures():
    yield "g1c-only", repro.parse_history(G1C_ONLY).events, "event"
    yield "g1c-then-g2", repro.parse_history(G1C_THEN_G2).events, "event"
    yield "h1", repro.parse_history(H1).events, "event"
    yield "serial", repro.parse_history(SERIAL).events, "event"
    for name, fractions in (
        ("ladder-shaped", dict(stale_read_fraction=0.5, write_fraction=0.6)),
        ("predicates", dict(write_fraction=0.3, predicate_fraction=0.4)),
        ("aborts", dict(stale_read_fraction=0.5, abort_fraction=0.2)),
    ):
        events = small_history(1, **fractions).events
        yield name, events, "commit"
        yield name + "-event-order", events, "event"


FIXTURES = list(_fixtures())


def test_directed_fixtures_match_definition():
    analysis = feed_comparing(repro.parse_history(G1C_ONLY).events, "g1c-only")
    assert analysis.exhibits(G1C) and not analysis.exhibits(G2)
    analysis = feed_comparing(
        repro.parse_history(G1C_THEN_G2).events, "g1c-then-g2"
    )
    assert analysis.exhibits(G1C) and analysis.exhibits(G2_ITEM)
    assert analysis.strongest_level() is IsolationLevel.PL_1


@pytest.mark.parametrize(
    "events,order_mode",
    [pytest.param(ev, om, id=name) for name, ev, om in FIXTURES],
)
def test_level_queries_never_materialise_edges(events, order_mode, monkeypatch):
    # The reference answers first, with materialisation still allowed.
    expected = reference(IncrementalAnalysis(order_mode=order_mode).add_all(events))

    def refuse(self, row):
        raise AssertionError("a level query materialised an Edge")

    monkeypatch.setattr(EdgeTable, "edge", refuse)
    analysis = IncrementalAnalysis(order_mode=order_mode)
    for event in events:
        analysis.add(event)
        for level in ANSI_CHAIN:
            analysis.provides(level)
    analysis.finish()
    for phenomenon in CORE_PHENOMENA:
        analysis.exhibits(phenomenon)
    assert {p: analysis.exhibits(p) for p in expected} == expected
    strongest = analysis.strongest_level()
    for level in ANSI_CHAIN:
        assert analysis.provides(level) == (
            strongest is not None and strongest.implies(level)
        )
    if analysis.edges_inserted:  # the patch is live at the API boundary
        with pytest.raises(AssertionError):
            analysis.edges


def test_no_scc_pass_without_g1c():
    """A PL-2-but-not-PL-3 history — the ladder's ``checker_ingest`` shape —
    is certified from the monitors alone."""
    registry = MetricsRegistry()
    history = synthetic_history(
        n_txns=300, n_objects=30, ops_per_txn=5,
        stale_read_fraction=0.5, write_fraction=0.6, seed=1,
    )
    analysis = IncrementalAnalysis(order_mode="commit", metrics=registry)
    for event in history.events:
        analysis.add(event)
        analysis.provides(IsolationLevel.PL_3)
        analysis.provides(IsolationLevel.PL_2_99)
    assert analysis.strongest_level() is IsolationLevel.PL_2
    assert analysis.exhibits(G2) and analysis.exhibits(G2_ITEM)
    assert not analysis.exhibits(G1C)
    assert FALLBACKS not in registry.snapshot()


def test_scc_pass_at_most_once_per_generation_with_g1c():
    registry = MetricsRegistry()
    analysis = IncrementalAnalysis(metrics=registry)
    generations = set()
    for event in repro.parse_history(G1C_THEN_G2).events:
        analysis.add(event)
        for _ in range(3):  # re-querying an unchanged edge set is free
            compare(analysis, "g1c-then-g2")
            analysis.provides(IsolationLevel.PL_3)
        if analysis.exhibits(G1C):
            generations.add(analysis._cycles.generation)
    fallbacks = registry.counter(FALLBACKS)
    assert fallbacks.total >= 1
    for phenomenon in (G2, G2_ITEM):
        assert fallbacks.value(phenomenon=str(phenomenon)) <= len(generations)
    # No predicate anti-dependency here: one pass answers both phenomena.
    assert fallbacks.total <= len(generations)
    # Latched: further events and queries run no further pass.
    before = fallbacks.total
    for event in repro.parse_history("r5(x4) c5").events:
        analysis.add(event)
        compare(analysis, "after latch")
    assert fallbacks.total == before


def test_provides_still_rejects_extension_levels():
    analysis = IncrementalAnalysis().add_all(repro.parse_history(H1).events)
    assert analysis.provides("PL-2") and not analysis.provides("serializable")
    for level in (
        IsolationLevel.PL_SI,
        IsolationLevel.PL_2PLUS,
        IsolationLevel.PL_CS,
        IsolationLevel.PL_SS,
    ):
        with pytest.raises(ValueError, match="not maintained incrementally"):
            analysis.provides(level)
    with pytest.raises(ValueError) as err:
        analysis.provides("PL-SI")
    assert str(err.value) == (
        "PL-SI proscribes G-SI, which is not maintained incrementally; "
        "use check() for extension levels"
    )
