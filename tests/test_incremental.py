"""Randomized and directed equivalence tests for the incremental analyzer.

The contract under test: feeding a history's events one at a time into
:class:`repro.core.incremental.IncrementalAnalysis` yields *identical*
phenomenon verdicts and the identical strongest ANSI level as the batch
checker over the materialised history — across synthetic workloads
(including predicate-heavy and aborted-transaction mixes), the canonical
paper corpus, and live engine executions observed through the recorder
monitor hook.
"""

import itertools
import random

import pytest

import repro
from repro.core import graph
from repro.core.canonical import ALL_CANONICAL
from repro.core.conflicts import (
    DEPTH,
    RW,
    WR,
    WW,
    DepKind,
    EdgeTable,
    PredicateDepMode,
)
from repro.core.dsg import view_adjacency, view_witness
from repro.core.events import Commit, Read, Write
from repro.core.incremental import CORE_PHENOMENA, IncrementalAnalysis
from repro.core.levels import IsolationLevel, classify
from repro.core.objects import Version
from repro.core.phenomena import VIEW_OF, Analysis, Phenomenon
from repro.engine import (
    Database,
    LockingScheduler,
    Simulator,
    SnapshotIsolationScheduler,
)
from repro.observability.provenance import witness_cycle
from repro.workloads import WorkloadConfig, random_programs, synthetic_history
from repro.workloads.anomalies import ALL_ANOMALIES

KIND_CODE = {DepKind.WW: WW, DepKind.WR: WR, DepKind.RW: RW}


def edge_keys(edges):
    return {
        (e.src, e.dst, e.kind, e.obj, e.version, e.predicate, e.cursor)
        for e in edges
    }


def assert_equivalent(history, inc, label):
    """Incremental and batch verdicts must agree on every core phenomenon,
    the edge set, and the strongest ANSI level."""
    batch = Analysis(history, inc.mode)
    for phenomenon in CORE_PHENOMENA:
        assert inc.exhibits(phenomenon) == batch.exhibits(phenomenon), (
            f"{label}: {phenomenon} disagrees"
        )
    assert edge_keys(inc.edges) == edge_keys(batch.edges), f"{label}: edges"
    assert inc.strongest_level() == classify(history, analysis=batch), (
        f"{label}: strongest level"
    )


# 216 randomized configurations: every combination below times 12 seeds.
RANDOM_CONFIGS = [
    dict(
        abort_fraction=abort,
        stale_read_fraction=stale,
        predicate_fraction=pred,
    )
    for abort, stale, pred in itertools.product(
        (0.0, 0.25),  # none / many aborted transactions
        (0.0, 0.3, 0.6),  # single-version / increasingly stale reads
        (0.0, 0.3, 0.7),  # none / some / predicate-heavy
    )
]
SEEDS = range(12)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "config", RANDOM_CONFIGS, ids=lambda c: "-".join(f"{v:g}" for v in c.values())
    )
    def test_matches_batch(self, config, seed):
        history = synthetic_history(
            n_txns=24, n_objects=5, ops_per_txn=4, seed=seed, **config
        )
        inc = IncrementalAnalysis(order_mode="commit")
        inc.add_all(history.events)
        assert_equivalent(history, inc, f"synthetic{config}/seed{seed}")

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_batch_all_mode(self, seed):
        """PredicateDepMode.ALL quantification also agrees."""
        history = synthetic_history(
            n_txns=20,
            n_objects=4,
            predicate_fraction=0.5,
            stale_read_fraction=0.3,
            seed=seed,
        )
        inc = IncrementalAnalysis(
            order_mode="commit", mode=PredicateDepMode.ALL
        )
        inc.add_all(history.events)
        assert_equivalent(history, inc, f"ALL/seed{seed}")

    @pytest.mark.parametrize("seed", range(6))
    def test_verdicts_monotone_in_prefix(self, seed):
        """Once a phenomenon appears it never disappears as more events
        arrive (presence over a growing event prefix is monotone)."""
        history = synthetic_history(
            n_txns=20, n_objects=4, stale_read_fraction=0.5,
            abort_fraction=0.2, seed=seed,
        )
        inc = IncrementalAnalysis(order_mode="commit")
        seen = set()
        for event in history.events:
            inc.add(event)
            now = {p for p in CORE_PHENOMENA if inc.exhibits(p)}
            assert seen <= now, f"phenomenon vanished at {event}"
            seen = now


class TestCorpusEquivalence:
    """Every canonical paper history and anomaly replays event-by-event to
    the documented verdicts, with the explicit version order as a hint."""

    @pytest.mark.parametrize(
        "entry", ALL_CANONICAL + ALL_ANOMALIES, ids=lambda e: e.name
    )
    def test_replay(self, entry):
        history = entry.history
        inc = IncrementalAnalysis(version_order_hint=history.version_order)
        inc.add_all(history.events)
        assert_equivalent(history, inc, entry.name)
        # The maintained chains reproduce the corpus order exactly.
        assert inc.to_history().version_order == history.version_order


class TestIncrementalSemantics:
    def test_g1a_fires_on_abort_after_read(self):
        inc = IncrementalAnalysis()
        for ev in repro.core.parse_events("w1(x1) r2(x1) c2"):
            inc.add(ev)
        assert not inc.exhibits(Phenomenon.G1A)
        inc.add(repro.core.Abort(1))
        assert inc.exhibits(Phenomenon.G1A)
        assert inc.report(Phenomenon.G1A).witnesses

    def test_g1b_fires_when_read_becomes_intermediate(self):
        inc = IncrementalAnalysis()
        for ev in repro.core.parse_events("w1(x1.1) r2(x1.1) c2"):
            inc.add(ev)
        assert not inc.exhibits(Phenomenon.G1B)
        # x1.1 stops being T1's final modification:
        inc.add(repro.core.parse_events("w1(x1.2)")[0])
        assert inc.exhibits(Phenomenon.G1B)

    def test_finish_applies_completion_rule(self):
        inc = IncrementalAnalysis()
        for ev in repro.core.parse_events("w1(x1) r2(x1) c2"):
            inc.add(ev)
        inc.finish()  # T1 still running -> aborted -> G1a
        assert inc.exhibits(Phenomenon.G1A)

    def test_watch_callback_fires_once(self):
        fired = []
        inc = IncrementalAnalysis(
            watch=(Phenomenon.G1A,), on_phenomenon=lambda p, a: fired.append(p)
        )
        for ev in repro.core.parse_events("w1(x1) r2(x1) c2 a1 r3(x1) c3"):
            inc.add(ev)
        assert fired == [Phenomenon.G1A]

    def test_watch_rejects_extension_phenomena(self):
        with pytest.raises(ValueError):
            IncrementalAnalysis(watch=(Phenomenon.G_SI,))

    def test_extension_phenomena_need_materialisation(self):
        inc = IncrementalAnalysis()
        with pytest.raises(ValueError):
            inc.exhibits(Phenomenon.G_SINGLE)
        # ... but check() covers them via the batch path.
        for ev in repro.core.parse_events("w1(x1) c1 r2(x1) c2"):
            inc.add(ev)
        report = inc.check(extensions=True)
        assert report.strongest_level is not None

    def test_check_takes_an_explicit_mode(self):
        history = synthetic_history(n_txns=15, predicate_fraction=0.5, seed=3)
        inc = IncrementalAnalysis(order_mode="commit").add_all(history.events)
        assert inc.check().analysis.mode is PredicateDepMode.LATEST
        # An explicit mode wins over the analysis' own.
        report = inc.check(mode=PredicateDepMode.ALL)
        assert report.analysis.mode is PredicateDepMode.ALL
        assert report.explain() == repro.check(
            inc.to_history(), mode=PredicateDepMode.ALL
        ).explain()
        inc = IncrementalAnalysis(mode=PredicateDepMode.ALL)
        assert inc.add_all(history.events).check().analysis.mode is (
            PredicateDepMode.ALL
        )

    def test_strongest_level_of_given_levels_matches_classify(self):
        # A lost update: G2-item, so PL-2 and nothing stronger.
        history = repro.parse_history("r1(x0) w2(x2) c2 w1(x1) c1")
        inc = IncrementalAnalysis().add_all(history.events)
        for levels in ([], [IsolationLevel.PL_3], [IsolationLevel.PL_1]):
            assert inc.strongest_level(levels) == classify(history, levels=levels)
        # An empty list is no levels, not the default chain.
        assert inc.strongest_level([]) is None
        assert inc.strongest_level() is classify(history) is IsolationLevel.PL_2

    def test_to_history_validates(self):
        history = synthetic_history(n_txns=15, predicate_fraction=0.3, seed=3)
        inc = IncrementalAnalysis(order_mode="commit").add_all(history.events)
        inc.to_history(validate=True)  # must not raise


#: The cycle phenomena, each with a witness in the analysis' own table.
CYCLE_PHENOMENA = (
    Phenomenon.G0, Phenomenon.G1C, Phenomenon.G2_ITEM, Phenomenon.G2
)


def compacted_witness(inc, phenomenon):
    """The witness over a fresh table holding only the live edges, in order
    — what ``witness_cycle`` answers when tombstones are in no view."""
    edges = inc.edges
    table = EdgeTable()
    for e in edges:
        table.src.append(e.src)
        table.dst.append(e.dst)
        table.depth.append(DEPTH[KIND_CODE[e.kind]][e.via_predicate])
    view = VIEW_OF[phenomenon]
    adj = view_adjacency(table, view)
    rows = view_witness(table, view, adj, graph.strongly_connected_components(adj))
    return None if rows is None else [edges[row] for row in rows]


class TestEdgeTable:
    """The online checker keeps its edges as rows of the batch checker's
    table: the rows' cached :class:`Edge` objects follow a cursor merge,
    and a repair's tombstones are in no view."""

    def test_a_cursor_merge_reaches_a_cached_witness_row(self):
        history = repro.parse_history(
            "r1(x0) r1(y0) r2(x0) r2(y0) w1(x1) w2(y2) c1 c2"
        )
        inc = IncrementalAnalysis().add_all(history.events)
        (row,) = [e for e in witness_cycle(inc, Phenomenon.G2) if e.src == 1]
        assert str(row) == "T1 -rw-> T2" and not row.cursor
        assert row in inc.edges
        # ``add`` does not validate: T1's late cursor read of y0, then its
        # commit again, re-derive T1 -rw-> T2 — the one way to merge a cursor
        # flag into a row built (and its Edge cached) at an earlier event.
        inc.add(Read(1, Version("y", 0), cursor=True))
        inc.add(Commit(1))
        merged = [e for e in witness_cycle(inc, Phenomenon.G2) if e.src == 1]
        assert [(str(e), e.cursor) for e in merged] == [("T1 -rw-> T2", True)]
        assert merged[0] in inc.edges
        batch = inc.check().analysis.edges
        assert edge_keys(inc.edges) == edge_keys(batch)
        assert len(inc.edges) == inc.edges_inserted == len(batch)

    @pytest.mark.parametrize("seed", range(8))
    def test_repairs_after_a_latch_leave_no_trace(self, seed):
        # Commit keys drawn at random: versions land mid-chain and their
        # objects are repaired, after cycle phenomena have latched.
        history = synthetic_history(
            n_txns=30, n_objects=4, ops_per_txn=3, seed=seed,
            stale_read_fraction=0.5, write_fraction=0.7,
            predicate_fraction=0.3 * (seed % 2),
        )
        rng = random.Random(seed)
        inc = IncrementalAnalysis(order_mode="event")
        written = {}
        repaired_after_latch = 0
        for event in history.events:
            latched = any(map(inc.exhibits, CYCLE_PHENOMENA))
            tombstones = inc._table.tombstones
            if isinstance(event, Commit):
                objs = written.get(event.tid, ())
                inc.add(event, positions={obj: rng.random() for obj in objs})
            else:
                inc.add(event)
                if isinstance(event, Write):
                    written.setdefault(event.tid, set()).add(event.version.obj)
            repaired_after_latch += latched and inc._table.tombstones > tombstones
        assert repaired_after_latch
        final = inc.to_history()
        fresh = IncrementalAnalysis(
            order_mode="event", version_order_hint=final.version_order
        ).add_all(final.events)
        assert inc.edges == fresh.edges
        assert inc.edges_inserted == fresh.edges_inserted == len(inc.edges)
        for phenomenon in CYCLE_PHENOMENA:
            witness = witness_cycle(inc, phenomenon)
            assert witness == witness_cycle(fresh, phenomenon)
            assert witness == compacted_witness(inc, phenomenon)
            assert (witness is not None) == inc.exhibits(phenomenon)


class TestInstallOrder:
    """A commit installs its final versions in object-name order, whatever
    order the transaction first wrote them in; rows are appended in that
    order, and every witness search visits rows in table order."""

    @pytest.mark.parametrize("order_mode", ["event", "commit"])
    def test_a_commit_installs_by_object_name(self, order_mode):
        history = repro.parse_history("w1(b1) w1(a1) c1 w2(b2) w2(a2) c2")
        inc = IncrementalAnalysis(order_mode=order_mode).add_all(history.events)
        assert [(str(e), str(e.version)) for e in inc.edges] == [
            ("T1 -ww-> T2", "a2"),
            ("T1 -ww-> T2", "b2"),
        ]


class TestEngineMonitor:
    @pytest.mark.parametrize("scheduler_cls", [LockingScheduler, SnapshotIsolationScheduler])
    @pytest.mark.parametrize("seed", range(3))
    def test_simulator_monitor_matches_batch(self, scheduler_cls, seed):
        cfg = WorkloadConfig(
            n_programs=5,
            steps_per_program=4,
            predicate_fraction=0.2,
            insert_fraction=0.1,
            write_fraction=0.6,
        )
        db = Database(scheduler_cls())
        db.load(cfg.initial_state())
        monitor = IncrementalAnalysis()
        result = Simulator(
            db, random_programs(cfg, seed=seed), seed=seed, monitor=monitor
        ).run()
        assert result.monitor is monitor
        assert_equivalent(result.history, monitor, scheduler_cls.__name__)

    def test_attach_monitor_replays_existing_events(self):
        db = Database(LockingScheduler())
        db.load({"k0": 1, "k1": 2})
        # Attach only after the load has already been recorded.
        monitor = IncrementalAnalysis()
        db.scheduler.recorder.attach_monitor(monitor)
        txn = db.begin()
        txn.read("k0")
        txn.write("k0", 7)
        txn.commit()
        history = db.history()
        assert len(monitor) == len(history.events)
        assert_equivalent(history, monitor, "attach-replay")


class TestCheckMany:
    def _histories(self, n=6):
        return [
            synthetic_history(
                n_txns=12, n_objects=4, predicate_fraction=0.2, seed=s
            )
            for s in range(n)
        ]

    def test_serial_matches_individual_checks(self):
        histories = self._histories()
        reports = repro.check_many(histories, processes=1)
        for history, report in zip(histories, reports):
            assert report.strongest_level == repro.check(history).strongest_level

    def test_parallel_matches_serial(self):
        histories = self._histories()
        serial = repro.check_many(histories, processes=1)
        parallel = repro.check_many(histories, processes=2)
        assert [r.strongest_level for r in parallel] == [
            r.strongest_level for r in serial
        ]
        # Reports survive the pool round-trip with working verdicts.
        assert all(r.verdicts for r in parallel)

    def test_accepts_notation_strings(self):
        reports = repro.check_many(
            ["w1(x1) c1", "w1(x1) c1 r2(x1) c2"], processes=1
        )
        assert len(reports) == 2
        assert all(r.strongest_level is not None for r in reports)
