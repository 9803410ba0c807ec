"""Tests for the engine's history recorder (repro.engine.recorder)."""

from unittest import mock

import pytest

from repro.core.events import Commit
from repro.core.incremental import CORE_PHENOMENA, IncrementalAnalysis
from repro.core.objects import Version
from repro.engine.recorder import HistoryRecorder


def v(obj, tid, seq=1):
    return Version(obj, tid, seq)


class TestEventEmission:
    def test_sequence(self):
        rec = HistoryRecorder()
        rec.begin(1)
        rec.write(1, v("x", 1), 10)
        rec.read(1, v("x", 1), 10)
        rec.commit(1, {"x": v("x", 1)})
        history = rec.history()
        assert [type(e).__name__ for e in history.events] == [
            "Begin",
            "Write",
            "Read",
            "Commit",
        ]

    def test_len_counts_events(self):
        rec = HistoryRecorder()
        rec.write(1, v("x", 1))
        assert len(rec) == 1


class TestInstallOrder:
    def test_commit_order_default(self):
        rec = HistoryRecorder()
        rec.write(2, v("x", 2))
        rec.write(1, v("x", 1))
        rec.commit(1, {"x": v("x", 1)})
        rec.commit(2, {"x": v("x", 2)})
        # Installed in commit order even though T2 wrote first.
        assert rec.install_order["x"] == [v("x", 1), v("x", 2)]

    def test_position_hints_override(self):
        rec = HistoryRecorder()
        rec.write(2, v("x", 2))  # event 0
        rec.write(1, v("x", 1))  # event 1
        rec.commit(1, {"x": v("x", 1)}, positions={"x": 1})
        rec.commit(2, {"x": v("x", 2)}, positions={"x": 0})
        # Write-event positions: T2's write was first.
        assert rec.install_order["x"] == [v("x", 2), v("x", 1)]

    def test_multi_object_commit_installs_all(self):
        rec = HistoryRecorder()
        rec.write(1, v("x", 1))
        rec.write(1, v("y", 1))
        rec.commit(1, {"x": v("x", 1), "y": v("y", 1)})
        assert set(rec.install_order) == {"x", "y"}


class TestHistoryMaterialisation:
    def test_unfinished_transactions_auto_aborted(self):
        rec = HistoryRecorder()
        rec.write(1, v("x", 1))
        rec.write(2, v("y", 2))
        rec.commit(2, {"y": v("y", 2)})
        history = rec.history()
        assert 1 in history.aborted
        assert 2 in history.committed

    def test_history_is_validated(self):
        from repro.exceptions import MalformedHistoryError

        rec = HistoryRecorder()
        # Read of a version never written: invalid history.
        rec.read(2, v("x", 1))
        rec.write(1, v("x", 1))
        rec.commit(1, {"x": v("x", 1)})
        rec.commit(2, {})
        with pytest.raises(MalformedHistoryError):
            rec.history()

    def test_validate_false_skips(self):
        rec = HistoryRecorder()
        rec.read(2, v("x", 1))
        rec.write(1, v("x", 1))
        rec.commit(1, {"x": v("x", 1)})
        rec.commit(2, {})
        rec.history(validate=False)  # no raise


# ----------------------------------------------------------------------
# recorder.history() against History(events, order) over engine runs
# ----------------------------------------------------------------------

from repro import check  # noqa: E402
from repro.core.formatting import format_history  # noqa: E402
from repro.core.history import History  # noqa: E402
from repro.engine import Database, Simulator  # noqa: E402
from repro.engine.factory import create_scheduler  # noqa: E402
from repro.workloads import WorkloadConfig, random_programs  # noqa: E402

FAMILIES = (
    "locking",
    "optimistic",
    "mixed-optimistic",
    "snapshot-isolation",
    "mv-read-committed",
)
#: Few keys, most traffic on two of them: waits, victims and losers.
CONTENDED = WorkloadConfig(
    n_programs=8, steps_per_program=4, n_keys=6, hot_keys=2,
    hot_fraction=0.6, write_fraction=0.5,
)
#: Predicate reads and updates, inserts and deletes: version sets, dead
#: versions and objects no loader wrote.
PREDICATES = WorkloadConfig(
    n_programs=8, steps_per_program=4, n_keys=6, hot_keys=2,
    hot_fraction=0.5, write_fraction=0.5, predicate_fraction=0.3,
    insert_fraction=0.15, delete_fraction=0.15,
)
#: ``(family, scheduler options, workload, simulator options)``: every
#: family on both workloads and cut off by the step budget (the recorder
#: completes the history with aborts), plus Degree-0 locking, whose short
#: write locks interleave writes that ``positions=`` orders.
RUNS = {
    **{
        f"{family}_{name}": (family, {}, cfg, {})
        for family in FAMILIES
        for name, cfg in (("contended", CONTENDED), ("predicates", PREDICATES))
    },
    **{
        f"{family}_cut_off": (family, {}, PREDICATES, dict(max_steps=40))
        for family in FAMILIES
    },
    "locking_degree_0": ("locking", dict(profile="degree-0"), CONTENDED, {}),
    "locking_degree_0_predicates": (
        "locking", dict(profile="degree-0"), PREDICATES, {},
    ),
}


def _histories(recorder) -> tuple:
    """``recorder.history()``, the history its events and install order
    describe, and how many aborts the completion rule appended, as of now."""
    events = list(recorder.events)
    rebuilt = History(events, recorder.install_order, auto_complete=True)
    return recorder.history(), rebuilt, len(rebuilt.events) - len(events)


def _pairs(name: str, seed: int) -> list:
    """The two histories at the end of the run; for a cut-off run also
    after the last step it runs, before the simulator aborts what is still
    running, where the completion rule has transactions to abort.  (Its
    last step need not fall in its last round: a round whose waiter's
    refusal stands runs no step.)"""
    family, engine, cfg, sim = RUNS[name]
    db = Database(create_scheduler(family, **engine))
    db.load(cfg.initial_state())
    recorder = db.scheduler.recorder
    pairs = []
    step = Simulator._step

    def snapshot(simulator, run):
        step(simulator, run)
        pairs[:] = [_histories(recorder)]

    hook = snapshot if "max_steps" in sim else step
    with mock.patch.object(Simulator, "_step", hook):
        Simulator(db, random_programs(cfg, seed=seed), seed=seed, **sim).run()
    pairs.append(_histories(recorder))
    return pairs


def _view(history) -> tuple:
    return (
        list(history.events),
        list(history.version_order.items()),
        history.committed,
        history.aborted,
        history.setup_versions,
        format_history(history),
        check(history, extensions=True).explain(),
    )


class TestHistoryDifferential:
    """``recorder.history()`` is the history its own events and install
    order describe: equal to ``History(events, install_order,
    auto_complete=True)`` in events, version order (key order too),
    committed and aborted sets, setup versions, printed form and report."""

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_recorder_history_equals_the_events_history(self, name):
        completed = 0
        for seed in range(20):
            for recorded, rebuilt, appended in _pairs(name, seed):
                assert _view(recorded) == _view(rebuilt), (name, seed)
                assert len(recorded) == len(rebuilt.events)
                completed += appended
        if name.endswith("_cut_off"):
            assert completed, "the completion rule aborted nothing"

    def test_history_is_a_snapshot(self):
        db = Database(create_scheduler("locking"))
        db.load(CONTENDED.initial_state())
        Simulator(db, random_programs(CONTENDED, seed=0), seed=0).run()
        recorder = db.scheduler.recorder
        history = recorder.history()
        before = _view(history)
        recorder.begin(10_000)
        recorder.write(10_000, v("k0", 10_000), 1)
        recorder.commit(10_000, {"k0": v("k0", 10_000)})
        assert _view(history) == before
        assert len(recorder.history()) == len(history) + 3


def _rebuilt(entries) -> HistoryRecorder:
    """A fresh recorder made of ``entries`` by :meth:`apply_entry` (what a
    promoted backup's primary runs on)."""
    recorder = HistoryRecorder()
    for entry in entries:
        recorder.apply_entry(entry)
    return recorder


def _same_log(rebuilt, recorder) -> None:
    assert rebuilt.events == recorder.events
    assert rebuilt.install_order == recorder.install_order
    built, recorded = rebuilt.history(), recorder.history()
    assert list(built.events) == list(recorded.events)
    assert list(built.version_order.items()) == list(recorded.version_order.items())
    assert format_history(built) == format_history(recorded)


class TestShippedEntries:
    """A recorder is its one event log: the entries shipped off its rows
    rebuild, by :meth:`HistoryRecorder.apply_entry`, a recorder with the
    same events, install order and history; and a monitor attached late
    replays those rows into the verdicts of one attached from the start."""

    @pytest.mark.parametrize("family", ("locking", "snapshot-isolation"))
    def test_every_prefix_rebuilds_the_same_log(self, family):
        db = Database(create_scheduler(family))
        primary = db.scheduler.recorder
        copy = HistoryRecorder()
        completed = []

        class AtEveryRow:
            """A monitor that ships each new row to ``copy`` and compares."""

            def add(self, event, finals=None, positions=None):
                for entry in primary._shipped(len(copy)):
                    copy.apply_entry(entry)
                _same_log(copy, primary)
                completed.append(len(copy.history().events) - len(copy))

        primary.attach_monitor(AtEveryRow())
        db.load(CONTENDED.initial_state())
        Simulator(db, random_programs(CONTENDED, seed=3), seed=3).run()
        assert len(completed) == len(primary) > 50
        assert any(completed), "no prefix was cut mid-transaction"
        assert copy._shipped() == primary._shipped()
        _same_log(_rebuilt(primary._shipped()), primary)

    def test_a_rebased_copy_goes_on_like_its_primary(self):
        db = Database(create_scheduler("locking"))
        db.load(PREDICATES.initial_state())
        primary = db.scheduler.recorder
        Simulator(db, random_programs(PREDICATES, seed=3), seed=3).run()
        primary.position_base = 7
        copy = _rebuilt(primary._shipped())
        copy.rebase(primary._install_counter, primary.position_base)
        for recorder in (primary, copy):
            recorder.begin(10_000)
            recorder.write(10_000, v("k0", 10_000), 1)
            recorder.write(10_000, v("zz", 10_000), 2)
            recorder.commit(10_000, {"zz": v("zz", 10_000), "k0": v("k0", 10_000)})
            recorder.begin(10_001)
            recorder.write(10_001, v("k1", 10_001), 3)
        assert copy._shipped() == primary._shipped()
        _same_log(copy, primary)

    def test_a_read_only_commit_ships_empty_installs(self):
        rec = HistoryRecorder()
        rec.write(1, v("x", 1), 5)
        rec.commit(1, {"x": v("x", 1)})
        rec.begin(2)
        rec.read(2, v("x", 1), 5)
        rec.commit(2, {})
        shipped = rec._shipped()
        assert shipped[-1] == (Commit(2), {}, {})
        assert shipped[1] == (Commit(1), {"x": v("x", 1)}, {"x": 1})
        assert _rebuilt(shipped)._shipped() == shipped

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_a_late_monitor_replays_into_the_same_verdicts(self, name):
        family, engine, cfg, sim = RUNS[name]
        early, late = IncrementalAnalysis(), IncrementalAnalysis()
        db = Database(create_scheduler(family, **engine))
        recorder = db.scheduler.recorder
        recorder.attach_monitor(early)
        db.load(cfg.initial_state())
        Simulator(db, random_programs(cfg, seed=5), seed=5, **sim).run()
        recorder.monitor = None
        recorder.attach_monitor(late)
        assert late.events == early.events == recorder.events
        assert [str(e) for e in late.edges] == [str(e) for e in early.edges]
        order = late.to_history().version_order
        assert list(order.items()) == list(
            early.to_history().version_order.items()
        )
        for phenomenon in CORE_PHENOMENA:
            assert late.exhibits(phenomenon) == early.exhibits(phenomenon)
        assert late.strongest_level() == early.strongest_level()
