"""Tests for the engine's history recorder (repro.engine.recorder)."""

from unittest import mock

import pytest

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
    """The two histories at the end of the run; for a cut-off run also at
    the last step, before the simulator aborts what is still running, where
    the completion rule has transactions to abort."""
    family, engine, cfg, sim = RUNS[name]
    db = Database(create_scheduler(family, **engine))
    db.load(cfg.initial_state())
    recorder = db.scheduler.recorder
    pairs = []
    step = Simulator._step
    steps = 0

    def counted(simulator, run):
        nonlocal steps
        step(simulator, run)
        steps += 1
        if steps == sim.get("max_steps"):
            pairs.append(_histories(recorder))

    with mock.patch.object(Simulator, "_step", counted):
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


class TestShippedEntries:
    """A backup's copy of the primary's log: its rows wait in the
    replication log until something reads them, then match the primary's."""

    def test_a_backup_rows_its_entries_when_read(self):
        db = Database(create_scheduler("locking"))
        db.load(PREDICATES.initial_state())
        primary = db.scheduler.recorder
        primary.enable_replication()
        Simulator(db, random_programs(PREDICATES, seed=3), seed=3).run()
        backup = HistoryRecorder()
        backup.enable_replication()
        for entry in primary.repl_log:
            backup.apply_entry(entry)
        assert len(backup) == len(primary) and not backup._log.kind
        assert backup.install_order == primary.install_order
        assert _view(backup.history()) == _view(primary.history())
        assert backup.events == primary.events and len(backup._log.kind) == len(backup)
