"""Tests for the Figure 1 locking scheduler (repro.engine.locking)."""

import pytest

import repro
from repro.core.levels import IsolationLevel as L
from repro.core.predicates import FieldPredicate
from repro.engine import Database, LockingScheduler
from repro.engine import Simulator
from repro.engine.locking import PROFILES, profile_for_level
from repro.engine.locks import LockDuration
from repro.engine.transaction import TxnState
from repro.exceptions import WouldBlock
from repro.workloads import random_programs

from .test_simulator_golden import CONTENDED, PREDICATES


def db_with(profile, initial=None):
    db = Database(LockingScheduler(profile))
    db.load(initial or {"x": 1, "y": 2})
    return db


class TestProfiles:
    def test_figure1_rows(self):
        d0 = PROFILES["degree-0"]
        assert (d0.item_write, d0.item_read) == (LockDuration.SHORT, LockDuration.NONE)
        ser = PROFILES["serializable"]
        assert (ser.item_write, ser.item_read, ser.predicate_read) == (
            LockDuration.LONG,
            LockDuration.LONG,
            LockDuration.LONG,
        )
        rr = PROFILES["repeatable-read"]
        assert rr.predicate_read is LockDuration.SHORT

    def test_level_mapping(self):
        assert profile_for_level(L.PL_3).name == "serializable"
        assert profile_for_level(L.PL_2).name == "read-committed"
        with pytest.raises(KeyError):
            profile_for_level(L.PL_SI)


class TestSerializableProfile:
    def test_write_blocks_conflicting_write(self):
        db = db_with("serializable")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 10)
        with pytest.raises(WouldBlock):
            t2.write("x", 20)

    def test_read_blocks_on_uncommitted_write(self):
        db = db_with("serializable")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 10)
        with pytest.raises(WouldBlock):
            t2.read("x")

    def test_commit_releases_locks(self):
        db = db_with("serializable")
        t1 = db.begin()
        t1.write("x", 10)
        t1.commit()
        t2 = db.begin()
        assert t2.read("x") == 10

    def test_long_read_locks_block_writers(self):
        db = db_with("serializable")
        t1, t2 = db.begin(), db.begin()
        t1.read("x")
        with pytest.raises(WouldBlock):
            t2.write("x", 5)


class TestReadCommittedProfile:
    def test_short_read_locks_allow_later_write(self):
        db = db_with("read-committed")
        t1, t2 = db.begin(), db.begin()
        assert t1.read("x") == 1
        t2.write("x", 99)  # T1's read lock was short
        t2.commit()
        assert t1.read("x") == 99  # fuzzy read, by design

    def test_no_dirty_reads(self):
        db = db_with("read-committed")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 99)
        with pytest.raises(WouldBlock):
            t2.read("x")


class TestReadUncommittedProfile:
    def test_dirty_read_happens(self):
        db = db_with("read-uncommitted")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 99)
        assert t2.read("x") == 99  # no read locks: dirty read

    def test_dirty_read_of_aborter_yields_g1a(self):
        db = db_with("read-uncommitted")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 99)
        assert t2.read("x") == 99
        t2.commit()
        t1.abort()
        from repro.core.phenomena import Analysis, Phenomenon

        assert Analysis(db.history()).exhibits(Phenomenon.G1A)

    def test_long_write_locks_still_block_writers(self):
        db = db_with("read-uncommitted")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 99)
        with pytest.raises(WouldBlock):
            t2.write("x", 1)


class TestDegree0Profile:
    def test_interleaved_writes_allowed(self):
        db = db_with("degree-0")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 10)
        t2.write("x", 20)  # short write locks: no conflict
        t2.commit()
        t1.commit()

    def test_version_order_follows_write_order(self):
        from repro.core.objects import Version

        db = db_with("degree-0")
        t1, t2 = db.begin(), db.begin()
        t1.write("x", 10)
        t2.write("x", 20)
        t2.commit()
        t1.commit()  # commits in opposite order of writes
        h = db.history()
        chain = h.order_of("x")
        assert chain.index(Version("x", t1.tid)) < chain.index(Version("x", t2.tid))


class TestUndo:
    def test_abort_restores_previous_value(self):
        db = db_with("serializable")
        t1 = db.begin()
        t1.write("x", 99)
        t1.abort()
        t2 = db.begin()
        assert t2.read("x") == 1

    def test_abort_of_unborn_insert(self):
        db = db_with("serializable")
        t1 = db.begin()
        obj = t1.insert("emp", {"dept": "Sales"})
        t1.abort()
        t2 = db.begin()
        assert t2.read(obj) is None


class TestCellStacks:
    """A commit drops the entries below its own newest one, so an object's
    stack holds one committed entry, at its bottom, and the entries of its
    uncommitted writers above it — however many versions the object has
    had."""

    @pytest.mark.parametrize("profile", list(PROFILES))
    @pytest.mark.parametrize(
        "cfg", [CONTENDED, PREDICATES], ids=["contended", "predicates"]
    )
    def test_one_committed_entry_per_stack(self, monkeypatch, profile, cfg):
        def shape(scheduler):
            for stack in scheduler._cells.values():
                states = [scheduler._txns[e.version.tid].state for e in stack]
                assert TxnState.ABORTED not in states
                assert TxnState.COMMITTED not in states[1:]

        for name in ("write", "commit", "abort"):
            inner = getattr(LockingScheduler, name)

            def checked(self, *args, _inner=inner, **kwargs):
                try:
                    return _inner(self, *args, **kwargs)
                finally:
                    shape(self)

            monkeypatch.setattr(LockingScheduler, name, checked)
        versions = 0
        for seed in range(8):
            db = Database(LockingScheduler(profile))
            db.load(cfg.initial_state())
            Simulator(db, random_programs(cfg, seed=seed), seed=seed).run()
            history = db.history()
            versions = max(versions, *map(len, history.version_order.values()))
        # Not vacuous: the stacks held several committed entries before.
        assert versions >= 4


class TestReadYourOwnWrites:
    def test_read_sees_own_buffer(self):
        db = db_with("serializable")
        t1 = db.begin()
        t1.write("x", 42)
        assert t1.read("x") == 42

    def test_read_after_own_delete_sees_nothing(self):
        db = db_with("serializable")
        t1 = db.begin()
        t1.delete("x")
        assert t1.read("x") is None

    def test_select_sees_own_insert(self):
        db = db_with("serializable", {"emp:1": {"dept": "Sales", "sal": 1}})
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        t1 = db.begin()
        t1.insert("emp", {"dept": "Sales", "sal": 2})
        assert len(t1.select(pred)) == 2


class TestPredicateLocks:
    PRED = FieldPredicate("emp", "dept", "==", "Sales")

    def initial(self):
        return {"emp:1": {"dept": "Sales", "sal": 10}}

    def test_serializable_predicate_blocks_insert(self):
        db = db_with("serializable", self.initial())
        t1, t2 = db.begin(), db.begin()
        t1.count(self.PRED)
        with pytest.raises(WouldBlock):
            t2.insert("emp", {"dept": "Sales", "sal": 5})

    def test_repeatable_read_allows_phantom_insert(self):
        db = db_with("repeatable-read", self.initial())
        t1, t2 = db.begin(), db.begin()
        before = t1.count(self.PRED)
        t2.insert("emp", {"dept": "Sales", "sal": 5})
        t2.commit()
        after = t1.count(self.PRED)
        t1.commit()
        assert (before, after) == (1, 2)  # the phantom

    def test_predicate_read_blocks_on_uncommitted_write(self):
        db = db_with("repeatable-read", self.initial())
        t1, t2 = db.begin(), db.begin()
        t1.insert("emp", {"dept": "Sales", "sal": 5})
        with pytest.raises(WouldBlock):
            t2.count(self.PRED)


class TestMixedProfiles:
    def test_transaction_level_selects_profile(self):
        db = db_with("serializable")
        weak = db.begin(level=L.PL_1)  # read-uncommitted row
        strong = db.begin(level=L.PL_3)
        strong.write("x", 50)
        assert weak.read("x") == 50  # PL-1 transaction dirty-reads
        with pytest.raises(WouldBlock):
            db.begin(level=L.PL_2).read("x")


class TestEmittedHistories:
    def test_serializable_run_is_pl3(self):
        db = db_with("serializable")
        t1 = db.begin()
        t1.write("x", t1.read("x") + 1)
        t1.commit()
        t2 = db.begin()
        t2.write("y", t2.read("x") + 1)
        t2.commit()
        assert repro.classify(db.history()) is L.PL_3


class TestSelectForUpdate:
    def test_for_update_takes_write_lock(self):
        db = db_with("serializable")
        t1, t2 = db.begin(), db.begin()
        t1.read("x", for_update=True)
        with pytest.raises(WouldBlock):
            t2.read("x")  # plain read blocks on the write lock

    def test_plain_reads_share(self):
        db = db_with("serializable")
        t1, t2 = db.begin(), db.begin()
        t1.read("x")
        t2.read("x")  # shared, no conflict

    def test_no_upgrade_deadlock_between_increments(self):
        """Two read-modify-writes of the same key never deadlock when both
        reads are FOR UPDATE — the second blocks at the read, no upgrade."""
        from repro.engine import Increment, Program, Simulator

        for seed in range(10):
            db = db_with("serializable")
            programs = [Program(f"p{i}", [Increment("x")]) for i in range(2)]
            from repro.engine import Simulator as Sim

            result = Sim(db, programs, seed=seed).run()
            assert result.deadlocks == 0
            assert result.committed_count == 2

    def test_plain_read_then_write_can_upgrade_deadlock(self):
        """The contrast: plain reads before writes do produce upgrade
        deadlocks on some interleavings (which detection then resolves)."""
        from repro.engine import Program, Read, Simulator, Write

        deadlocks = 0
        for seed in range(10):
            db = db_with("serializable")
            programs = [
                Program(
                    f"p{i}",
                    [Read("x", into="v"), Write("x", lambda r: (r["v"] or 0) + 1)],
                )
                for i in range(2)
            ]
            result = Simulator(db, programs, seed=seed).run()
            deadlocks += result.deadlocks
            assert result.committed_count == 2
        assert deadlocks > 0

    def test_multiversion_schedulers_ignore_the_hint(self):
        from repro.engine import SnapshotIsolationScheduler

        db = Database(SnapshotIsolationScheduler())
        db.load({"x": 1})
        t1, t2 = db.begin(), db.begin()
        assert t1.read("x", for_update=True) == 1
        assert t2.read("x") == 1  # no blocking under SI
