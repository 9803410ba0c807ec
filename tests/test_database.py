"""Tests for the database facade (repro.engine.database)."""

import pytest

from repro.core.predicates import FieldPredicate
from repro.engine import Database, SnapshotIsolationScheduler
from repro.engine.transaction import TxnState
from repro.exceptions import (
    InvalidOperation,
    TransactionAborted,
    WouldBlock,
    WriteConflict,
)


def make_db():
    db = Database(SnapshotIsolationScheduler())
    db.load({"x": 1})
    return db


class TestLoad:
    def test_loader_is_transaction_zero(self):
        db = make_db()
        h = db.history()
        assert 0 in h.committed
        assert h.committed_state() == {"x": 1}

    def test_double_load_rejected(self):
        db = make_db()
        with pytest.raises(InvalidOperation):
            db.load({"y": 2})

    def test_load_after_begin_rejected(self):
        db = Database(SnapshotIsolationScheduler())
        db.begin()
        with pytest.raises(InvalidOperation):
            db.load({"x": 1})

    def test_loading_rows_registers_relation(self):
        db = Database(SnapshotIsolationScheduler())
        db.load({"emp:1": {"dept": "Sales"}})
        assert db.scheduler.store.objects_in("emp") == ("emp:1",)


class TestTransactionLifecycle:
    def test_tids_sequential_from_one(self):
        db = make_db()
        assert db.begin().tid == 1
        assert db.begin().tid == 2

    def test_operations_after_commit_rejected(self):
        db = make_db()
        t = db.begin()
        t.commit()
        with pytest.raises(InvalidOperation):
            t.read("x")

    def test_abort_is_idempotent(self):
        db = make_db()
        t = db.begin()
        t.abort()
        t.abort()

    def test_level_recorded_in_history(self):
        from repro.core.levels import IsolationLevel

        db = make_db()
        t = db.begin(level="read committed")
        t.commit()
        assert db.history().level_of(t.tid) is IsolationLevel.PL_2


class TestInsertNaming:
    def test_fresh_object_ids(self):
        db = make_db()
        t = db.begin()
        a = t.insert("emp", {"dept": "Sales"})
        b = t.insert("emp", {"dept": "Legal"})
        assert a != b
        assert a.startswith("emp:")

    def test_counter_skips_preloaded_names(self):
        db = Database(SnapshotIsolationScheduler())
        db.load({"emp:3": {"dept": "Sales"}})
        t = db.begin()
        assert t.insert("emp", {}) == "emp:4"


class TestRun:
    def test_commits_on_return(self):
        db = make_db()
        db.run(lambda t: t.write("x", 2))
        assert db.begin().read("x") == 2

    def test_aborts_on_exception(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            db.run(lambda t: (_ for _ in ()).throw(RuntimeError("boom")))
        assert db.begin().read("x") == 1

    def test_retries_scheduler_aborts(self):
        db = make_db()
        blocker = db.begin()
        blocker.write("x", 50)

        calls = []

        def bump(t):
            calls.append(1)
            t.write("x", (t.read("x") or 0) + 1)
            if len(calls) == 1:
                blocker.commit()  # make the first attempt lose FCW

        db.run(bump, retries=2)
        assert len(calls) == 2
        assert db.begin().read("x") == 51

    def test_no_retries_reraises(self):
        db = make_db()
        t_block = db.begin()
        t_block.write("x", 9)

        def losing(t):
            t.write("x", t.read("x") + 1)
            t_block.commit()

        with pytest.raises(WriteConflict):
            db.run(losing)


class TestCompositeOperations:
    def test_select_issues_item_reads(self):
        db = Database(SnapshotIsolationScheduler())
        db.load({"emp:1": {"dept": "Sales", "sal": 1}})
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        t = db.begin()
        rows = t.select(pred)
        t.commit()
        assert rows == {"emp:1": {"dept": "Sales", "sal": 1}}
        h = db.history()
        assert len(h.predicate_reads) == 1
        assert any(e.tid == t.tid for _i, e in h.reads)

    def test_count_issues_no_item_reads(self):
        db = Database(SnapshotIsolationScheduler())
        db.load({"emp:1": {"dept": "Sales", "sal": 1}})
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        t = db.begin()
        assert t.count(pred) == 1
        t.commit()
        assert not any(e.tid == t.tid for _i, e in db.history().reads)

    def test_update_where(self):
        db = Database(SnapshotIsolationScheduler())
        db.load({"emp:1": {"dept": "Sales", "sal": 1}})
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        t = db.begin()
        assert t.update_where(pred, lambda r: {**r, "sal": r["sal"] + 1}) == 1
        t.commit()
        assert db.begin().read("emp:1")["sal"] == 2

    def test_delete_where(self):
        db = Database(SnapshotIsolationScheduler())
        db.load({"emp:1": {"dept": "Sales"}, "emp:2": {"dept": "Legal"}})
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        t = db.begin()
        assert t.delete_where(pred) == 1
        t.commit()
        t2 = db.begin()
        assert t2.read("emp:1") is None
        assert t2.read("emp:2") == {"dept": "Legal"}


FAMILIES = (
    "locking", "optimistic", "mixed-optimistic", "snapshot-isolation",
    "mv-read-committed",
)


@pytest.mark.parametrize("family", FAMILIES)
class TestOwnWritesComeFirst:
    """Every scheme reads and scans its own latest write before anything
    its view holds (model constraint E4), and after its own delete reads
    nothing (E7), while the committed version is still live."""

    PRED = FieldPredicate("emp", "dept", "==", "Sales")

    def test_reads_see_own_update_and_nothing_after_own_delete(self, family):
        db = Database(family)
        db.load({"x": 1, "y": 1})
        t = db.begin()
        t.write("x", 2)
        t.delete("y")
        assert (t.read("x"), t.read("y")) == (2, None)
        t.commit()
        assert db.history().committed == {0, t.tid}

    def test_scans_see_own_insert_update_and_delete(self, family):
        db = Database(family)
        db.load({f"emp:{i}": {"dept": "Sales", "sal": i} for i in (1, 2)})
        t = db.begin()
        t.write("emp:1", {"dept": "Sales", "sal": 10})
        t.delete("emp:2")
        new = t.insert("emp", {"dept": "Sales", "sal": 3})
        assert t.select(self.PRED) == {
            "emp:1": {"dept": "Sales", "sal": 10},
            new: {"dept": "Sales", "sal": 3},
        }
        t.commit()
        assert db.history().committed == {0, t.tid}


@pytest.mark.parametrize("family", FAMILIES)
class TestDeletedObjectsAreNeverWritten:
    """Section 4.1: a dead version is the last of its object's version
    order, so no scheme may install anything after it (re-insertion creates
    a new object).  Every case used to be accepted and fail V1/E7 validation
    at ``db.history()``."""

    @pytest.mark.parametrize("delete_again", [False, True])
    def test_write_after_a_committed_delete_aborts_the_writer(
        self, family, delete_again
    ):
        db = Database(family)
        db.load({"x": 1, "y": 1})
        db.run(lambda t: t.delete("x"))
        t = db.begin()
        t.write("y", 2)
        with pytest.raises(TransactionAborted, match="deleted-object x"):
            t.delete("x") if delete_again else t.write("x", 2)
        assert t.state is TxnState.ABORTED
        history = db.history()  # validates
        assert history.committed == {0, 1}

    def test_write_after_own_delete_is_refused_and_the_transaction_lives(
        self, family
    ):
        db = Database(family)
        db.load({"x": 1, "y": 1})
        t = db.begin()
        t.delete("x")
        with pytest.raises(InvalidOperation, match="after deleting it"):
            t.write("x", 2)
        t.write("y", 2)
        t.commit()
        assert db.history().committed == {0, t.tid}
        assert db.begin().read("x") is None

    def test_blind_write_racing_a_delete_cannot_commit_after_it(self, family):
        db = Database(family)
        db.load({"x": 1})
        deleter, writer = db.begin(), db.begin()
        deleter.delete("x")
        try:
            writer.write("x", 2)  # buffered (or, under locking, blocked)
            deleter.commit()
            writer.commit()
        except WouldBlock:
            deleter.commit()
            with pytest.raises(TransactionAborted, match="deleted-object"):
                writer.write("x", 2)
        except TransactionAborted:
            pass
        assert writer.state is TxnState.ABORTED
        assert db.history().committed == {0, deleter.tid}

    def test_reinsertion_is_a_new_object(self, family):
        db = Database(family)
        db.load({"emp:1": {"dept": "Sales"}})
        db.run(lambda t: t.delete("emp:1"))
        obj = db.run(lambda t: t.insert("emp", {"dept": "Sales"}))
        assert obj != "emp:1"
        db.history()  # validates
