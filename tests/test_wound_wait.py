"""Tests for wound-wait deadlock prevention (LockingScheduler(deadlock=...))."""

import pytest

import repro
from repro.core.levels import IsolationLevel as L
from repro.engine import Database, LockingScheduler, Program, Simulator, Write
from repro.exceptions import TransactionAborted, WouldBlock


def make_db(**kw):
    db = Database(LockingScheduler("serializable", **kw))
    db.load({"x": 0, "y": 0})
    return db


class TestPolicySelection:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            LockingScheduler("serializable", deadlock="hope")

    def test_default_is_detect(self):
        assert LockingScheduler("serializable").deadlock_policy == "detect"


class TestWounding:
    def test_older_wounds_younger_holder(self):
        db = make_db(deadlock="wound-wait")
        t1 = db.begin()  # older
        t2 = db.begin()  # younger
        t2.write("x", 2)
        t1.write("x", 1)  # wounds T2, acquires immediately
        t1.commit()
        with pytest.raises(TransactionAborted, match="wounded"):
            t2.read("y")  # the victim finds out at its next operation

    def test_younger_waits_for_older(self):
        db = make_db(deadlock="wound-wait")
        t1 = db.begin()
        t2 = db.begin()
        t1.write("x", 1)
        with pytest.raises(WouldBlock) as exc:
            t2.write("x", 2)
        assert exc.value.holders == {t1.tid}

    def test_wounded_writes_are_undone(self):
        db = make_db(deadlock="wound-wait")
        t1 = db.begin()
        t2 = db.begin()
        t2.write("x", 99)
        t1.write("x", 1)  # wound + overwrite
        t1.commit()
        t3 = db.begin()
        assert t3.read("x") == 1

    def test_history_records_the_wound(self):
        db = make_db(deadlock="wound-wait")
        t1 = db.begin()
        t2 = db.begin()
        t2.write("x", 2)
        t1.write("x", 1)
        t1.commit()
        h = db.history(validate=True)
        assert t2.tid in h.aborted


class TestNoDeadlocks:
    def crossing_programs(self):
        return [
            Program("a", [Write("x", 1), Write("y", 1)]),
            Program("b", [Write("y", 2), Write("x", 2)]),
        ]

    def test_crossing_order_never_needs_detection(self):
        """Under wound-wait the simulator's waits-for graph never has a
        cycle: zero detected deadlocks across seeds, yet all programs
        commit (victims restart after being wounded)."""
        for seed in range(20):
            db = make_db(deadlock="wound-wait")
            result = Simulator(db, self.crossing_programs(), seed=seed).run()
            assert result.deadlocks == 0
            assert result.committed_count == 2

    def test_detect_policy_does_deadlock_sometimes(self):
        total = 0
        for seed in range(20):
            db = make_db(deadlock="detect")
            result = Simulator(db, self.crossing_programs(), seed=seed).run()
            total += result.deadlocks
        assert total > 0

    def test_histories_still_pl3(self):
        for seed in range(10):
            db = make_db(deadlock="wound-wait")
            result = Simulator(db, self.crossing_programs(), seed=seed).run()
            assert repro.classify(result.history) is L.PL_3

    def test_contended_increments_stay_correct(self):
        from repro.engine import Increment

        programs = [Program(f"p{i}", [Increment("x")]) for i in range(5)]
        for seed in range(6):
            db = make_db(deadlock="wound-wait")
            result = Simulator(db, programs, seed=seed).run()
            assert result.committed_count == 5
            assert db.begin().read("x") == 5


class TestWoundsReachParkedSessions:
    """Behind the service, a wound ends a transaction whose session may be
    parked: its ``aborted`` is pushed, and whoever waited on it runs again."""

    def test_wounded_parked_session_gets_its_abort_pushed(self):
        from repro.service import (
            Client, SchedulerConfig, Server, ServiceAborted, SimulatedNetwork,
        )

        net = SimulatedNetwork()
        server = Server(
            net,
            SchedulerConfig(scheduler="locking", deadlock="wound-wait"),
            initial={"a": 0, "b": 0},
        )
        old, mid, young, last = (
            Client(net, name=n) for n in ("old", "mid", "young", "last")
        )
        t_old, t_mid, t_young, _ = (c.begin() for c in (old, mid, young, last))
        old.write("a", 1)
        young.write("b", 3)
        # Younger waits for older: young parks behind old, last behind young.
        p_young = young.submit("write", obj="a", value=33)
        p_last = last.submit("write", obj="b", value=4)
        while net.step():
            pass
        assert server.parked() == {"young": [t_old], "last": [t_young]}
        # mid is older than young: it wounds young and takes b at once.
        mid.write("b", 2)
        while net.step():
            pass
        assert p_young.poll() and p_young.attempts == 1
        with pytest.raises(ServiceAborted, match=f"wounded by older T{t_mid}"):
            p_young.result()
        # last ran again when young ended and now waits behind the wounder.
        assert not p_last.poll()
        assert server.parked() == {"last": [t_mid]}
        mid.commit()
        while net.step():
            pass
        assert p_last.poll() and p_last.result()["ok"] and p_last.attempts == 1


class TestPreparedParticipants:
    """Across shards a wound must not reach a *prepared* 2PC participant:
    the coordinator may already have decided to commit it, so aborting it on
    one shard commits it on another and aborts it here (2PC atomicity).
    ``run_stress`` raises on such a transaction."""

    @pytest.mark.parametrize("replicas", [0, 1])
    @pytest.mark.parametrize("seed", range(6))
    def test_wound_wait_across_shards_is_atomic(self, seed, replicas):
        from repro.service import (
            ClusterConfig, SchedulerConfig, StressConfig, run_stress,
        )

        result = run_stress(StressConfig(
            seed=seed,
            scheduler=SchedulerConfig(scheduler="locking", deadlock="wound-wait"),
            cluster=ClusterConfig(shards=2, replicas=replicas),
        ))
        assert result.all_certified
