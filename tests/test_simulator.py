"""Tests for programs and the deterministic simulator
(repro.engine.programs, repro.engine.simulator)."""


from repro.core.predicates import FieldPredicate
from repro.engine import (
    Compute,
    Count,
    Database,
    Delete,
    Increment,
    Insert,
    LockingScheduler,
    PredicateReadStep,
    Program,
    Read,
    ReadCommittedMVScheduler,
    Select,
    Simulator,
    SnapshotIsolationScheduler,
    UpdateWhere,
    Write,
)


def run_one(program, scheduler=None, initial=None, seed=0):
    db = Database(scheduler or SnapshotIsolationScheduler())
    db.load(initial or {"x": 1, "y": 2})
    result = Simulator(db, [program], seed=seed).run()
    return db, result


class TestSteps:
    def test_read_write_registers(self):
        prog = Program(
            "p", [Read("x", into="x"), Write("y", lambda r: r["x"] * 10)]
        )
        db, res = run_one(prog)
        assert res.outcomes[0].committed
        assert db.begin().read("y") == 10

    def test_increment_expansion(self):
        prog = Program("p", [Increment("x", 5)])
        db, res = run_one(prog)
        assert db.begin().read("x") == 6

    def test_insert_and_delete(self):
        prog = Program(
            "p",
            [
                Insert("emp", {"dept": "Sales"}, into="new"),
                Delete("x"),
            ],
        )
        db, res = run_one(prog)
        t = db.begin()
        assert t.read(res.outcomes[0].regs["new"]) == {"dept": "Sales"}
        assert t.read("x") is None

    def test_select_and_count(self):
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        prog = Program(
            "p", [Select(pred, into="rows"), Count(pred, into="n")]
        )
        db, res = run_one(
            prog, initial={"emp:1": {"dept": "Sales"}, "emp:2": {"dept": "HR"}}
        )
        regs = res.outcomes[0].regs
        assert list(regs["rows"]) == ["emp:1"]
        assert regs["n"] == 1

    def test_update_where_expansion(self):
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        prog = Program(
            "p", [UpdateWhere(pred, lambda r: {**r, "sal": 2})]
        )
        db, _ = run_one(prog, initial={"emp:1": {"dept": "Sales", "sal": 1}})
        assert db.begin().read("emp:1")["sal"] == 2

    def test_predicate_read_step(self):
        pred = FieldPredicate("emp", "dept", "==", "Sales")
        prog = Program("p", [PredicateReadStep(pred, into="matched")])
        _, res = run_one(prog, initial={"emp:1": {"dept": "Sales"}})
        assert res.outcomes[0].regs["matched"] == {"emp:1": {"dept": "Sales"}}

    def test_compute(self):
        prog = Program(
            "p", [Read("x", into="x"), Compute(lambda r: r.__setitem__("d", r["x"] * 2))]
        )
        _, res = run_one(prog)
        assert res.outcomes[0].regs["d"] == 2


class TestDeterminism:
    def programs(self):
        return [
            Program(f"p{i}", [Read("x", into="x"), Write("x", lambda r: r["x"] + 1)])
            for i in range(4)
        ]

    def test_same_seed_same_history(self):
        def run(seed):
            db = Database(ReadCommittedMVScheduler())
            db.load({"x": 0})
            Simulator(db, self.programs(), seed=seed).run()
            return str(db.history())

        assert run(7) == run(7)

    def test_different_seeds_vary(self):
        def run(seed):
            db = Database(ReadCommittedMVScheduler())
            db.load({"x": 0})
            Simulator(db, self.programs(), seed=seed).run()
            return str(db.history())

        assert len({run(s) for s in range(10)}) > 1


class TestBlockingAndDeadlock:
    def test_lock_waits_resolve(self):
        programs = [
            Program("a", [Increment("x")]),
            Program("b", [Increment("x")]),
        ]
        db = Database(LockingScheduler("serializable"))
        db.load({"x": 0})
        res = Simulator(db, programs, seed=1).run()
        assert res.committed_count == 2
        assert db.begin().read("x") == 2

    def test_deadlock_detected_and_resolved(self):
        # Classic crossing order: a takes x then y; b takes y then x.
        programs = [
            Program("a", [Write("x", 1), Write("y", 1)]),
            Program("b", [Write("y", 2), Write("x", 2)]),
        ]
        deadlocked = 0
        for seed in range(20):
            db = Database(LockingScheduler("serializable"))
            db.load({"x": 0, "y": 0})
            res = Simulator(db, programs, seed=seed).run()
            assert res.committed_count == 2  # victim retried and succeeded
            deadlocked += res.deadlocks
        assert deadlocked > 0  # some interleaving really deadlocked

    def test_retry_gets_fresh_tid(self):
        programs = [
            Program("a", [Write("x", 1), Write("y", 1)]),
            Program("b", [Write("y", 2), Write("x", 2)]),
        ]
        for seed in range(20):
            db = Database(LockingScheduler("serializable"))
            db.load({"x": 0, "y": 0})
            res = Simulator(db, programs, seed=seed).run()
            for outcome in res.outcomes:
                if outcome.aborts:
                    assert len(outcome.tids) == outcome.aborts + 1
                    assert outcome.committed_tid == outcome.tids[-1]

    def test_step_budget_completes_history(self):
        programs = [Program("a", [Increment("x")])]
        db = Database(LockingScheduler("serializable"))
        db.load({"x": 0})
        blocker = db.begin()
        blocker.write("x", 9)  # never commits: program can never proceed
        res = Simulator(db, programs, seed=0, max_steps=50).run()
        assert not res.outcomes[0].committed
        # History is still complete (aborts appended), so it validates.
        assert res.history is not None


class TestOutcomes:
    def test_result_counters(self):
        programs = [
            Program("a", [Increment("x")]),
            Program("b", [Increment("x")]),
        ]
        db = Database(SnapshotIsolationScheduler())
        db.load({"x": 0})
        res = Simulator(db, programs, seed=3).run()
        assert res.committed_count == 2
        assert res.steps_executed > 0

    def test_si_fcw_retries_preserve_counter(self):
        """FCW losers retry until both increments land: no lost updates."""
        programs = [
            Program(f"p{i}", [Increment("x")]) for i in range(5)
        ]
        for seed in range(5):
            db = Database(SnapshotIsolationScheduler())
            db.load({"x": 0})
            res = Simulator(db, programs, seed=seed).run()
            assert res.committed_count == 5
            assert db.begin().read("x") == 5


class TestVictimSelection:
    def test_original_age_prevents_starvation(self):
        """A restarted deadlock victim keeps its original seniority, so
        crossing writers at scale all eventually commit (the naive
        current-youngest rule starved them on 32-program fleets)."""
        programs = [
            Program(f"p{i}", [Write("x", 1), Write("y", 1)] if i % 2 == 0
                    else [Write("y", 2), Write("x", 2)])
            for i in range(8)
        ]
        for seed in range(6):
            db = Database(LockingScheduler("serializable"))
            db.load({"x": 0, "y": 0})
            result = Simulator(db, programs, seed=seed, max_retries=50).run()
            assert result.committed_count == 8, f"seed {seed}"
