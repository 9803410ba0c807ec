"""Structural guards for the event-driven simulator loop.

Counts, not timings: every number here is exact per seed, so nothing can
flake.  ``test_simulator_golden`` pins *what* a run produces; this module
pins *how little work* the scheduling loop and the deadlock search do to
produce it, that the incremental search agrees with the exhaustive one at
every blocked step, and that every blocked retry the loop skips would have
blocked again on the same holders.
"""

from __future__ import annotations

import collections

import pytest

from repro.core.events import Event
from repro.core.interning import EventLog, Interner
from repro.core.objects import Version, relation_of
from repro.engine import Database, Insert, LockingScheduler, Simulator, Write
from repro.engine import simulator as sim_mod
from repro.engine import waits as waits_mod
from repro.engine.locks import LockManager
from repro.engine.transaction import TxnState
from repro.engine.waits import find_cycle
from repro.exceptions import WouldBlock
from repro.workloads import WorkloadConfig, random_programs

CONTENDED = WorkloadConfig(
    n_programs=8, steps_per_program=4, n_keys=6, hot_keys=2,
    hot_fraction=0.6, write_fraction=0.5,
)
#: Predicate reads and updates: waiters with several holders at once.
PREDICATES = WorkloadConfig(
    n_programs=8, steps_per_program=4, n_keys=6, hot_keys=2,
    hot_fraction=0.5, write_fraction=0.5, predicate_fraction=0.3,
    insert_fraction=0.15,
)
#: One wave of the ladder's ``engine_direct`` rung.
FLEET = WorkloadConfig(
    n_programs=32, steps_per_program=4, n_keys=64, hot_keys=8,
    hot_fraction=0.2, write_fraction=0.5,
)

CASES = {
    "serializable": ("serializable", CONTENDED, {}),
    "read-committed": ("read-committed", CONTENDED, {}),
    "predicates": ("serializable", PREDICATES, {}),
    "fleet": ("serializable", FLEET, dict(max_retries=1000)),
    # Programs drop out of the graph for good after their first abort.
    "give_up": ("serializable", CONTENDED, dict(max_retries=0)),
}
SEEDS = range(12)
#: Every deadlock case, and a fleet under wound-wait, where a waiter can be
#: wounded while it waits.
RETRY_CASES = dict(
    CASES, wound_wait=("serializable", FLEET, dict(max_retries=1000))
)


def _run(case: str, seed: int):
    profile, cfg, sim = RETRY_CASES[case]
    deadlock = "wound-wait" if case == "wound_wait" else "detect"
    db = Database(LockingScheduler(profile, deadlock=deadlock))
    db.load(cfg.initial_state())
    return Simulator(db, random_programs(cfg, seed=seed), seed=seed, **sim).run()


def _checked_searches(monkeypatch, log):
    """Run every blocked step's search next to the exhaustive one it may
    skip: rebuild the whole graph the way the loop used to — every program,
    in index order, from nothing the incremental search maintains — then
    require the same verdict and the same victim."""
    runs = []
    simulate = sim_mod.Simulator.run
    start = sim_mod.Simulator._start
    resolve = sim_mod.Simulator._resolve_deadlock

    def fresh_run(sim):
        runs.clear()
        return simulate(sim)

    def collecting_start(sim, run):
        if run not in runs:
            runs.append(run)
        start(sim, run)

    def checked(sim, blocked, waited_on):
        active = [r for r in runs if r.txn.state is TxnState.ACTIVE]
        by_tid = {r.txn.tid: r for r in active}
        waits = {r.txn.tid: r.waiting_on for r in active if r.waiting_on}
        cycle = find_cycle(waits)
        victim = doomed = None
        if cycle:
            victim = max((by_tid[t] for t in cycle), key=lambda r: r.outcome.tids[0])
            doomed = victim.txn
        aborts = {r.index: r.outcome.aborts for r in runs}
        full_calls, deadlocks = log["full"], sim.deadlocks
        resolve(sim, blocked, waited_on)
        log["searches"] += 1
        log["skipped"] += log["full"] == full_calls
        log["cycles"] += cycle is not None
        for r in runs:
            assert r.outcome.aborts == aborts[r.index] + (r is victim)
        assert sim.deadlocks == deadlocks + (cycle is not None)
        if doomed is not None:
            assert doomed.state is TxnState.ABORTED

    def counting_find_cycle(waits):
        log["full"] += 1
        return find_cycle(waits)

    monkeypatch.setattr(sim_mod.Simulator, "run", fresh_run)
    monkeypatch.setattr(sim_mod.Simulator, "_start", collecting_start)
    monkeypatch.setattr(sim_mod.Simulator, "_resolve_deadlock", checked)
    monkeypatch.setattr(waits_mod, "find_cycle", counting_find_cycle)
    return runs


class TestIncrementalDeadlockSearch:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("case", CASES)
    def test_shortcut_agrees_with_the_full_search(self, monkeypatch, case, seed):
        log = collections.Counter()
        runs = _checked_searches(monkeypatch, log)
        result = _run(case, seed)
        assert len(runs) == len(result.outcomes)
        assert log["cycles"] == result.deadlocks
        # One full search names each victim; at most one more per victim
        # finds the graph acyclic again and raises the flag.
        assert log["full"] <= 2 * result.deadlocks

    def test_the_cases_are_contended(self, monkeypatch):
        log = collections.Counter()
        _checked_searches(monkeypatch, log)
        deadlocks = 0
        for case in CASES:
            for seed in SEEDS:
                deadlocks += _run(case, seed).deadlocks
        assert log["searches"] > 5000 and deadlocks > 200
        # Nearly every blocked step is answered without a rebuild.
        assert log["skipped"] >= 0.9 * log["searches"]


class TestNoPerRoundPass:
    @pytest.mark.parametrize("cfg", [CONTENDED, FLEET], ids=["8", "32"])
    def test_run_state_reads_per_step_do_not_grow_with_the_fleet(
        self, monkeypatch, cfg
    ):
        reads = collections.Counter()

        def counting(run, name):
            reads[name] += 1
            return object.__getattribute__(run, name)

        monkeypatch.setattr(
            sim_mod._Run, "__getattribute__", counting, raising=False
        )
        steps = deadlocks = 0
        for seed in range(5):
            db = Database(LockingScheduler("serializable"))
            db.load(cfg.initial_state())
            result = Simulator(
                db, random_programs(cfg, seed=seed), seed=seed, max_retries=1000
            ).run()
            assert result.committed_count == cfg.n_programs
            steps += result.steps_executed
            deadlocks += result.deadlocks
        assert deadlocks > 0
        # ~9.5 attribute reads of program state per scheduling round, 8 or
        # 32 programs alike: the stepped program's own, a short walk on a
        # blocked step, a rebuild per victim.  The loop this replaced
        # re-derived the candidates and scanned for all-blocked every round
        # and rebuilt the graph on every blocked step: 65 reads per round
        # with 8 programs, 257 with 32.
        assert sum(reads.values()) <= 16 * steps


def _lock_tables(locks: LockManager):
    """Everything the lock manager holds, in iteration order (the order a
    request's blockers are collected in)."""
    return (
        [(obj, list(h.items())) for obj, h in locks._items.items()],
        [(rel, list(h)) for rel, h in locks._relations.items()],
        [(rel, list(objs)) for rel, objs in locks._write_locked.items()],
        [(tid, list(objs)) for tid, objs in locks._held.items()],
        dict(locks._item_gen),
        dict(locks._predicate_gen),
        dict(locks._write_gen),
        {t: [(k, g) for _s, k, g in r] for t, r in locks._refusals.items()},
    )


def _checked_retries(monkeypatch, log):
    """Beside every blocked retry the loop skips, run the real step and
    require what the skip stands for: ``WouldBlock`` on the holders the
    program already waits on, no recorded event, no register and no lock
    table changed.  A spy on the head step's ``run`` tells a skipped retry
    from a real one whatever decided it."""
    step = sim_mod.Simulator._step
    stands = LockManager._refusal_stands
    turn = {}

    def checked_stands(locks, tid):
        answer = stands(locks, tid)
        if answer and turn:
            run, real = turn["run"], turn["real"]
            assert run.txn.tid == tid
            recorder = turn["sim"].db.scheduler.recorder
            before = (_lock_tables(locks), len(recorder.events), dict(run.regs))
            try:
                real(run.queue[0], run.txn, run.regs)
            except WouldBlock as block:
                assert block.holders == run.waiting_on
            else:
                pytest.fail("a standing refusal was granted")
            assert (_lock_tables(locks), len(recorder.events), run.regs) == before
            turn["checked"] = True
        return answer

    def checked_step(sim, run):
        if run.waiting_on is None:
            return step(sim, run)
        head = run.queue[0]
        cls = type(head)
        real = cls.__dict__["run"]
        ran = []

        def spy(self, txn, regs):
            ran.append(self)
            return real(self, txn, regs)

        wounded = run.txn.state is TxnState.ABORTED
        attempts = len(run.outcome.tids)
        turn.update(sim=sim, run=run, real=real, checked=False)
        setattr(cls, "run", spy)
        try:
            step(sim, run)
        finally:
            setattr(cls, "run", real)
            checked = turn.pop("checked")
            turn.clear()
        log["retries"] += 1
        if not ran:
            log["skipped"] += 1
            assert checked, "a retry was skipped without a standing refusal"
        if isinstance(head, Insert) or (
            isinstance(head, Write) and callable(head.value)
        ):
            # Both run something before the lock request: an object id
            # drawn from the database, user code.
            log["must_run"] += 1
            assert ran
        if wounded:
            # Wounded while it waited: the next turn raises and restarts it.
            log["wounded"] += 1
            assert ran and run.waiting_on is None
            assert len(run.outcome.tids) == attempts + 1

    monkeypatch.setattr(sim_mod.Simulator, "_step", checked_step)
    monkeypatch.setattr(LockManager, "_refusal_stands", checked_stands)


class TestSkippedRetries:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("case", RETRY_CASES)
    def test_a_skipped_retry_would_block_again(self, monkeypatch, case, seed):
        log = collections.Counter()
        _checked_retries(monkeypatch, log)
        _run(case, seed)
        assert log["retries"] > 0

    def test_the_retry_cases_reach_every_branch(self, monkeypatch):
        log = collections.Counter()
        _checked_retries(monkeypatch, log)
        for case in RETRY_CASES:
            for seed in SEEDS:
                _run(case, seed)
        assert log["retries"] > 20000
        # Most retries are skipped; Insert, user-code writes and wounded
        # waiters each occur, and each runs in full.
        assert log["skipped"] >= 0.75 * log["retries"]
        assert log["must_run"] > 500 and log["wounded"] > 30

    def test_fleet_waiters_ask_again_only_after_a_change(self, monkeypatch):
        """A waiter calls ``acquire_item`` again only once a holder of the
        object it waits for came or went (or the everyone-blocked branch
        dropped its wait): never to hear the same refusal."""
        acquire, release = LockManager.acquire_item, LockManager.release_item
        step = sim_mod.Simulator._step
        changes = collections.Counter()  # obj -> holder changes so far
        refused = {}  # tid -> what its last refusal was decided on
        counts = collections.Counter()
        turn = {}

        def decided_on(locks, obj, mode):
            return obj, mode, changes[obj], list(
                locks._relations.get(relation_of(obj), ())
            )

        def watched_acquire(locks, tid, obj, mode):
            state = decided_on(locks, obj, mode)
            holders = locks.holders_of(obj)
            counts["calls"] += 1
            if turn.get("waits") and refused.get(tid) == state:
                counts["repeats"] += 1
            try:
                acquire(locks, tid, obj, mode)
            except WouldBlock:
                refused[tid] = state
                counts["refusals"] += 1
                raise
            changes[obj] += locks.holders_of(obj) != holders

        def watched_release(locks, tid, obj):
            changes[obj] += tid in locks.holders_of(obj)
            release(locks, tid, obj)

        def watched_step(sim, run):
            turn["waits"] = run.waiting_on is not None
            step(sim, run)

        monkeypatch.setattr(LockManager, "acquire_item", watched_acquire)
        monkeypatch.setattr(LockManager, "release_item", watched_release)
        monkeypatch.setattr(sim_mod.Simulator, "_step", watched_step)
        for seed in SEEDS:
            result = _run("fleet", seed)
            assert result.committed_count == FLEET.n_programs
        assert counts["refusals"] > 1000
        assert counts["repeats"] == 0


class TestHistoryFromRows:
    """The recorder writes the event log the history adopts: a run with no
    monitor builds no event object, and ``recorder.history()`` neither
    interns a version again nor hashes one."""

    FAMILIES = ("locking", "optimistic", "snapshot-isolation")

    def _fleet(self, family: str, seed: int):
        db = Database(family)
        db.load(FLEET.initial_state())
        return db, Simulator(
            db, random_programs(FLEET, seed=seed), seed=seed, max_retries=1000
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_run_without_a_monitor_builds_no_event(self, family, monkeypatch):
        built = collections.Counter()
        post_init = Event.__post_init__

        def counted(event):
            built[type(event).__name__] += 1
            post_init(event)

        monkeypatch.setattr(Event, "__post_init__", counted)
        for seed in range(3):
            _db, sim = self._fleet(family, seed)
            result = sim.run()
            assert result.committed_count == FLEET.n_programs
            assert not built
        assert len(result.history.events) == len(result.history)
        assert built["Commit"] == result.committed_count + 1  # + the loader

    @pytest.mark.parametrize("family", FAMILIES)
    def test_history_hashes_no_version_and_interns_nothing(self, family, monkeypatch):
        db, sim = self._fleet(family, 1)
        sim.run()
        recorder = db.scheduler.recorder
        counts = collections.Counter()
        hash_of, intern = Version.__hash__, Interner.intern_version
        log_init = EventLog.__init__

        def counted_hash(version):
            counts["hash"] += 1
            return hash_of(version)

        def counted_intern(interner, version):
            counts["intern"] += 1
            return intern(interner, version)

        def counted_log(log, *args):
            counts["log"] += 1
            log_init(log, *args)

        monkeypatch.setattr(Version, "__hash__", counted_hash)
        monkeypatch.setattr(Interner, "intern_version", counted_intern)
        monkeypatch.setattr(EventLog, "__init__", counted_log)
        history = recorder.history()
        assert counts == {}
        assert len(history) == len(recorder) > 300
        assert history.committed and not history.setup_versions
