"""Structural guards for the event-driven simulator loop.

Counts, not timings: every number here is exact per seed, so nothing can
flake.  ``test_simulator_golden`` pins *what* a run produces; this module
pins *how little work* the scheduling loop and the deadlock search do to
produce it, and that the incremental search agrees with the exhaustive one
at every blocked step.
"""

from __future__ import annotations

import collections

import pytest

from repro.engine import Database, LockingScheduler, Simulator
from repro.engine import simulator as sim_mod
from repro.engine.simulator import _find_cycle
from repro.engine.transaction import TxnState
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


def _run(case: str, seed: int):
    profile, cfg, sim = CASES[case]
    db = Database(LockingScheduler(profile))
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
        cycle = _find_cycle(waits)
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
        return _find_cycle(waits)

    monkeypatch.setattr(sim_mod.Simulator, "run", fresh_run)
    monkeypatch.setattr(sim_mod.Simulator, "_start", collecting_start)
    monkeypatch.setattr(sim_mod.Simulator, "_resolve_deadlock", checked)
    monkeypatch.setattr(sim_mod, "_find_cycle", counting_find_cycle)
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
