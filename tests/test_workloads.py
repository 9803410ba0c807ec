"""Tests for workload generators and scenarios (repro.workloads)."""

import hashlib

import pytest

import repro
from repro.core.formatting import format_history
from repro.core.levels import IsolationLevel as L
from repro.engine import (
    Database,
    LockingScheduler,
    ReadCommittedMVScheduler,
    Simulator,
    SnapshotIsolationScheduler,
)
from repro.workloads import (
    WorkloadConfig,
    audit_violations,
    bank_programs,
    conserved,
    employee_programs,
    initial_balances,
    initial_employees,
    random_programs,
    synthetic_history,
)
from repro.workloads.anomalies import ALL_ANOMALIES


class TestAnomalyCorpus:
    def test_every_verdict(self, anomaly_history):
        rep = repro.check(anomaly_history.history, extensions=True)
        for level, expected in anomaly_history.provides.items():
            assert rep.ok(level) == expected, (
                f"{anomaly_history.name} at {level}"
            )

    def test_corpus_covers_all_levels_distinctly(self):
        """The corpus separates every pair of distinct levels: for any two
        levels, some anomaly is admitted by one and rejected by the other
        (so no two levels collapse)."""
        levels = list(ALL_ANOMALIES[0].provides)
        for a in levels:
            for b in levels:
                if a is b or b in {a} or a.implies(b):
                    continue
                # a does not imply b: some history provides a but not b
                separated = any(
                    entry.provides[a] and not entry.provides[b]
                    for entry in ALL_ANOMALIES
                )
                assert separated, f"no corpus entry separates {a} from {b}"


class TestRandomPrograms:
    def test_deterministic(self):
        cfg = WorkloadConfig()
        a = random_programs(cfg, seed=5)
        b = random_programs(cfg, seed=5)
        assert [p.name for p in a] == [p.name for p in b]
        assert [len(p.steps) for p in a] == [len(p.steps) for p in b]

    def test_runs_on_every_scheduler(self):
        cfg = WorkloadConfig(n_programs=4, steps_per_program=3)
        for factory in (
            lambda: LockingScheduler("serializable"),
            SnapshotIsolationScheduler,
            ReadCommittedMVScheduler,
        ):
            db = Database(factory())
            db.load(cfg.initial_state())
            res = Simulator(db, random_programs(cfg, seed=1), seed=1).run()
            assert res.committed_count > 0
            db.history()  # validates

    def test_predicate_workload_runs(self):
        cfg = WorkloadConfig(
            n_programs=4,
            steps_per_program=3,
            predicate_fraction=0.5,
            insert_fraction=0.2,
        )
        db = Database(SnapshotIsolationScheduler())
        db.load(cfg.initial_state())
        res = Simulator(db, random_programs(cfg, seed=2), seed=2).run()
        h = db.history()
        assert len(h.predicate_reads) > 0

    def test_bad_config_rejected(self):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            random_programs(WorkloadConfig(write_fraction=2.0))


def _deleted_rows(programs):
    from repro.engine.programs import Delete

    return [s.obj for p in programs for s in p.steps if isinstance(s, Delete)]


class TestDeleteFraction:
    """A deleted object is never written again: the generator hands each
    preloaded row to at most one ``Delete`` across the whole program set
    (two programs used to collide on the same row, and every history with
    a double delete failed V1 validation)."""

    #: Seeds 1, 5 and 6 of the first config used to delete a row twice; the
    #: second has more delete steps than rows on most seeds.
    CONFIGS = {
        "few_deletes": WorkloadConfig(n_programs=4, n_keys=8, delete_fraction=0.2),
        "more_deletes_than_rows": WorkloadConfig(
            n_programs=8, n_keys=6, delete_fraction=0.3,
            predicate_fraction=0.3, insert_fraction=0.1,
        ),
    }

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("name", CONFIGS)
    def test_each_row_is_deleted_at_most_once(self, name, seed):
        cfg = self.CONFIGS[name]
        rows = _deleted_rows(random_programs(cfg, seed=seed))
        assert len(rows) == len(set(rows)) <= cfg.n_keys
        assert set(rows) <= set(cfg.initial_state())

    def test_deletes_stop_when_the_rows_run_out(self):
        cfg = self.CONFIGS["more_deletes_than_rows"]
        counts = [
            len(_deleted_rows(random_programs(cfg, seed=seed))) for seed in range(8)
        ]
        assert max(counts) == cfg.n_keys and min(counts) > 0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "family", ["locking", "optimistic", "snapshot-isolation"]
    )
    @pytest.mark.parametrize("name", CONFIGS)
    def test_histories_validate_on_every_family(self, name, family, seed):
        cfg = self.CONFIGS[name]
        db = Database(family)
        db.load(cfg.initial_state())
        result = Simulator(
            db, random_programs(cfg, seed=seed), seed=seed, max_retries=100
        ).run()
        assert result.committed_count == cfg.n_programs
        history = db.history()  # validates: V1 puts a dead version last
        assert any(write.dead for write in history.writes.values())


#: ``(keyword arguments, events, sha256 of format_history)`` — generated on
#: the commit before ``synthetic_history`` stopped rescanning its active
#: list, so a change to the generator has to make the same draws.
SYNTHETIC_DIGESTS = [
    (
        dict(n_txns=100, seed=0),
        721,
        "29f4bf21b2d47188d542754a1c4dcd10668ff1e0c81e407e73964acf6a2c04c0",
    ),
    (  # the ladder's checker rungs
        dict(
            n_txns=5000,
            n_objects=500,
            ops_per_txn=5,
            stale_read_fraction=0.5,
            write_fraction=0.6,
            seed=1,
        ),
        35501,
        "db24b11e2edc638f61ad75cc0844ef0c540343774da7786d1d2a2b7bb186dfcc",
    ),
    (
        dict(
            n_txns=500,
            n_objects=50,
            ops_per_txn=5,
            stale_read_fraction=0.5,
            write_fraction=0.6,
            seed=2,
        ),
        3551,
        "963968aab0a18473c1a45c818dcc99b49eb5df9303009255270759269bee5f90",
    ),
    (
        dict(
            n_txns=300,
            n_objects=12,
            predicate_fraction=0.2,
            stale_read_fraction=0.3,
            seed=3,
        ),
        2113,
        "2204e2b3b6606fac5a1a403c8433404895befddf779de79767ec494d7c4376a9",
    ),
    (
        dict(n_txns=400, n_objects=15, abort_fraction=0.3, seed=4),
        2816,
        "10075216dcb9db2aff7fd3cf45c5f6adba111f53f3aed4de083daa92cf5af8e2",
    ),
    (
        dict(
            n_txns=300,
            n_objects=8,
            ops_per_txn=7,
            write_fraction=0.8,
            abort_fraction=0.15,
            stale_read_fraction=0.4,
            predicate_fraction=0.1,
            seed=5,
        ),
        2709,
        "64128406cb1df3e5e0c386bfef6d3c91fb981308e19f4ab47896bc67a2b22cb3",
    ),
    (
        dict(n_txns=3, n_objects=2, ops_per_txn=1, seed=6),
        12,
        "d5f626ab6f9ad876deebd6918482d9625b76f77fb6bfebcbc823e1234d665c39",
    ),
]


class TestSyntheticHistory:
    @pytest.mark.parametrize(
        "kwargs, events, digest",
        SYNTHETIC_DIGESTS,
        ids=[f"seed{kwargs['seed']}" for kwargs, _n, _d in SYNTHETIC_DIGESTS],
    )
    def test_same_draws_same_events(self, kwargs, events, digest):
        h = synthetic_history(validate=False, **kwargs)
        assert len(h.events) == events
        text = format_history(h)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_validates_by_construction(self):
        h = synthetic_history(n_txns=50, seed=3)
        assert len(h) > 50

    def test_deterministic(self):
        assert str(synthetic_history(n_txns=20, seed=9)) == str(
            synthetic_history(n_txns=20, seed=9)
        )

    def test_committed_reads_give_pl2(self):
        # No stale reads, reads of latest committed: G1 cannot occur.
        from repro.core.levels import satisfies

        h = synthetic_history(n_txns=40, seed=1, abort_fraction=0.2)
        assert satisfies(h, L.PL_2).ok

    def test_stale_reads_produce_anomalies(self):
        histories = [
            synthetic_history(
                n_txns=40, seed=s, stale_read_fraction=0.8, write_fraction=0.6
            )
            for s in range(5)
        ]
        assert any(not repro.check(h).serializable for h in histories)


class TestBankWorkload:
    def test_si_conserves_and_audits_clean(self):
        for seed in range(5):
            db = Database(SnapshotIsolationScheduler())
            db.load(initial_balances(4))
            res = Simulator(db, bank_programs(seed=seed), seed=seed).run()
            assert conserved(res.history, 4)
            assert audit_violations(res.outcomes, 4) == []

    def test_serializable_locking_conserves(self):
        for seed in range(3):
            db = Database(LockingScheduler("serializable"))
            db.load(initial_balances(4))
            res = Simulator(db, bank_programs(seed=seed), seed=seed).run()
            assert conserved(res.history, 4)
            assert audit_violations(res.outcomes, 4) == []

    def test_read_committed_mv_loses_updates(self):
        broken = 0
        for seed in range(10):
            db = Database(ReadCommittedMVScheduler())
            db.load(initial_balances(4))
            res = Simulator(db, bank_programs(seed=seed), seed=seed).run()
            broken += not conserved(res.history, 4) or bool(
                audit_violations(res.outcomes, 4)
            )
        assert broken > 0

    def test_violating_audits_mean_nonserializable_history(self):
        """Observed invariant violations imply checker-visible phenomena."""
        for seed in range(10):
            db = Database(ReadCommittedMVScheduler())
            db.load(initial_balances(4))
            res = Simulator(db, bank_programs(seed=seed), seed=seed).run()
            if audit_violations(res.outcomes, 4):
                assert not repro.check(res.history).serializable


class TestEmployeeWorkload:
    def test_serializable_audits_consistent(self):
        for seed in range(5):
            db = Database(LockingScheduler("serializable"))
            db.load(initial_employees(3))
            res = Simulator(
                db,
                employee_programs(n_hires=1, n_raises=1, n_audits=1, seed=seed),
                seed=seed,
            ).run()
            for o in res.outcomes:
                if o.committed and o.program.startswith("audit"):
                    assert o.regs["consistent"]

    def test_repeatable_read_phantoms_observed(self):
        inconsistent = 0
        for seed in range(10):
            db = Database(LockingScheduler("repeatable-read"))
            db.load(initial_employees(3))
            res = Simulator(
                db,
                employee_programs(n_hires=1, n_raises=1, n_audits=1, seed=seed),
                seed=seed,
            ).run()
            for o in res.outcomes:
                if o.committed and o.program.startswith("audit"):
                    inconsistent += not o.regs["consistent"]
        assert inconsistent > 0

    def test_phantom_history_fails_pl3_but_not_pl299(self):
        """When an audit observes an inconsistency under RR locking, the
        history exhibits the Figure 5 pattern: PL-2.99 holds, PL-3 fails."""
        found = False
        for seed in range(15):
            db = Database(LockingScheduler("repeatable-read"))
            db.load(initial_employees(3))
            res = Simulator(
                db,
                employee_programs(n_hires=1, n_raises=1, n_audits=1, seed=seed),
                seed=seed,
            ).run()
            bad_audit = any(
                o.committed and o.program.startswith("audit") and not o.regs["consistent"]
                for o in res.outcomes
            )
            if bad_audit:
                found = True
                rep = repro.check(res.history)
                assert rep.ok(L.PL_2_99)
                assert not rep.ok(L.PL_3)
        assert found
