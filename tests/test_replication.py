"""Shard replication, session guarantees and the replica-lag fault matrix.

The contracts this suite pins:

* ``replicas=0`` is a zero-cost refactor — a cluster configured without
  backups is byte-identical (history, journals, certification) to the
  pre-replication cluster path;
* a replicated run with the full replica-lag fault matrix (backup crash
  mid-catch-up, partitioned primary with stale replica reads, promote
  via ShardMap) replays byte for byte from its seeds;
* session guarantees hold when enforced — zero violation witnesses under
  ``read_your_writes``/``monotonic_reads``/``causal``, for both the
  ``redirect`` and ``wait`` lag reactions — and stale-by-choice reads
  with the knobs off are *detected*, with witnesses naming the session,
  shard, object and offsets;
* replica-served reads merge into the global history with true version
  provenance: the DSG analysis still certifies the run at its declared
  (weak) level.
"""

from dataclasses import replace

import pytest

from repro.service import (
    ClusterConfig,
    MapChange,
    NetworkConfig,
    SessionGuarantees,
    SessionVector,
    StressConfig,
    run_stress,
)

FAULTY = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)

#: Slow replication: long pump period, long seeded lag — replicas trail
#: the primary far enough that stale-by-choice reads are guaranteed.
SLOW_REPL = ClusterConfig(
    shards=2, replicas=2, replication_every=12, replication_lag=(4, 10)
)

STALE = StressConfig(
    scheduler="locking", level="PL-2", clients=4, txns_per_client=10,
    keys=4, ops_per_txn=2, seed=0, network=FAULTY, cluster=SLOW_REPL,
    read_preference="replica", read_only_fraction=0.5,
)


class TestSessionVector:
    def test_observe_monotone(self):
        v = SessionVector()
        assert v.get(0) == 0
        assert v.observe(0, 5)
        assert not v.observe(0, 3)
        assert v.get(0) == 5

    def test_merge_and_covers(self):
        a = SessionVector({0: 4})
        b = SessionVector({0: 2, 1: 7})
        a.merge(b)
        assert a.as_dict() == {0: 4, 1: 7}
        assert a.covers(0, 4) and not a.covers(1, 6)

    def test_copy_is_independent(self):
        a = SessionVector({0: 1})
        b = a.copy()
        b.observe(0, 9)
        assert a.get(0) == 1


class TestSessionGuarantees:
    def test_parse_specs(self):
        g = SessionGuarantees.parse("ryw,mr,wait")
        assert g.read_your_writes and g.monotonic_reads and not g.causal
        assert g.on_lag == "wait"
        assert SessionGuarantees.parse("none") == SessionGuarantees()
        assert SessionGuarantees.parse("causal").enforced

    def test_bad_on_lag_rejected(self):
        with pytest.raises(ValueError):
            SessionGuarantees(on_lag="panic")


class TestUnreplicatedPin:
    """replicas=0 must be byte-identical to the pre-replication cluster."""

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_replicas_identical(self, seed):
        base = StressConfig(
            clients=4, txns_per_client=10, seed=seed, network=FAULTY,
            cluster=ClusterConfig(shards=2),
        )
        plain = run_stress(base)
        zero = run_stress(
            replace(base, cluster=ClusterConfig(shards=2, replicas=0))
        )
        assert zero.history_text == plain.history_text
        assert zero.journals == plain.journals
        assert zero.certification == plain.certification

    def test_zero_replicas_records_no_ops_extras(self):
        result = run_stress(
            StressConfig(
                clients=3, txns_per_client=6, seed=1, network=FAULTY,
                cluster=ClusterConfig(shards=2),
            )
        )
        assert result.session_violations == ()
        assert "replica_serves" not in result.cluster.counters


class TestDeterminism:
    """Seeded replicated runs replay byte for byte, faults included."""

    def _pair(self, config):
        return run_stress(config), run_stress(config)

    def test_replica_reads_replay(self):
        a, b = self._pair(STALE)
        assert a.history_text == b.history_text
        assert a.journals == b.journals
        assert a.ops == b.ops
        assert a.session_violations == b.session_violations

    def test_backup_crash_mid_catchup_replays(self):
        config = replace(
            STALE,
            level=None,
            keys=8,
            cluster=ClusterConfig(
                shards=2, replicas=2,
                crash_replica_after_applies=(0, 0, 10),
                replica_restart_delay=25,
            ),
            session_guarantees=SessionGuarantees(causal=True),
        )
        a, b = self._pair(config)
        backup = a.cluster.replica_of(0, 0)
        assert backup.crashes == 1 and backup.restarts == 1
        assert a.history_text == b.history_text
        assert a.ops == b.ops
        # The crash dropped the rest of the shipped batch; the pump's
        # periodic re-ship catches the backup up from its durable offset —
        # within a few pump periods of the last commit, which need not be
        # the tick the last client finished at.
        net, log = a.cluster.network, a.cluster.shards[0].recorder.events
        deadline = net.now + 10 * config.cluster.replication_every
        while backup.applied < len(log) and net.now < deadline:
            net.drain_due() or net.advance()
        assert backup.applied == len(log)

    def test_partitioned_primary_stale_reads_replay(self):
        config = replace(
            STALE,
            cluster=replace(
                SLOW_REPL,
                partition_primary_after_commits=(1, 5), heal_after=60,
            ),
        )
        a, b = self._pair(config)
        assert a.cluster.network.counters["lost_partition"] >= 1
        assert a.history_text == b.history_text
        assert a.session_violations == b.session_violations
        assert len(a.session_violations) >= 1

    def test_promote_backup_replays(self):
        config = StressConfig(
            clients=4, txns_per_client=10, keys=8, seed=0, network=FAULTY,
            cluster=ClusterConfig(
                shards=2, replicas=2,
                map_changes=(
                    MapChange(kind="promote", after_commits=8, shard=0,
                              replica=1),
                ),
            ),
        )
        a, b = self._pair(config)
        assert a.cluster.shards[0].name == "shard0.r2"
        assert a.cluster.replica_of(0, 1) is None
        assert a.history_text == b.history_text
        assert a.journals == b.journals
        assert a.all_certified


class TestSessionGuaranteeEnforcement:
    """Knobs on: zero violations.  Knobs off: witnessed violations."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("on_lag", ("redirect", "wait"))
    def test_enforced_runs_are_violation_free(self, on_lag, seed):
        # Declared at STALE's PL-2, the level unlocked replica reads can
        # provide: session guarantees order a session's own reads, they do
        # not make a lagging snapshot serializable (PL-3 holds on some
        # seeds only).
        config = replace(
            STALE,
            seed=seed,
            session_guarantees=SessionGuarantees(
                read_your_writes=True, monotonic_reads=True, causal=True,
                on_lag=on_lag,
            ),
        )
        result = run_stress(config)
        assert result.session_violations == ()
        assert result.all_certified

    def test_stale_by_choice_is_witnessed(self):
        result = run_stress(STALE)
        violations = result.session_violations
        assert len(violations) >= 1
        kinds = {v["kind"] for v in violations}
        assert kinds <= {"read-your-writes", "monotonic-reads", "causal"}
        for v in violations:
            assert v["required"] > v["got"]
            assert v["obj"].startswith("k")
            assert v["session"].startswith("c")
            assert v["shard"] in (0, 1)

    def test_wait_mode_retries_same_replica(self):
        config = replace(
            STALE,
            level=None,
            cluster=replace(SLOW_REPL, replication_every=6),
            session_guarantees=SessionGuarantees(causal=True, on_lag="wait"),
        )
        result = run_stress(config)
        counters = result.cluster.counters
        assert counters["replica_lagging"] >= 1
        assert result.session_violations == ()

    def test_stale_run_still_certifies_declared_level(self):
        """Replica reads merge with true provenance: the DSG analysis
        certifies the weak run at its declared PL-2 even though the
        client saw stale values."""
        result = run_stress(STALE)
        assert result.all_certified
        assert result.cluster.counters["replica_serves"] >= 1


class TestReplicaCounters:
    def test_counters_aggregate_replicas(self):
        result = run_stress(STALE)
        counters = result.cluster.counters
        assert counters["replica_applied"] >= 1
        assert counters["replica_serves"] >= 1
        summary = result.summary()
        assert "certification" in summary
