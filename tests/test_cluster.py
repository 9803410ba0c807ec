"""Acceptance tests for the sharded cluster: cross-shard two-phase
commit, global certification over the merged history, the deterministic
fault matrix (shard crash between prepare and commit, coordinator
partitioned mid-prepare), and mid-run shard-map reconfiguration."""

import pytest

from repro.checker import check
from repro.core.levels import IsolationLevel
from repro.core.parser import parse_history
from repro.observability import MetricsRegistry, Tracer
from repro.service import (
    AdmissionConfig,
    ClusterConfig,
    MapChange,
    NetworkConfig,
    SchedulerConfig,
    ServiceAborted,
    ShardMap,
    StressConfig,
    connect_cluster,
    run_stress,
)

from .test_service import deliver

FAULTY = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)


def cluster_config(**kw):
    return StressConfig(
        scheduler="locking",
        clients=4,
        txns_per_client=12,
        keys=8,
        ops_per_txn=2,
        seed=kw.pop("seed", 7),
        network=FAULTY,
        cluster=ClusterConfig(**kw),
    )


class TestCrossShardCommit:
    """Transactions span shards and still commit atomically, with the
    merged history certified at the scheduler's declared level."""

    @pytest.fixture(scope="class")
    def runs(self):
        cfg = cluster_config(shards=3)
        return run_stress(cfg), run_stress(cfg)

    def test_completes_and_certifies(self, runs):
        result, _ = runs
        assert result.committed == 48
        assert result.all_certified

    def test_crossed_shards_through_2pc(self, runs):
        result, _ = runs
        coord = result.cluster.coordinator
        assert coord.decisions["commit"] > 0
        assert coord.pending == 0

    def test_merged_history_validates_and_checks(self, runs):
        result, _ = runs
        history = parse_history(result.history_text, auto_complete=True)
        report = check(history)
        assert report.strongest_level is IsolationLevel.PL_3

    def test_byte_identical_replay(self, runs):
        a, b = runs
        assert a.history_text == b.history_text
        assert a.journals == b.journals
        assert a.certification == b.certification

    def test_every_shard_recorded_events(self, runs):
        result, _ = runs
        assert all(
            len(shard.recorder.events) > 0
            for shard in result.cluster.shards
        )


class TestFaultMatrix:
    """The ISSUE's two cross-shard fault cases, each pinned byte-for-byte
    under equal seeds."""

    @pytest.fixture(scope="class")
    def crashed(self):
        cfg = cluster_config(shards=2, crash_shard_after_prepares=(1, 1))
        return run_stress(cfg), run_stress(cfg)

    @pytest.fixture(scope="class")
    def partitioned(self):
        cfg = cluster_config(
            shards=2, partition_coordinator_after_prepares=3, heal_after=40
        )
        return run_stress(cfg), run_stress(cfg)

    def test_shard_crash_between_prepare_and_commit(self, crashed):
        result, _ = crashed
        cluster = result.cluster
        assert cluster.crashes >= 1 and cluster.restarts >= 1
        assert result.all_certified
        # Nothing stayed in doubt: every prepared record was decided.
        assert all(not slot.prepared for slot in cluster.shard_slots)
        parse_history(result.history_text, auto_complete=True)

    def test_crash_replays_byte_for_byte(self, crashed):
        a, b = crashed
        assert a.history_text == b.history_text
        assert a.journals == b.journals

    def test_coordinator_partitioned_mid_prepare(self, partitioned):
        result, _ = partitioned
        coord = result.cluster.coordinator
        assert coord.retransmits > 0
        assert coord.pending == 0
        assert result.all_certified

    def test_partition_replays_byte_for_byte(self, partitioned):
        a, b = partitioned
        assert a.history_text == b.history_text
        assert a.journals == b.journals

    def test_fault_seeds_sweep_atomically(self):
        # 2PC atomicity under the crash fault across several seeds: the
        # merged history never shows a transaction committed on one shard
        # and aborted on another (Cluster.history raises if it does).
        for seed in range(4):
            cfg = cluster_config(
                shards=2, seed=seed, crash_shard_after_prepares=(0, 2)
            )
            result = run_stress(cfg)
            assert result.all_certified


class TestReconfiguration:
    """Mid-run shard-map changes: slot migration and endpoint replacement,
    with clients re-consulting the map on retry (the regression fix)."""

    @pytest.fixture(scope="class")
    def migrated(self):
        cfg = cluster_config(
            shards=2,
            map_changes=(
                MapChange(after_commits=8, kind="migrate", slot=0, to_shard=1),
                MapChange(after_commits=16, kind="migrate", slot=1, to_shard=0),
            ),
        )
        return run_stress(cfg), run_stress(cfg)

    @pytest.fixture(scope="class")
    def replaced(self):
        cfg = cluster_config(
            shards=2,
            map_changes=(
                MapChange(after_commits=10, kind="replace", shard=0),
            ),
        )
        return run_stress(cfg), run_stress(cfg)

    def test_migration_bumps_map_and_stays_certified(self, migrated):
        result, _ = migrated
        cluster = result.cluster
        assert cluster.shard_map.version == 3
        assert [
            desc.split()[0] for _v, desc in cluster.shard_map.changes
        ] == ["migrate", "migrate"]
        assert result.all_certified
        parse_history(result.history_text, auto_complete=True)

    def test_migration_replays_byte_for_byte(self, migrated):
        a, b = migrated
        assert a.history_text == b.history_text
        assert a.journals == b.journals

    def test_replacement_retires_old_endpoint(self, replaced):
        result, _ = replaced
        cluster = result.cluster
        assert cluster._replacements == 1
        assert any(s.name.endswith("r1") for s in cluster.shards)
        assert result.all_certified

    def test_retry_across_replacement_rebinds_endpoint(self, replaced):
        # The regression: a commit retry that raced the map change must
        # re-consult the map instead of chasing the retired endpoint.
        # The retired name is down on the network, so without re-routing
        # the run would hang on endless timeouts; reaching full commit
        # count with the retired endpoint gone proves every in-flight
        # retry rebound.
        result, _ = replaced
        retired = [
            s for slot in result.cluster.shard_slots
            for s in slot.incarnations[:-1]
        ]
        assert len(retired) == 1
        live = {s.name for s in result.cluster.shards}
        assert retired[0].name not in live
        assert result.committed == 48

    def test_replacement_replays_byte_for_byte(self, replaced):
        a, b = replaced
        assert a.history_text == b.history_text
        assert a.journals == b.journals


class TestBatchedVerdictsOutliveTheEndpoint:
    """With ``certify_every > 1`` a shard holds a backlog of commits
    awaiting their verdict.  The backlog is the slot's, not the
    incarnation's: a `replace`/`promote` map change hands it to the next
    endpoint, so every commit still gets its live verdict (once 1-6 of
    60 were dropped with the retired endpoint)."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shard", [0, 1])
    @pytest.mark.parametrize("kind", ["replace", "promote"])
    def test_every_commit_gets_a_live_verdict(self, kind, shard, seed):
        extra = {"replica": 0} if kind == "promote" else {}
        tracer, metrics = Tracer(), MetricsRegistry()
        result = run_stress(
            StressConfig(
                seed=seed, clients=6, txns_per_client=10, keys=8, ops_per_txn=1,
                admission=AdmissionConfig(certify_every=7),
                cluster=ClusterConfig(
                    shards=2,
                    replicas=1 if kind == "promote" else 0,
                    map_changes=(
                        MapChange(
                            kind=kind, after_commits=10, shard=shard, **extra
                        ),
                    ),
                ),
            ),
            tracer=tracer,
            metrics=metrics,
        )
        cluster = result.cluster
        assert cluster.shard_map.version == 2 and result.committed == 60
        verdicts = [
            r["attrs"]["tid"] for r in tracer.records
            if r["name"] == "commit.certified"
        ]
        assert sorted(verdicts) == sorted(result.certification)
        counted = metrics.snapshot()["service_commits_certified_total"]
        assert sum(row["value"] for row in counted["series"]) == 60
        # Single-shard verdicts live in the slot, across incarnations.
        kept = set().union(*(slot.certified for slot in cluster.shard_slots))
        assert kept <= set(verdicts)
        assert cluster.certification_lag == 0


class TestParkedAcrossShards:
    """A transaction ended from another shard's delivery — a cross-shard
    deadlock victim — and a 2PC decide are wake-ups like any other.  (The
    replication-free clusters here arm no timers, so ``deliver`` ends.)"""

    def two_shards(self):
        cluster = connect_cluster(
            cluster=ClusterConfig(shards=2),
            initial={f"k{i}": 0 for i in range(8)},
        )
        keys = [
            next(k for k in (f"k{i}" for i in range(8))
                 if cluster.owner_index(k) == shard)
            for shard in (0, 1)
        ]
        return cluster, keys

    def test_cross_shard_victim_wakes_the_remote_park(self):
        cluster, (k0, k1) = self.two_shards()
        net, (shard0, shard1) = cluster.network, cluster.shards
        a, v, w = (cluster.client(n) for n in ("a", "v", "w"))
        # a's session is the oldest, v's younger.
        ta, tv, tw = (client.begin() for client in (a, v, w))
        a.write(k1, 1)
        v.write(k0, 2)
        pw = w.submit("write", obj=k0, value=3)
        pa = a.submit("write", obj=k0, value=4)
        assert deliver(net, pw, pa) == [False, False]
        assert shard0.parked() == {"w": [tv], "a": [tv]}
        handled = shard0.counters["requests"]
        # v asks shard 1 for a's key and closes the cycle there; v is the
        # victim and dies on both shards in that one delivery at shard 1 —
        # which must also run what waited on it at shard 0.
        pv = v.submit("write", obj=k1, value=5)
        while not shard1.parked() and shard1.deadlock_victims == 0:
            assert net.step()
        at = net.now
        assert shard1.deadlock_victims == 1 and shard1.parked() == {}
        assert shard0.parked() == {"a": [tw]}  # w took the lock, a re-parked
        assert shard0.counters["requests"] == handled  # nothing was delivered there
        for slot in cluster.shard_slots:
            events = slot.primary.recorder.events
            assert len(slot.event_ticks) == len(events)
        # v's abort and w's write at shard 0 carry the tick of the delivery
        # at shard 1 that caused them.
        assert shard0.event_ticks[-2:] == [at, at]
        assert deliver(net, pv, pw, pa) == [True, True, False]
        with pytest.raises(ServiceAborted, match="deadlock"):
            pv.result()
        assert pw.result()["ok"] and pw.attempts == 1
        w._finish(pw)
        w.commit()
        assert deliver(net, pa) == [True]
        a._finish(pa)
        a.commit()  # cross-shard: through the coordinator
        history = cluster.history(validate=True)
        assert {ta, tw} <= history.committed and tv in history.aborted

    def test_in_doubt_fence_parks_until_the_retransmitted_decide(self):
        cluster, (k0, k1) = self.two_shards()
        net, shard1 = cluster.network, cluster.shards[1]
        t, r = cluster.client("t"), cluster.client("r")
        gid = t.begin()
        t.write(k0, 7)
        t.write(k1, 8)
        commit = t.submit("commit")
        while shard1.prepare_count == 0:
            assert net.step()
        # Prepared, then the engine state dies: k1 is in doubt until the
        # coordinator's retransmitted decide reaches the restarted shard.
        shard1.crash()
        shard1.restart()
        r.begin()
        read = r.submit("read", obj=k1)
        while not shard1.parked():
            assert net.step()
            read.poll()
        assert shard1.parked() == {"r": [gid]}
        assert net.run_until(lambda: commit.poll() and read.poll())
        assert commit.result()["ok"]
        assert r._finish(read)["value"] == 8 and read.attempts == 1
        assert shard1.parked() == {} and not cluster.shard_slots[1].prepared
        assert shard1.counters["busy"] == 1
        assert cluster.coordinator.retransmits >= 1
        r.commit()
        cluster.history(validate=True)


class TestFacade:
    """`connect_cluster` as an interactive surface."""

    def test_cross_shard_transaction_roundtrip(self):
        cluster = connect_cluster(
            cluster=ClusterConfig(shards=2),
            network=NetworkConfig(drop=0.0, duplicate=0.0),
            initial={"a": 1, "b": 2, "k3": 3},
        )
        client = cluster.client("c0")
        client.begin()
        total = sum(client.read(k, for_update=True) for k in ("a", "b", "k3"))
        client.write("a", total)
        client.commit()
        history = cluster.history()
        assert len(history.committed - {0}) == 1
        assert cluster.commit_count == 1

    def test_cluster_rejects_optimistic_cross_shard(self):
        with pytest.raises(ValueError, match="locking"):
            connect_cluster(
                "optimistic", cluster=ClusterConfig(shards=2)
            )

    def test_single_shard_optimistic_is_fine(self):
        cluster = connect_cluster(
            "optimistic", cluster=ClusterConfig(shards=1)
        )
        assert len(cluster.shards) == 1

    def test_cluster_rejects_wound_wait_cross_shard(self):
        # A wound aborts its victim on whatever shard it holds the lock,
        # prepared participants included: 2PC atomicity breaks ("T<n> both
        # committed and aborted across shards").  Fail closed instead.
        wound_wait = SchedulerConfig(scheduler="locking", deadlock="wound-wait")
        with pytest.raises(ValueError, match="wound-wait"):
            connect_cluster(wound_wait, cluster=ClusterConfig(shards=2))
        with pytest.raises(ValueError, match="prepared"):
            run_stress(StressConfig(
                scheduler=wound_wait, cluster=ClusterConfig(shards=2)
            ))

    def test_single_shard_wound_wait_still_runs(self):
        result = run_stress(StressConfig(
            scheduler=SchedulerConfig(scheduler="locking", deadlock="wound-wait"),
            clients=6, txns_per_client=15, keys=8, ops_per_txn=3,
            cluster=ClusterConfig(shards=1),
        ))
        assert result.committed == 90 and result.all_certified

    def test_shard_map_routing_is_stable(self):
        m = ShardMap(("shard0", "shard1"), slots=16)
        owners = {k: m.owner(k) for k in ("a", "b", "x", "emp")}
        assert owners == {k: m.owner(k) for k in ("a", "b", "x", "emp")}
        assert set(owners.values()) <= {"shard0", "shard1"}


class TestClusterConfigValidation:
    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            ClusterConfig(shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(shards=4, slots=2)
        with pytest.raises(ValueError):
            ClusterConfig(shards=2, crash_shard_after_prepares=(5, 1))
        with pytest.raises(ValueError):
            ClusterConfig(shards=2, partition_coordinator_after_prepares=0)

    def test_bad_map_changes_raise_at_construction(self):
        with pytest.raises(TypeError, match="MapChange"):
            ClusterConfig(shards=2, map_changes=2)
        with pytest.raises(TypeError, match="MapChange"):
            ClusterConfig(shards=2, map_changes=("migrate",))
        with pytest.raises(ValueError, match="out of range"):
            ClusterConfig(
                shards=2,
                slots=4,
                map_changes=(
                    MapChange(after_commits=1, kind="migrate", slot=9, to_shard=1),
                ),
            )
        with pytest.raises(ValueError, match="out of range"):
            ClusterConfig(
                shards=2,
                map_changes=(MapChange(after_commits=1, kind="replace", shard=5),),
            )
        # Lists are accepted and normalized to a tuple.
        cfg = ClusterConfig(
            shards=2,
            map_changes=[MapChange(after_commits=1, kind="replace", shard=0)],
        )
        assert isinstance(cfg.map_changes, tuple)

    def test_frozen(self):
        cfg = ClusterConfig(shards=2)
        with pytest.raises(AttributeError):
            cfg.shards = 3
