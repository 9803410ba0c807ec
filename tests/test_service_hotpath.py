"""Structural guards for the event-driven service hot path.

Counts, not timings: every number here is exact per seed, so nothing can
flake.  ``test_stress_golden`` pins *what* a run produces; this module pins
*how little work* the driver, the deadlock search and the dedup cache do to
produce it, and that their shortcuts agree with the exhaustive versions.
"""

from __future__ import annotations

import random

import pytest

from repro.core.formatting import format_history
from repro.core.incremental import IncrementalAnalysis
from repro.engine.factory import SchedulerConfig
from repro.engine.simulator import _find_cycle
from repro.service import (
    ClusterConfig,
    NetworkConfig,
    RetryPolicy,
    StressConfig,
    client as client_mod,
    cluster as cluster_mod,
    network as network_mod,
    replication as replication_mod,
    run_stress,
    server as server_mod,
    stress as stress_mod,
)

from . import test_stress_golden as stress_golden

CONTENDED = dict(
    scheduler="locking", clients=8, txns_per_client=10, keys=8, ops_per_txn=3,
    network=NetworkConfig(min_delay=1, max_delay=3),
)


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestWakeList:
    """The driver polls a pending only with mail or a due wake, and runs
    the fault schedule once per clock change."""

    def test_polls_per_submit_are_bounded(self, monkeypatch):
        counts = {}
        _count_calls(monkeypatch, client_mod.PendingCall, "poll", counts)
        _count_calls(monkeypatch, client_mod.Client, "submit", counts)
        result = run_stress(StressConfig(seed=3, **CONTENDED))
        assert result.committed == 80
        # Two polls per operation: the driver's on the final reply and
        # co_call's own at resume (none at submit: no reply can be in before
        # the next delivery sweep).  The rest is one per busy notice, timeout
        # or due backoff.  The poll-everything loop this replaced sat at ~24
        # per submit.
        assert counts["poll"] <= 3 * counts["submit"]

    def test_a_stale_reply_is_discarded_before_the_matching_one(self):
        # co_call does not poll at submit, so network duplicates of the
        # previous reply can still sit in the inbox when the next operation
        # starts: the first poll with mail must drop them and take its own.
        net = network_mod.SimulatedNetwork(
            NetworkConfig(duplicate=1.0, min_delay=1, max_delay=1)
        )
        server_mod.Server(net, "locking", initial={"x": 0})
        client = client_mod.Client(net)
        inbox_rids = lambda: [payload["rid"] for _src, payload in client._inbox]
        client.ping()
        while net.drain_due():
            pass
        stale = inbox_rids()
        assert stale and set(stale) == {1}
        script = client.co_call("ping")
        pending = next(script)
        assert pending.rid == 2 and inbox_rids() == stale
        while 2 not in inbox_rids():
            assert net.drain_due()
        assert inbox_rids()[: len(stale)] == stale  # still ahead of it
        assert pending.poll() is True
        assert pending.reply["rid"] == 2
        assert all(payload["rid"] == 2 for _src, payload in client._inbox)
        with pytest.raises(StopIteration) as done:
            next(script)
        assert done.value.value is pending.reply
        assert client.journal[-1].endswith("ping() -> ok [attempts=1]")

    def test_fault_schedule_runs_once_per_clock_change(self, monkeypatch):
        counts = {}
        _count_calls(monkeypatch, cluster_mod.Cluster, "tick", counts)
        _count_calls(monkeypatch, network_mod.SimulatedNetwork, "drain_due", counts)
        _count_calls(monkeypatch, network_mod.SimulatedNetwork, "advance", counts)
        result = run_stress(StressConfig(
            seed=3, cluster=ClusterConfig(shards=2, replicas=1), **CONTENDED
        ))
        assert result.committed == 80
        assert counts["tick"] <= (
            counts["drain_due"] + counts.get("advance", 0) + 1
        )

    def test_zero_delay_restart_lands_before_the_next_delivery(self, monkeypatch):
        # restart_delay=0 arms a restart that is due in the tick of the
        # crash: the fault schedule must run again at the driver's next
        # step, not at the next clock change.  The seed is one on which a
        # script is ready at the crash (of `range(12)` under the parked
        # protocol: 0 and 7-10; where none is, the driver's next step is the
        # delivery sweep itself), so shard 0 is back before anything is
        # delivered, and no delivery sweep ever starts with it down.  A
        # single server restarts inside the very `tick()` that crashed it.
        down_at_sweep = []
        original = network_mod.SimulatedNetwork.drain_due

        def drain_due(net):
            down_at_sweep.append(not net.is_up(endpoint))
            return original(net)

        monkeypatch.setattr(network_mod.SimulatedNetwork, "drain_due", drain_due)
        for endpoint, cluster in (
            ("shard0", ClusterConfig(shards=2)),
            ("server", None),
        ):
            result = run_stress(StressConfig(
                seed=0,
                crash_after_commits=20,
                restart_delay=0,
                cluster=cluster,
                retry=RetryPolicy(backoff=0),
                **{**CONTENDED, "network": NetworkConfig(
                    drop=0.05, min_delay=0, max_delay=2
                )},
            ))
            assert result.crashes == result.restarts == 1, endpoint
            assert down_at_sweep and not any(down_at_sweep), endpoint
            down_at_sweep.clear()

    @pytest.mark.parametrize("restart_delay", [0, 25])
    def test_server_schedule_driven_by_hand_matches_the_driver(self, restart_delay):
        # The five-member surface `run_stress` drives (`client`,
        # `schedule_crash`, `tick`, `next_wake`, `settle`) is all a driver
        # needs: one client's script stepped by hand against a `Server`
        # leaves the artifacts of the same config under `run_stress`.
        cfg = StressConfig(
            clients=1, txns_per_client=12, seed=4,
            network=NetworkConfig(drop=0.05, duplicate=0.05, max_delay=3),
            crash_after_commits=5, restart_delay=restart_delay,
        )
        driven = run_stress(cfg)
        assert driven.crashes == driven.restarts == 1

        net = network_mod.SimulatedNetwork(cfg.network.with_seed(cfg.seed * 7919 + 1))
        engine = SchedulerConfig(scheduler=cfg.scheduler, seed=cfg.seed)
        server = server_mod.Server(
            net,
            engine,
            initial={f"k{i}": 0 for i in range(cfg.keys)},
            monitor=IncrementalAnalysis(order_mode="commit"),
        )
        server.schedule_crash(cfg.crash_after_commits, cfg.restart_delay)
        client = server.client("c0", policy=RetryPolicy())
        script = stress_mod._transfer_script(
            client, random.Random(cfg.seed * 1_000_003 + 1),
            txns=cfg.txns_per_client,
            mix=dict(keys=cfg.keys, ops=cfg.ops_per_txn),
            level=str(engine.declared_level), counters={"aborts": 0},
            windows=None, latencies=[],
        )
        pending = next(script)
        while pending is not None:
            server.tick()
            if pending.poll():
                pending = next(script, None)
            elif not net.drain_due():
                wakes = [pending.next_wake, server.next_wake]
                net.advance(max(1, min(w for w in wakes if w is not None) - net.now))
        server.settle()
        assert (server.crashes, server.restarts) == (1, 1)
        assert format_history(server.history()) == driven.history_text
        assert tuple(client.journal) == driven.journals["c0"]
        assert net.now == driven.ticks

    def test_polling_a_pending_that_is_not_due_changes_nothing(self):
        # `due` is a hint, never a precondition: hand-driven loops (and
        # `co_call`) poll whenever they like.
        net = network_mod.SimulatedNetwork(NetworkConfig(min_delay=2, max_delay=2))
        server_mod.Server(net, "locking", initial={"x": 0})
        client = client_mod.Client(net)
        pending = client.submit("begin")
        assert not pending.due(net.now)
        before = (pending.attempts, pending.deadline, pending.resume_at, net.pending)
        assert pending.poll() is False
        assert before == (
            pending.attempts, pending.deadline, pending.resume_at, net.pending
        )
        net.drain_due()  # request delivered, reply in flight
        assert not pending.due(net.now)
        net.drain_due()  # reply delivered
        assert pending.due(net.now) and pending.poll() is True


def _checked_searches(monkeypatch, log):
    """Run every ``break_deadlock`` call next to the exhaustive search it
    may skip: rebuild the whole graph first, then require the same verdict."""
    original = server_mod.break_deadlock

    def checked(servers, origin, waiter):
        live = [server for server in servers if server.up]
        by_tid, waits = server_mod._waits_for(live)
        cycle = _find_cycle(waits)
        full_calls = log["full"]
        broken = original(servers, origin, waiter)
        log["searches"] += 1
        log["skipped"] += log["full"] == full_calls
        if cycle is None:
            assert broken is None
        else:
            assert broken is not None and broken[0] in cycle
        return broken

    def counting_find_cycle(waits):
        log["full"] += 1
        return _find_cycle(waits)

    monkeypatch.setattr(server_mod, "break_deadlock", checked)
    monkeypatch.setattr(cluster_mod, "break_deadlock", checked)
    monkeypatch.setattr(server_mod, "_find_cycle", counting_find_cycle)


DEADLOCK_CASES = {
    "single": {},
    # Shared read locks: waiters with several holders at once.
    "read_mix": dict(read_only_fraction=0.5),
    # Wounded transactions die out-of-band and leave their wait entry behind.
    "wound_wait": dict(
        scheduler=SchedulerConfig(scheduler="locking", deadlock="wound-wait")
    ),
    # Clients that give up on a lock begin afresh: the park they walk away
    # from goes, edge and all.
    "give_up": dict(retry=RetryPolicy(max_attempts=2)),
    "cluster": dict(cluster=ClusterConfig(shards=2, replicas=1)),
    # A shard crash between prepare and commit: in-doubt fences add wait
    # edges that no search follows.
    "cluster_in_doubt": dict(
        cluster=ClusterConfig(
            shards=2,
            crash_shard_after_prepares=(1, 4),
            partition_coordinator_after_prepares=9,
        ),
        network=NetworkConfig(drop=0.03, duplicate=0.03, min_delay=1, max_delay=3),
    ),
}


class TestIncrementalDeadlockSearch:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", DEADLOCK_CASES)
    def test_shortcut_agrees_with_the_full_search(self, monkeypatch, case, seed):
        log = {"searches": 0, "skipped": 0, "full": 0}
        _checked_searches(monkeypatch, log)
        run_stress(StressConfig(
            seed=seed, **{**CONTENDED, **DEADLOCK_CASES[case]}
        ))
        assert log["searches"] > 0

    def test_most_busy_replies_skip_the_rebuild(self, monkeypatch):
        log = {"searches": 0, "skipped": 0, "full": 0}
        _checked_searches(monkeypatch, log)
        result = run_stress(StressConfig(seed=3, **CONTENDED))
        assert result.deadlock_victims > 0
        # A full search per victim to name it, one more to re-establish an
        # acyclic graph, and whatever cycles-through-the-waiter turn up.
        assert log["skipped"] >= log["searches"] // 2
        assert log["full"] <= 3 * result.deadlock_victims + 1


#: The golden configs with a fault-free network, no crash, no map change
#: and no admission shedding: nothing but lock waits can cost a message.
QUIET_GOLDEN_CONFIGS = (
    "single", "cluster_2x2", "read_mix", "open_loop_windows", "cluster_windows",
)


class TestParkedRequests:
    """A lock wait is one request, one notice and one pushed reply, and a
    parked request runs again only when a transaction it waited on ended."""

    @pytest.mark.parametrize("seed", stress_golden.SEEDS)
    @pytest.mark.parametrize("name", QUIET_GOLDEN_CONFIGS)
    def test_messages_and_executions_per_operation(self, monkeypatch, name, seed):
        requests, replies, executions, holders = {}, {}, {}, {}
        send = network_mod.SimulatedNetwork.send
        execute = server_mod.Server._execute

        def counted_send(net, src, dst, payload):
            # Requests name their session; replies go to its endpoint.
            side = requests if "kind" in payload else replies
            op = (payload.get("session", dst), payload["rid"])
            side[op] = side.get(op, 0) + 1
            send(net, src, dst, payload)

        def counted_execute(server, kind, request, *rest):
            reply = execute(server, kind, request, *rest)
            op = (request["session"], request["rid"])
            executions[op] = executions.get(op, 0) + 1
            if reply.get("error") == "busy":
                holders.setdefault(op, set()).update(reply["holders"])
            return reply

        monkeypatch.setattr(network_mod.SimulatedNetwork, "send", counted_send)
        monkeypatch.setattr(server_mod.Server, "_execute", counted_execute)
        result = stress_golden.CONFIGS[name](seed)
        assert result.client_stats["busy"] > 0
        # A request is answered once — with the notice or the final reply —
        # and a parked one gets its final reply pushed: three messages.
        for op, sent in requests.items():
            assert replies[op] <= sent + 1, op
        # It is sent again only when a wait outlasts the liveness deadline
        # (the 2PC retransmission timer apart), which is rare.
        resent = sum(
            sent - 1 for op, sent in requests.items() if op[0] != "coord"
        )
        assert resent == result.client_stats["retries"] <= len(requests) // 100
        # Every run after the first answers the end of a transaction the
        # run before it was blocked on (each holder ends once), or of its own.
        for op, runs in executions.items():
            assert runs <= 1 + len(holders.get(op, ())) + 1, op
        reruns = sum(executions.values()) - len(executions)
        assert reruns <= sum(map(len, holders.values()))


class TestDedupCacheWatermark:
    @pytest.mark.parametrize("extra", [
        dict(network=NetworkConfig(
            drop=0.05, duplicate=0.2, min_delay=1, max_delay=6
        )),
        # The coordinator's multiplexed session: replayable 2PC verbs are
        # re-cached below the acked watermark.
        dict(
            cluster=ClusterConfig(shards=2, retry_every=4),
            network=NetworkConfig(duplicate=0.2, min_delay=1, max_delay=6),
        ),
    ], ids=["single", "cluster"])
    def test_oldest_reply_tracks_the_cache(self, monkeypatch, extra):
        original = server_mod.Server._handle

        def checked(server, request, span, src):
            reply = original(server, request, span, src)
            sess = server._sessions[request["session"]]
            assert sess.oldest_reply == min(sess.replies, default=float("inf"))
            # Pruned exactly as a scan on every request would: nothing at or
            # below the acked watermark survives, bar this request's own reply.
            acked = request.get("acked")
            assert acked is None or all(
                rid > acked for rid in sess.replies if rid != request["rid"]
            )
            return reply

        monkeypatch.setattr(server_mod.Server, "_handle", checked)
        result = run_stress(StressConfig(seed=5, **{**CONTENDED, **extra}))
        assert result.server_counters["dedup_hits"] > 0

    def test_replica_read_cache_shares_the_watermark(self, monkeypatch):
        original = replication_mod.ReplicaServer._on_read
        seen = {"reads": 0, "pruned": 0}

        def checked(replica, payload):
            cache = replica.slot.read_replies
            before = set(getattr(cache.get(payload["session"]), "replies", ()))
            reply = original(replica, payload)
            sess = cache[payload["session"]]
            assert sess.oldest_reply == min(sess.replies, default=float("inf"))
            # Pruned exactly as a scan on every read would.
            assert all(rid > sess.acked for rid in sess.replies)
            seen["reads"] += 1
            seen["pruned"] += not before <= set(sess.replies)
            return reply

        monkeypatch.setattr(replication_mod.ReplicaServer, "_on_read", checked)
        result = run_stress(StressConfig(
            seed=5, level="PL-2", read_preference="replica",
            read_only_fraction=0.5,
            cluster=ClusterConfig(shards=2, replicas=2),
            **{**CONTENDED, "network": NetworkConfig(
                duplicate=0.2, min_delay=1, max_delay=6
            )},
        ))
        assert result.committed == 80
        assert seen["reads"] > 50 and seen["pruned"] > 0
