"""Tests for the client/server service layer (repro.service) and the
public engine facade (repro.connect / SchedulerConfig)."""

import dataclasses
import warnings

import pytest

import repro
from repro.core.incremental import IncrementalAnalysis
from repro.core.levels import IsolationLevel
from repro.engine import factory
from repro.engine.database import Database
from repro.engine.locking import LockingScheduler
from repro.engine.mvcc import SnapshotIsolationScheduler
from repro.service import (
    Client,
    NetworkConfig,
    RequestTimeout,
    RetryPolicy,
    SchedulerConfig,
    Server,
    ServiceAborted,
    ServiceUnavailable,
    SimulatedNetwork,
)


def make_stack(scheduler="locking", *, net=None, initial=None, **server_kw):
    net = net or SimulatedNetwork()
    server = Server(net, scheduler, initial=initial or {"x": 1, "y": 2}, **server_kw)
    return net, server


# ---------------------------------------------------------------------------
# configs: frozen, keyword-only, validated
# ---------------------------------------------------------------------------


class TestConfigs:
    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (NetworkConfig, {"drop": 0.1}),
            (RetryPolicy, {"max_attempts": 3}),
            (SchedulerConfig, {"scheduler": "locking"}),
        ],
    )
    def test_frozen(self, cls, kwargs):
        config = cls(**kwargs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 99 if cls is not RetryPolicy else None

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            NetworkConfig(7)
        with pytest.raises(TypeError):
            RetryPolicy(5)
        with pytest.raises(TypeError):
            SchedulerConfig("locking")

    def test_network_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(drop=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(min_delay=5, max_delay=2)
        assert not NetworkConfig().faulty
        assert NetworkConfig(duplicate=0.1).faulty
        assert NetworkConfig(min_delay=1, max_delay=3).faulty

    def test_retry_validation_and_schedule(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        policy = RetryPolicy(max_attempts=5, backoff=2, factor=2.0, max_backoff=10)
        assert policy.schedule() == (2, 4, 8, 10)
        assert policy.backoff_before(0) == 0

    def test_scheduler_config_canonicalises(self):
        assert SchedulerConfig(scheduler="MVCC").scheduler == "snapshot-isolation"
        assert SchedulerConfig(scheduler="2PL").scheduler == "locking"
        config = SchedulerConfig(scheduler="locking", level="repeatable read")
        assert config.level is IsolationLevel.PL_2_99
        with pytest.raises(KeyError):
            SchedulerConfig(scheduler="nope")
        with pytest.raises(ValueError):
            SchedulerConfig(scheduler="locking", deadlock="pray")

    def test_declared_level(self):
        assert SchedulerConfig(scheduler="locking").declared_level is IsolationLevel.PL_3
        assert (
            SchedulerConfig(scheduler="si").declared_level is IsolationLevel.PL_2
        )
        assert (
            SchedulerConfig(scheduler="locking", level="PL-1").declared_level
            is IsolationLevel.PL_1
        )


# ---------------------------------------------------------------------------
# the connect facade and deprecation shims
# ---------------------------------------------------------------------------


class TestConnect:
    def test_connect_returns_database_with_config(self):
        db = repro.connect("locking", level="PL-2", initial={"x": 0})
        assert isinstance(db, Database)
        assert db.config.scheduler == "locking"
        assert db.config.level is IsolationLevel.PL_2
        t = db.begin()
        assert t.read("x") == 0
        t.commit()

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("locking", LockingScheduler),
            ("mvcc", SnapshotIsolationScheduler),
            ("si", SnapshotIsolationScheduler),
        ],
    )
    def test_aliases(self, name, expected):
        assert isinstance(repro.connect(name).scheduler, expected)

    def test_connect_monitor_attaches(self):
        monitor = IncrementalAnalysis(order_mode="commit")
        db = repro.connect("locking", monitor=monitor, initial={"x": 0})
        t = db.begin()
        t.write("x", 1)
        t.commit()
        assert monitor.strongest_level() is IsolationLevel.PL_3

    def test_database_from_string(self):
        db = Database("snapshot-isolation")
        assert isinstance(db.scheduler, SnapshotIsolationScheduler)
        assert db.config.scheduler == "snapshot-isolation"

    def test_factory_built_scheduler_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.connect("locking")
            Database(factory.create_scheduler("optimistic"))

    def test_top_level_reexports(self):
        for name in (
            "Database",
            "TransactionHandle",
            "Simulator",
            "SimulationResult",
            "connect",
            "SchedulerConfig",
            "Server",
            "Client",
            "run_stress",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__


# ---------------------------------------------------------------------------
# the simulated network
# ---------------------------------------------------------------------------


class TestNetwork:
    def test_reliable_round_trip(self):
        net = SimulatedNetwork()
        net.register_handler("srv", lambda payload, src: {"echo": payload["n"]})
        inbox = net.register_inbox("cli")
        net.send("cli", "srv", {"n": 7})
        while net.step():
            pass
        assert inbox == [("srv", {"echo": 7})]
        assert net.counters["delivered"] == 2

    def test_seeded_faults_are_deterministic(self):
        def run():
            net = SimulatedNetwork(
                NetworkConfig(seed=42, drop=0.3, duplicate=0.3, max_delay=5)
            )
            net.register_inbox("b")
            for i in range(50):
                net.send("a", "b", {"i": i})
            while net.step():
                pass
            return dict(net.counters), [p["i"] for _s, p in net._inboxes["b"]]

        assert run() == run()
        counters, seen = run()
        assert counters["dropped"] > 0 and counters["duplicated"] > 0
        assert len(seen) < 50 + counters["duplicated"]  # some really lost

    def test_down_endpoint_loses_in_flight(self):
        net = SimulatedNetwork()
        net.register_inbox("b")
        net.send("a", "b", {"i": 1})
        net.down("b")
        assert net.step()
        assert net.counters["lost_down"] == 1
        net.up("b")
        net.send("a", "b", {"i": 2})
        net.step()
        assert [p["i"] for _s, p in net._inboxes["b"]] == [2]

    def test_partition_blocks_and_heals(self):
        net = SimulatedNetwork()
        net.register_inbox("b")
        net.set_partition(("a",), ("b",))
        assert not net.reachable("a", "b")
        net.send("a", "b", {"i": 1})
        net.step()
        assert net.counters["lost_partition"] == 1
        net.heal()
        net.send("a", "b", {"i": 2})
        net.step()
        assert [p["i"] for _s, p in net._inboxes["b"]] == [2]

    def test_delays_reorder(self):
        net = SimulatedNetwork(NetworkConfig(seed=3, min_delay=1, max_delay=10))
        net.register_inbox("b")
        for i in range(20):
            net.send("a", "b", {"i": i})
        while net.step():
            pass
        order = [p["i"] for _s, p in net._inboxes["b"]]
        assert sorted(order) == list(range(20))
        assert order != list(range(20))

    def test_flush_during_drain_terminates(self):
        # A crash triggered *inside* a delivery sweep flushes the queue
        # while drain_due is iterating it.  The sweep must keep reading
        # the live queue (flush rebuilds it) or it spins forever on the
        # dropped snapshot — the replica-crash-mid-catch-up livelock.
        net = SimulatedNetwork()
        net.register_inbox("victim")

        def crash_victim(payload, src):
            net.down("victim")
            net.flush("victim")
            return None

        net.register_handler("killer", crash_victim)
        # Two messages due the same tick: one to the victim (flushed
        # mid-sweep), one that triggers the flush.
        net.send("a", "killer", {"go": True})
        net.send("a", "victim", {"i": 1})
        # A self-rearming timer keeps the queue non-empty forever, like
        # the replication pump.
        def rearm(payload, src):
            net.timer("pump", {"tick": True}, delay=2)
            return None

        net.register_handler("pump", rearm)
        net.timer("pump", {"tick": True}, delay=1)
        for _ in range(10):
            assert net.drain_due() >= 1
        assert net.counters["lost_down"] >= 1


# ---------------------------------------------------------------------------
# client/server basics
# ---------------------------------------------------------------------------


class TestClientServer:
    def test_round_trip_and_history(self):
        net, server = make_stack()
        client = Client(net)
        client.begin()
        assert client.read("x") == 1
        client.write("x", 5)
        client.commit()
        history = server.history()
        assert 1 in history.committed
        assert client.journal  # deterministic observed history
        assert "[attempts=1]" in client.journal[0]

    def test_duplicate_request_executes_once(self):
        net, server = make_stack()
        client = Client(net)
        client.begin()
        # duplicate the write request manually: same rid = same token
        pending = client.submit("write", obj="x", value=9)
        net.send(client.name, "server", dict(pending.payload))
        net.run_until(pending.poll)
        while net.step():
            pass
        client._finish(pending)
        client.commit()
        assert server.counters["dedup_hits"] >= 1
        # exactly one x version written beyond init + load
        history = server.history()
        assert len(history.version_order["x"]) == 3

    def test_lost_reply_retry_does_not_double_apply(self):
        # drop is seeded; find the schedule where a reply vanishes by
        # brute force over seeds, then assert at-most-once held.
        for seed in range(30):
            net = SimulatedNetwork(NetworkConfig(seed=seed, drop=0.25))
            server = Server(net, "locking", initial={"x": 0})
            client = Client(net, policy=RetryPolicy(max_attempts=8, timeout=5))
            try:
                client.begin()
                client.write("x", 1)
                client.commit()
            except (RequestTimeout, ServiceAborted, ServiceUnavailable):
                continue
            history = server.history()
            assert len(history.version_order["x"]) == 3
            if client._retries_total > 0 and server.counters["dedup_hits"] > 0:
                return  # observed an actual retry answered from the cache
        pytest.fail("no seed exercised a dedup-cache retry")


    def test_busy_then_success(self):
        net, server = make_stack()
        holder = Client(net, name="holder")
        waiter = Client(net, name="waiter", policy=RetryPolicy(timeout=10))
        holder.begin()
        holder.write("x", 10)
        waiter.begin()
        pending = waiter.submit("read", obj="x", for_update=True)
        for _ in range(40):
            net.step() or net.advance()
            pending.poll()
        assert not pending.settled  # parked on busy while the lock is held
        assert server.counters["busy"] >= 1
        holder.commit()
        net.run_until(pending.poll)
        assert pending.result()["value"] == 10
        waiter.commit()

    def test_deadlock_is_broken(self):
        net, server = make_stack()
        a = Client(net, name="a", policy=RetryPolicy(timeout=6, max_attempts=20))
        b = Client(net, name="b", policy=RetryPolicy(timeout=6, max_attempts=20))
        a.begin()
        b.begin()
        a.write("x", 100)
        b.write("y", 200)
        pa = a.submit("write", obj="y", value=101)
        pb = b.submit("write", obj="x", value=201)
        outcomes = {}

        def drive():
            for name, pending, client in (("a", pa, a), ("b", pb, b)):
                if name in outcomes:
                    continue
                if pending.poll():
                    try:
                        pending.result()
                        outcomes[name] = "ok"
                    except ServiceAborted as exc:
                        outcomes[name] = exc.reason
                        client.tid = None
            return len(outcomes) == 2

        assert net.run_until(drive)
        assert sorted(outcomes.values()) == ["deadlock", "ok"]
        assert server.deadlock_victims == 1
        survivor = a if outcomes["a"] == "ok" else b
        survivor.commit()
        assert server.commit_count == 1

    def test_unknown_verb_and_no_txn(self):
        net, _server = make_stack()
        client = Client(net)
        reply = client.call("ping")
        assert reply["ok"]
        with pytest.raises(ServiceAborted, match="no active transaction"):
            client.call("read", obj="x")

    def test_server_aborts_on_engine_abort(self):
        net, server = make_stack("optimistic", initial={"x": 0})
        a = Client(net, name="a")
        b = Client(net, name="b")
        a.begin()
        b.begin()
        assert a.read("x") == 0
        assert b.read("x") == 0
        a.write("x", 1)
        b.write("x", 2)
        a.commit()
        with pytest.raises(ServiceAborted):
            b.commit()
        assert server.commit_count == 1


# ---------------------------------------------------------------------------
# parked waiting: a lock wait is one request, one notice, one pushed reply
# ---------------------------------------------------------------------------


def deliver(net, *pendings):
    """Deliver everything in flight (no idle time passes), polling the
    pendings the way a driver would."""
    while net.step():
        for pending in pendings:
            pending.poll()
    return [pending.poll() for pending in pendings]


def lose_next(monkeypatch, net, match):
    """Lose the next message ``match(src, dst, payload)`` accepts: the
    seeded drop, aimed."""
    send = net.send
    armed = [True]

    def lossy(src, dst, payload):
        if armed and match(src, dst, payload):
            armed.clear()
            return
        send(src, dst, payload)

    monkeypatch.setattr(net, "send", lossy)


def count_executions(monkeypatch, server):
    """How often the server took a request to the engine."""
    execute = server._execute
    calls = []

    def counted(kind, request, *rest):
        calls.append((request["session"], request["rid"]))
        return execute(kind, request, *rest)

    monkeypatch.setattr(server, "_execute", counted)
    return calls


class TestParkedWaiting:
    POLICY = RetryPolicy(timeout=5, max_attempts=3, backoff=1)
    #: What a parked request is given before its client asks again.
    LIVENESS = POLICY.timeout * POLICY.max_attempts

    def blocked(self, verb="read", **fields):
        """``holder`` has written x; ``waiter``'s request for x is parked."""
        net, server = make_stack()
        holder = Client(net, name="holder")
        waiter = Client(net, name="waiter", policy=self.POLICY)
        holder.begin()
        holder.write("x", 10)
        waiter.begin()
        if verb == "read":
            fields.setdefault("for_update", True)
        pending = waiter.submit(verb, obj="x", **fields)
        return net, server, holder, waiter, pending

    def test_grant_pushes_the_final_reply(self):
        net, server, holder, waiter, pending = self.blocked()
        assert deliver(net, pending) == [False]
        assert server.parked() == {"waiter": [holder.tid]}
        assert server.counters["busy"] == waiter.stats["busy"] == 1
        net.advance(self.POLICY.timeout + 1)  # a notice is no ordinary wait
        assert pending.poll() is False and pending.attempts == 1
        requests = server.counters["requests"]
        holder.commit()
        assert deliver(net, pending) == [True]
        assert waiter._finish(pending)["value"] == 10
        assert waiter.journal[-1].endswith("-> value=10 [attempts=1]")
        # One request, one notice, one pushed reply: nothing was re-sent.
        assert server.counters["requests"] == requests + 1  # holder's commit
        assert waiter.stats["retries"] == waiter.stats["timeouts"] == 0
        assert server.parked() == {}
        waiter.commit()

    def test_waiters_wake_in_park_order_and_are_answered_first(self, monkeypatch):
        net, server = make_stack()
        holder, b, a = (Client(net, name=n) for n in ("holder", "b", "a"))
        for client in (holder, b, a):
            client.begin()
        holder.write("x", 10)
        pb = b.submit("read", obj="x")  # shared locks: both can be granted
        pa = a.submit("read", obj="x")
        deliver(net, pb, pa)
        assert list(server.parked()) == ["b", "a"]
        sent = []
        send = net.send
        monkeypatch.setattr(
            net, "send", lambda src, dst, m: (sent.append(dst), send(src, dst, m))
        )
        commit = holder.submit("commit")
        assert deliver(net, commit, pb, pa) == [True, True, True]
        # The commit's delivery pushes the woken replies in park order, and
        # only then is the commit's own reply sent.
        assert sent == ["server", "b", "a", "holder"]

    def test_blocking_again_keeps_the_place(self):
        net, server = make_stack()
        holder, b, a = (Client(net, name=n) for n in ("holder", "b", "a"))
        for client in (holder, b, a):
            client.begin()
        holder.write("x", 10)
        pb = b.submit("read", obj="x", for_update=True)
        pa = a.submit("read", obj="x", for_update=True)
        deliver(net, pb, pa)
        holder.commit()
        # b was parked first and takes the lock; a runs again, blocks on b
        # and stays parked — silently, with fresh holders.
        assert deliver(net, pb, pa) == [True, False]
        assert server.parked() == {"a": [b.tid]}
        assert server.counters["busy"] == 2 and a.stats["busy"] == 1
        b._finish(pb)
        b.commit()
        assert deliver(net, pa) == [True]
        assert a._finish(pa)["value"] == 10 and pa.attempts == 1

    def test_retransmit_and_duplicate_never_run_again(self, monkeypatch):
        net, server, holder, waiter, pending = self.blocked()
        calls = count_executions(monkeypatch, server)
        deliver(net, pending)
        ran = len(calls)
        net.send(waiter.name, "server", dict(pending.payload))  # a duplicate
        deliver(net, pending)
        net.advance(self.LIVENESS)  # the client's own retransmit
        assert pending.poll() is False
        net.advance(self.POLICY.backoff)
        pending.poll()
        assert deliver(net, pending) == [False]
        assert pending.attempts == 2 and waiter.stats["timeouts"] == 1
        assert len(calls) == ran
        assert server.counters["dedup_hits"] == 2
        assert server.counters["busy"] == 1 and waiter.stats["busy"] == 3
        assert server.parked() == {"waiter": [holder.tid]}
        holder.commit()
        assert deliver(net, pending) == [True]
        assert len(calls) == ran + 2  # the commit, and the one run it woke

    def test_parked_victim_gets_aborted(self):
        net, server = make_stack()
        a, b = Client(net, name="a"), Client(net, name="b")
        a.begin()
        b.begin()
        a.write("x", 100)
        b.write("y", 200)
        pb = b.submit("write", obj="x", value=201)
        assert deliver(net, pb) == [False]  # parked behind a, no cycle yet
        pa = a.submit("write", obj="y", value=101)
        assert deliver(net, pa, pb) == [True, True]
        # The younger session is the victim though the older one asked: its
        # parked request collects the abort, and the asker the lock.
        with pytest.raises(ServiceAborted, match="deadlock"):
            pb.result()
        assert pa.result()["ok"] and pa.attempts == pb.attempts == 1
        assert server.deadlock_victims == 1 and server.parked() == {}
        a.commit()

    def test_crash_recovers_through_the_liveness_deadline(self):
        net, server, holder, waiter, pending = self.blocked()
        deliver(net, pending)
        server.crash()
        assert server.parked() == {}
        server.restart()
        start = net.now
        assert net.run_until(pending.poll)
        with pytest.raises(ServiceAborted, match="server restarted"):
            pending.result()
        assert pending.attempts == 2 and waiter.stats["timeouts"] == 1
        assert net.now - start >= self.LIVENESS

    def test_walking_away_drops_the_park(self):
        net, server, holder, waiter, pending = self.blocked()
        deliver(net, pending)
        waiter.tid = None
        again = waiter.submit("begin")  # a later rid from the parked session
        deliver(net, again)
        assert server.parked() == {}
        holder.commit()
        deliver(net, pending)
        assert not pending.settled and not waiter._inbox  # nothing was pushed
        # A late copy of the abandoned request is stale, not executed.
        net.send(waiter.name, "server", dict(pending.payload))
        net.step()
        assert net._queue[0][4]["error"] == "stale"

    def test_lost_notice_is_repeated_to_the_retransmit(self, monkeypatch):
        net, server, holder, waiter, pending = self.blocked()
        calls = count_executions(monkeypatch, server)
        lose_next(monkeypatch, net, lambda src, dst, m: m.get("error") == "busy")
        deliver(net, pending)
        assert waiter.stats["busy"] == 0  # the notice never arrived
        assert net.run_until(lambda: pending.poll() or pending.attempts == 2)
        assert deliver(net, pending) == [False]
        assert waiter.stats == {"retries": 1, "timeouts": 1, "busy": 1, "shed": 0}
        assert server.counters["dedup_hits"] == 1 and len(calls) == 1
        holder.commit()
        assert deliver(net, pending) == [True]
        assert pending.result()["value"] == 10

    def test_lost_push_is_answered_from_the_dedup_cache(self, monkeypatch):
        net, server, holder, waiter, pending = self.blocked("write", value=11)
        calls = count_executions(monkeypatch, server)
        deliver(net, pending)
        lose_next(monkeypatch, net, lambda src, dst, m: dst == "waiter")
        holder.commit()
        assert deliver(net, pending) == [False]  # granted, but the push is lost
        assert server.parked() == {}
        ran = len(calls)
        assert net.run_until(pending.poll)
        assert pending.result()["ok"] and pending.attempts == 2
        assert len(calls) == ran and server.counters["dedup_hits"] == 1
        waiter.commit()
        # init, load, holder's 10, waiter's 11 — the write applied once.
        assert len(server.history().version_order["x"]) == 4


# ---------------------------------------------------------------------------
# crash / restart
# ---------------------------------------------------------------------------


class TestCrashRestart:
    def test_committed_state_survives(self):
        net, server = make_stack(initial={"x": 1})
        client = Client(net, policy=RetryPolicy(timeout=5, max_attempts=3))
        client.begin()
        client.write("x", 42)
        client.commit()
        before = server.history()
        server.crash()
        assert not net.is_up("server")
        with pytest.raises((RequestTimeout, ServiceUnavailable)):
            client.ping()
        server.restart()
        after = server.history()
        assert after.committed >= before.committed
        reader = Client(net, name="reader")
        reader.begin()
        assert reader.read("x") == 42
        reader.commit()

    def test_active_txn_dies_with_crash(self):
        net, server = make_stack(initial={"x": 1})
        client = Client(net, policy=RetryPolicy(timeout=5, max_attempts=3))
        client.begin()
        client.write("x", 99)
        server.crash()
        server.restart()
        client.tid = None
        reader = Client(net, name="reader")
        reader.begin()
        assert reader.read("x") == 1  # uncommitted write rolled back
        reader.commit()

    def test_commit_retry_across_crash_recovers(self):
        net, server = make_stack(initial={"x": 1})
        client = Client(net, policy=RetryPolicy(timeout=8, max_attempts=10))
        client.begin()
        client.write("x", 7)
        pending = client.submit("commit")
        # deliver the commit request but crash before the reply escapes
        net.step()
        assert server.commit_count == 1
        server.crash()
        net.advance(30)
        server.restart()
        net.run_until(pending.poll)
        reply = client._finish(pending)
        assert reply["ok"] and reply.get("recovered")
        assert pending.attempts > 1

    def test_monitor_survives_restart(self):
        monitor = IncrementalAnalysis(order_mode="commit")
        net, server = make_stack(initial={"x": 1}, monitor=monitor)
        client = Client(net)
        client.begin()
        client.write("x", 2)
        client.commit()
        server.crash()
        server.restart()
        client.tid = None
        client.begin()
        client.write("x", 3)
        reply = client.commit()
        assert reply["certified"] is True
        assert server.certified and all(server.certified.values())


# ---------------------------------------------------------------------------
# retry/backoff determinism
# ---------------------------------------------------------------------------


class TestBackoffDeterminism:
    def test_backoff_schedule_is_exact(self):
        policy = RetryPolicy(max_attempts=4, timeout=10, backoff=3, factor=2.0)
        net = SimulatedNetwork(NetworkConfig(drop=0.999999, seed=1))
        # (drop < 1.0 enforced; make every send vanish via a partition)
        net = SimulatedNetwork()
        net.set_partition(("client",), ("server",))
        client = Client(net, name="client", policy=policy)
        pending = client.submit("ping")
        send_times = [0]
        while not pending.settled:
            before = pending.attempts
            net.step() or net.advance()
            pending.poll()
            if pending.attempts != before:
                send_times.append(net.now)
        with pytest.raises(RequestTimeout):
            pending.result()
        gaps = [b - a for a, b in zip(send_times, send_times[1:])]
        # timeout (10) + backoff before each retry (3, 6, 12)
        assert gaps == [13, 16, 22]

    def test_identical_seeds_identical_journals(self):
        def run():
            net = SimulatedNetwork(
                NetworkConfig(seed=5, drop=0.2, duplicate=0.2, max_delay=4)
            )
            server = Server(net, "locking", initial={"x": 0})
            client = Client(net, policy=RetryPolicy(timeout=8))
            for i in range(5):
                try:
                    client.begin()
                    client.write("x", i)
                    client.commit()
                except (ServiceAborted, RequestTimeout, ServiceUnavailable):
                    client.tid = None
            return tuple(client.journal), repr(server.history())

        assert run() == run()


# ---------------------------------------------------------------------------
# engine recovery plumbing (restore / recover)
# ---------------------------------------------------------------------------


class TestRecoverPlumbing:
    @pytest.mark.parametrize(
        "family", ["locking", "optimistic", "snapshot-isolation"]
    )
    def test_database_recover_rebuilds_state(self, family):
        db = repro.connect(family, initial={"x": 1, "y": 2})
        t = db.begin()
        t.write("x", 10)
        t.commit()
        dead = db.begin()
        dead.write("y", 99)
        dead.abort()
        recorder = db.scheduler.recorder
        revived = Database.recover(factory.create_scheduler(family), recorder)
        t2 = revived.begin()
        assert t2.read("x") == 10
        assert t2.read("y") == 2  # aborted write not replayed
        assert t2.tid > t.tid  # tid counter continues, no collisions
        t2.commit()

    def test_provides_on_monitor(self):
        monitor = IncrementalAnalysis(order_mode="commit")
        db = repro.connect("locking", monitor=monitor, initial={"x": 0})
        t = db.begin()
        t.write("x", 1)
        t.commit()
        assert monitor.provides(IsolationLevel.PL_3)
        assert monitor.provides("PL-1")
        with pytest.raises(ValueError):
            monitor.provides(IsolationLevel.PL_SI)


class TestInstrumentation:
    def test_stress_run_emits_service_metrics_and_trace(self):
        from repro.observability import MetricsRegistry, Tracer
        from repro.service import StressConfig, run_stress

        metrics, tracer = MetricsRegistry(), Tracer()
        result = run_stress(
            StressConfig(
                clients=3,
                txns_per_client=6,
                seed=7,
                network=NetworkConfig(
                    drop=0.05, duplicate=0.05, min_delay=1, max_delay=4
                ),
                crash_after_commits=8,
            ),
            metrics=metrics,
            tracer=tracer,
        )
        assert result.all_certified
        text = metrics.render_text()
        for name in (
            "service_messages_total",
            "service_requests_total",
            "service_dedup_hits_total",
            "service_busy_total",
            "service_server_crashes_total",
            "service_commits_certified_total",
            "service_client_retries_total",
            "service_client_timeouts_total",
        ):
            assert name in text, name
        events = {r.get("name") for r in tracer.records}
        assert {"server.crash", "server.restart"} <= events
