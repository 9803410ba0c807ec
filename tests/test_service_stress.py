"""Acceptance tests for the fault-injected service layer: seeded stress
runs must commit through drops/duplicates/crashes with every commit
live-certified, and must replay byte-for-byte under equal seeds."""

import re

import pytest

from repro.checker import check
from repro.core.levels import IsolationLevel
from repro.core.parser import parse_history
from repro.service import (
    Client,
    ClusterConfig,
    NetworkConfig,
    RetryPolicy,
    Server,
    SimulatedNetwork,
    StressConfig,
    run_stress,
)

FAULTY = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)


class TestAcceptance:
    """The ISSUE's acceptance run: >= 100 transactions under drops +
    duplicates + one crash/restart, all certified, reproducible."""

    @pytest.fixture(scope="class")
    def runs(self):
        config = StressConfig(
            clients=4,
            txns_per_client=25,
            seed=7,
            network=FAULTY,
            crash_after_commits=30,
        )
        return run_stress(config), run_stress(config)

    def test_completes_with_faults_and_crash(self, runs):
        result, _ = runs
        assert result.committed >= 100
        assert result.crashes == 1 and result.restarts == 1
        assert result.network_counters["dropped"] > 0
        assert result.network_counters["duplicated"] > 0

    def test_every_commit_certified_at_declared_level(self, runs):
        result, _ = runs
        assert result.certification  # non-empty
        assert result.all_certified
        for tid, (level, ok) in result.certification.items():
            if tid == 0:
                continue
            assert level is IsolationLevel.PL_3
            assert ok, f"tid {tid} violated its declared level"

    def test_same_seed_identical_history_bytes(self, runs):
        first, second = runs
        assert first.history_text == second.history_text
        assert first.journals == second.journals
        assert first.network_counters == second.network_counters
        assert first.certification == second.certification

    def test_batch_checker_agrees_with_live_monitor(self, runs):
        result, _ = runs
        report = check(parse_history(result.history_text))
        assert report.ok(IsolationLevel.PL_3)
        assert report.strongest_level == result.strongest_level()

    def test_different_seed_differs(self, runs):
        first, _ = runs
        other = run_stress(StressConfig(
            clients=4,
            txns_per_client=25,
            seed=8,
            network=FAULTY,
            crash_after_commits=30,
        ))
        assert other.history_text != first.history_text


SCHEDULES = {
    "drop-heavy": NetworkConfig(drop=0.15, min_delay=1, max_delay=3),
    "duplicate-heavy": NetworkConfig(duplicate=0.2, min_delay=1, max_delay=3),
    "reorder-only": NetworkConfig(min_delay=1, max_delay=8),
    "drops+dups": FAULTY,
}


class TestDeterminismAcrossSchedules:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_identical_seed_identical_run(self, name):
        config = StressConfig(
            clients=3,
            txns_per_client=6,
            seed=13,
            network=SCHEDULES[name],
            crash_after_commits=8,
        )
        a, b = run_stress(config), run_stress(config)
        assert a.history_text == b.history_text
        assert a.journals == b.journals
        # identical CheckReport, not just identical bytes
        ra = check(parse_history(a.history_text))
        rb = check(parse_history(b.history_text))
        assert ra.explain() == rb.explain()
        assert a.all_certified and b.all_certified

    def test_partition_schedule_is_deterministic(self):
        def run():
            net = SimulatedNetwork(NetworkConfig(seed=21, min_delay=1, max_delay=3))
            server = Server(net, "locking", initial={"x": 0})
            client = Client(
                net, policy=RetryPolicy(timeout=6, max_attempts=12)
            )
            outcomes = []
            for i in range(6):
                if i == 2:
                    net.set_partition(("client",), ("server",))
                if i == 4:
                    net.heal()
                try:
                    client.begin()
                    client.write("x", i)
                    client.commit()
                    outcomes.append("ok")
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
                    client.tid = None
            return outcomes, tuple(client.journal), repr(server.history())

        first, second = run(), run()
        assert first == second
        outcomes = first[0]
        assert "ok" in outcomes  # commits before and after the partition
        assert any(o != "ok" for o in outcomes)  # partition really bit


class TestDeclaredLevels:
    """Every commit is certified live by the online analysis, which keeps
    the core phenomena only: a level proscribing another one is refused
    when the config is built, before any tick."""

    @pytest.mark.parametrize(
        "level", ["PL-SI", "PL-2+", "PL-SS", "PL-CS", IsolationLevel.PL_SI]
    )
    def test_uncertifiable_levels_are_refused(self, level):
        name = str(level)
        with pytest.raises(ValueError, match=f"level {re.escape(name)} proscribes"):
            StressConfig(scheduler="snapshot-isolation", level=level)

    @pytest.mark.parametrize("command", ["stress", "capacity"])
    def test_the_cli_refuses_before_any_tick(self, command, monkeypatch, capsys):
        from repro import cli
        from repro.service import capacity, stress

        def started(*_args, **_kwargs):
            pytest.fail("a run started")

        monkeypatch.setattr(stress, "run_stress", started)
        monkeypatch.setattr(capacity, "run_stress", started)
        argv = [command, "--scheduler", "snapshot-isolation", "--level", "PL-SI"]
        assert cli.main(argv) == 2
        assert "level PL-SI proscribes G-SI" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["PL-2", "PL-3", None])
    def test_core_levels_are_accepted(self, level):
        result = run_stress(StressConfig(
            scheduler="snapshot-isolation", level=level, clients=2,
            txns_per_client=3, seed=1,
        ))
        assert result.committed == 6


class TestStuckRunsSayWhy:
    def test_exceeding_max_ticks_lists_pendings_and_parks(self):
        # Far too few ticks for the load: the error names what every
        # unfinished script was waiting for and who is parked behind whom.
        with pytest.raises(RuntimeError) as stuck:
            run_stress(StressConfig(
                clients=8, txns_per_client=20, keys=4, ops_per_txn=3, seed=2,
                max_ticks=120, cluster=ClusterConfig(shards=2),
            ))
        report = str(stuck.value)
        assert "exceeded 120 ticks (0/8 scripts done)" in report
        lines = report.splitlines()[1:]
        assert [line.split(":")[0].strip() for line in lines] == [
            *(f"c{i}" for i in range(8)), "shard0", "shard1",
        ]
        assert any(" rid=" in line and "next wake" in line for line in lines[:8])
        assert any(" behind [" in line for line in lines[8:])


class TestSchedulerFamilies:
    @pytest.mark.parametrize(
        "family,floor",
        [
            ("locking", IsolationLevel.PL_3),
            ("optimistic", IsolationLevel.PL_3),
            ("mixed-optimistic", IsolationLevel.PL_3),
            ("snapshot-isolation", IsolationLevel.PL_2),
            ("mv-read-committed", IsolationLevel.PL_2),
        ],
    )
    def test_stress_certifies_each_family(self, family, floor):
        result = run_stress(StressConfig(
            scheduler=family,
            clients=3,
            txns_per_client=6,
            seed=3,
            network=NetworkConfig(
                drop=0.03, duplicate=0.03, min_delay=1, max_delay=3
            ),
            crash_after_commits=8,
        ))
        assert result.committed == 18
        assert result.all_certified
        strongest = result.strongest_level()
        assert strongest is not None and strongest.implies(floor)

    def test_declared_level_override(self):
        result = run_stress(StressConfig(
            scheduler="locking",
            level="PL-1",
            clients=2,
            txns_per_client=4,
            seed=5,
            network=NetworkConfig(min_delay=1, max_delay=2),
        ))
        assert result.all_certified
        levels = {lvl for _t, (lvl, _ok) in result.certification.items() if lvl}
        assert levels == {IsolationLevel.PL_1}


# ----------------------------------------------------------------------
# end-to-end causal tracing through the service stack
# ----------------------------------------------------------------------

TRACED_FAULTY = NetworkConfig(
    drop=0.08, duplicate=0.12, min_delay=1, max_delay=5
)


def _traced_stress(seed=7, **overrides):
    from repro.observability import Tracer

    kwargs = dict(
        scheduler="locking",
        clients=4,
        txns_per_client=8,
        keys=4,
        seed=seed,
        network=TRACED_FAULTY,
        crash_after_commits=12,
        restart_delay=30,
    )
    kwargs.update(overrides)
    return run_stress(StressConfig(**kwargs), tracer=Tracer())


def _records_by_trace(records):
    """Group records by trace id: spans via their ``trace_id`` attr,
    attr-less spans/events via their parent span."""
    by_trace, span_trace = {}, {}
    for rec in records:
        trace_id = rec.get("attrs", {}).get("trace_id")
        if trace_id is not None:
            by_trace.setdefault(trace_id, []).append(rec)
            if rec["kind"] == "span":
                span_trace[rec["id"]] = trace_id
    for rec in records:
        if rec.get("attrs", {}).get("trace_id") is None:
            parent = rec.get("span") if rec["kind"] == "event" else rec.get("parent")
            trace_id = span_trace.get(parent)
            if trace_id is not None:
                by_trace.setdefault(trace_id, []).append(rec)
                if rec["kind"] == "span":
                    span_trace[rec["id"]] = trace_id
    return by_trace


class TestEndToEndTracing:
    """ISSUE acceptance: one client request's retries, duplicate delivery,
    server-side scheduler wait, and commit certification under a single
    trace id — deterministically."""

    @pytest.fixture(scope="class")
    def traced(self):
        return _traced_stress()

    def test_one_trace_id_carries_whole_transaction_story(self, traced):
        by_trace = _records_by_trace(traced.tracer.records)
        full_story = []
        for trace_id, recs in by_trace.items():
            retried = any(
                r["kind"] == "span"
                and r["name"] == "client.request"
                and r["attrs"].get("attempts", 1) > 1
                for r in recs
            )
            duplicated = any(
                r["kind"] == "span"
                and r["name"] == "net.msg"
                and r["attrs"].get("duplicate")
                for r in recs
            )
            waited = any(
                r["name"] in ("busy", "blocked", "lock.blocked") for r in recs
            )
            certified = any(
                r["kind"] == "event" and r["name"] == "commit.certified"
                for r in recs
            )
            if retried and duplicated and waited and certified:
                full_story.append(trace_id)
        assert full_story, (
            "no single trace id exhibits retry + duplicate + wait + "
            "certification"
        )

    def test_single_root_and_no_orphans(self, traced):
        from repro.observability import span_tree

        roots = span_tree(traced.tracer.records)
        assert [n["record"]["name"] for n in roots] == ["stress.run"]

    def test_span_vocabulary_complete(self, traced):
        names = {r["name"] for r in traced.tracer.records}
        assert {
            "stress.run",
            "client.txn",
            "client.request",
            "net.msg",
            "server.handle",
            "server.wait",
            "send",
            "commit.certified",
        } <= names
        # the faulty schedule really produced the interesting events
        assert {"backoff", "busy", "blocked", "lock.blocked"} <= names
        assert {"server.crash", "server.restart"} <= names

    def test_net_msg_fates_partition_counters(self, traced):
        fates = {}
        for r in traced.tracer.records:
            if r["kind"] == "span" and r["name"] == "net.msg":
                fates[r["attrs"]["fate"]] = fates.get(r["attrs"]["fate"], 0) + 1
        assert fates.get("delivered", 0) == traced.network_counters["delivered"]
        lost = (
            fates.get("lost-down", 0)
            + fates.get("lost-partition", 0)
            + fates.get("lost-crash", 0)
        )
        assert lost == (
            traced.network_counters["lost_down"]
            + traced.network_counters["lost_partition"]
        )

    def test_identical_seeds_byte_identical_traces(self):
        import json

        first = _traced_stress(seed=11)
        second = _traced_stress(seed=11)
        a = "\n".join(
            json.dumps(r, sort_keys=True) for r in first.tracer.records
        )
        b = "\n".join(
            json.dumps(r, sort_keys=True) for r in second.tracer.records
        )
        assert a == b

    def test_traceview_renders_waterfall_and_critical_path(self, traced):
        from repro.observability import span_tree
        from repro.observability.traceview import critical_path, waterfall

        art = waterfall(traced.tracer.records, max_lines=50)
        assert "stress.run" in art and "=" in art
        hops = critical_path(span_tree(traced.tracer.records)[0])
        assert hops[0]["name"] == "stress.run" and len(hops) > 1

    def test_run_span_carries_config_and_outcome(self, traced):
        run = [
            r
            for r in traced.tracer.records
            if r["kind"] == "span" and r["name"] == "stress.run"
        ]
        assert len(run) == 1
        attrs = run[0]["attrs"]
        assert attrs["scheduler"] == "locking"
        assert attrs["network"]["duplicate"] == TRACED_FAULTY.duplicate
        assert attrs["committed"] == traced.committed
        assert attrs["crashes"] == 1 and attrs["restarts"] == 1

    def test_dedup_hits_traced_under_original_request(self, traced):
        """Duplicate deliveries answered from the reply cache still parent
        under the (single) client request span covering every attempt."""
        client_request_ids = {
            r["id"]
            for r in traced.tracer.records
            if r["kind"] == "span" and r["name"] == "client.request"
        }
        dedup = [
            r
            for r in traced.tracer.records
            if r["kind"] == "span"
            and r["name"] == "server.handle"
            and r["attrs"].get("outcome") == "dedup-hit"
        ]
        assert dedup, "duplicate-heavy schedule must produce dedup hits"
        assert all(r["parent"] in client_request_ids for r in dedup)


class TestProvenanceUnderFaults:
    """Witness-cycle provenance must survive duplicate delivery and
    crash/restart, and replay byte-identically."""

    @pytest.fixture(scope="class")
    def weak(self):
        return _traced_stress(
            scheduler="mv-read-committed",
            clients=4,
            txns_per_client=6,
            keys=3,
            seed=0,
            network=NetworkConfig(duplicate=0.15, min_delay=1, max_delay=4),
            crash_after_commits=8,
        )

    def test_phenomenon_provenance_in_service_trace(self, weak):
        phen = weak.tracer.events("phenomenon")
        assert phen, "MV read committed under RMW contention must latch"
        for event in phen:
            attrs = event["attrs"]
            assert attrs["phenomenon"]
            assert attrs.get("cycle") or attrs.get("witnesses")

    def test_witness_cycle_survives_crash_restart(self, weak):
        assert weak.crashes == 1 and weak.restarts == 1
        phen = weak.tracer.events("phenomenon")
        crash_seq = weak.tracer.events("server.crash")[0]["seq"]
        restart_seq = weak.tracer.events("server.restart")[0]["seq"]
        latched_before = [e for e in phen if e["seq"] < crash_seq]
        assert latched_before, "phenomena latched before the crash"
        assert restart_seq > crash_seq
        # the provenance record is still intact after recovery: the cycle
        # edges name real transactions of the final history
        tids = {
            int(t)
            for e in latched_before
            for edge in e["attrs"].get("cycle", [])
            for t in (edge["src"], edge["dst"])
        }
        assert tids <= set(weak.history.tids)

    def test_provenance_replays_byte_identically(self, weak):
        import json

        again = _traced_stress(
            scheduler="mv-read-committed",
            clients=4,
            txns_per_client=6,
            keys=3,
            seed=0,
            network=NetworkConfig(duplicate=0.15, min_delay=1, max_delay=4),
            crash_after_commits=8,
        )
        a = [json.dumps(e, sort_keys=True) for e in weak.tracer.events("phenomenon")]
        b = [json.dumps(e, sort_keys=True) for e in again.tracer.events("phenomenon")]
        assert a == b and a

    def test_duplicate_delivery_does_not_duplicate_provenance(self, weak):
        import json

        assert weak.network_counters["duplicated"] > 0
        phen = weak.tracer.events("phenomenon")
        seen = [
            (e["attrs"]["phenomenon"], json.dumps(e["attrs"].get("cycle"), sort_keys=True))
            for e in phen
        ]
        assert len(seen) == len(set(seen)), "phenomena latch exactly once"
