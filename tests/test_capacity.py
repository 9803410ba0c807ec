"""Open-loop load, admission control, certification backpressure and the
capacity sweep (repro.service.capacity + the stress-driver extensions)."""

import json

import pytest

from repro.core.incremental import IncrementalAnalysis
from repro.core.levels import IsolationLevel
from repro.observability import (
    SLO,
    Tracer,
    WindowedTelemetry,
    build_run_report,
)
from repro.service import (
    AdmissionConfig,
    Client,
    ClusterConfig,
    RetryPolicy,
    Server,
    ServiceUnavailable,
    SimulatedNetwork,
    StressConfig,
    build_capacity_report,
    find_knee,
    run_capacity,
    run_stress,
)
from repro.service.capacity import KNEE_COMPLETION, CapacityRung
from repro.workloads import BurstyArrivals, PoissonArrivals, ZipfianKeys


def _open_loop(**overrides):
    kwargs = dict(
        scheduler="locking",
        clients=4,
        keys=6,
        ops_per_txn=2,
        seed=5,
        arrivals=PoissonArrivals(rate=0.06),
        horizon=600,
    )
    kwargs.update(overrides)
    return run_stress(StressConfig(**kwargs))


# ---------------------------------------------------------------------------
# open-loop stress driving
# ---------------------------------------------------------------------------


class TestOpenLoopStress:
    def test_offered_equals_schedule_and_commits_bounded(self):
        result = _open_loop()
        schedule = PoissonArrivals(rate=0.06).schedule(
            horizon=600, seed=5 * 8191 + 3
        )
        assert result.offered == len(schedule) > 0
        assert 0 < result.committed <= result.offered
        assert result.committed + result.client_aborts <= result.offered

    def test_arrivals_require_horizon(self):
        with pytest.raises(ValueError):
            StressConfig(arrivals=PoissonArrivals(rate=0.1))

    def test_deterministic_per_seed(self):
        a, b = _open_loop(), _open_loop()
        assert a.history_text == b.history_text
        assert a.journals == b.journals
        assert a.commit_latencies == b.commit_latencies

    def test_telemetry_is_purely_observational(self):
        bare = _open_loop()
        watched = _open_loop(
            windows=WindowedTelemetry(
                window=200,
                sample_every=50,
                slos=(SLO(name="p99", kind="latency", threshold=100),),
            )
        )
        assert watched.history_text == bare.history_text
        assert watched.journals == bare.journals
        assert watched.commit_latencies == bare.commit_latencies

    def test_telemetry_sees_the_run(self):
        windows = WindowedTelemetry(window=200, sample_every=50)
        result = _open_loop(windows=windows)
        assert result.windows is windows
        assert windows.arrivals.total == result.offered
        assert windows.commits.total == result.committed
        assert len(windows.timeline) > 2
        assert windows.latencies["txn"].total_count == result.committed

    def test_bursty_arrivals_and_hot_keys_run(self):
        result = _open_loop(
            arrivals=BurstyArrivals(rate=0.04, burst_factor=4.0),
            hot_keys=ZipfianKeys(6, theta=0.99),
        )
        assert result.committed > 0

    def test_config_summary_records_open_loop_shape(self):
        result = _open_loop(
            hot_keys=ZipfianKeys(6, theta=0.9),
            admission=AdmissionConfig(max_active=3),
        )
        cfg = result.config
        assert cfg["arrivals"]["kind"] == "PoissonArrivals"
        assert cfg["arrivals"]["horizon"] == 600
        assert cfg["hot_keys"] == {"keys": 6, "theta": 0.9}
        assert cfg["admission"]["max_active"] == 3

    def test_closed_loop_unchanged_fields(self):
        result = run_stress(StressConfig(clients=2, txns_per_client=5, seed=3))
        assert result.offered == 10
        assert result.windows is None
        assert "arrivals" not in result.config

    def test_summary_lines(self):
        result = _open_loop()
        summary = result.summary()
        assert "certified/aborted/shed" in summary
        assert "commit latency p50/p95/p99" in summary

    def test_latency_percentile(self):
        result = _open_loop()
        p50 = result.latency_percentile(50)
        p99 = result.latency_percentile(99)
        assert p50 is not None and p99 is not None and p50 <= p99
        assert run_stress(
            StressConfig(clients=1, txns_per_client=0)
        ).latency_percentile(50) is None


# ---------------------------------------------------------------------------
# admission control / load shedding
# ---------------------------------------------------------------------------


class TestAdmission:
    def _stack(self, **admission_kw):
        net = SimulatedNetwork()
        tracer = Tracer()
        server = Server(
            net,
            "locking",
            initial={"x": 0},
            tracer=tracer,
            admission=AdmissionConfig(**admission_kw),
        )
        return net, server, tracer

    def test_hard_bound_sheds_and_recovers(self):
        net, server, tracer = self._stack(max_active=1, retry_after=5)
        holder = Client(net, name="holder")
        holder.begin()
        blocked = Client(
            net, name="blocked", policy=RetryPolicy(max_attempts=2)
        )
        with pytest.raises(ServiceUnavailable, match="shed"):
            blocked.begin()
        # Every attempt was shed individually: shed replies bypass the
        # dedup cache, so the retry hit admission again.
        assert server.counters["shed"] == 2
        assert blocked.stats["shed"] == 2
        assert any(r.get("name") == "admission.shed" for r in tracer.records)
        holder.commit()
        fresh = Client(net, name="fresh")
        fresh.begin()  # slot freed: admitted without shedding
        assert server.counters["shed"] == 2

    def test_shed_reply_carries_retry_after(self):
        net, server, _ = self._stack(max_active=1, retry_after=7)
        Client(net, name="holder").begin()
        blocked = Client(
            net, name="blocked", policy=RetryPolicy(max_attempts=2)
        )
        before = net.now
        with pytest.raises(ServiceUnavailable):
            blocked.begin()
        # The second attempt waited out the server-directed interval.
        assert net.now >= before + 7

    def test_soft_bound_probability_zero_never_sheds(self):
        net, server, _ = self._stack(
            max_active=1, shed_probability=0.0
        )
        Client(net, name="a").begin()
        Client(net, name="b").begin()
        assert server.counters["shed"] == 0

    def test_open_session_is_not_shed(self):
        net, server, _ = self._stack(max_active=1)
        a = Client(net, name="a")
        a.begin()
        # A re-begin on the session holding the slot is admitted (the old
        # transaction is aborted, freeing the slot it occupied).
        a.begin()
        assert server.counters["shed"] == 0

    def test_stress_run_sheds_under_admission(self):
        result = _open_loop(
            arrivals=PoissonArrivals(rate=0.2),
            admission=AdmissionConfig(max_active=2, retry_after=6),
        )
        assert result.server_counters["shed"] > 0
        assert result.client_stats["shed"] > 0

    def test_admission_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_active=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(shed_probability=1.5)
        with pytest.raises(ValueError):
            AdmissionConfig(on_uncertified="panic")
        with pytest.raises(ValueError):
            AdmissionConfig(certify_every=0)


# ---------------------------------------------------------------------------
# batched certification (certification lag)
# ---------------------------------------------------------------------------


class TestCertificationBatching:
    def _stack(self, certify_every):
        net = SimulatedNetwork()
        server = Server(
            net,
            "locking",
            initial={"x": 0},
            monitor=IncrementalAnalysis(order_mode="commit"),
            admission=AdmissionConfig(certify_every=certify_every),
        )
        return net, server

    def _commit_one(self, client):
        client.begin()
        client.write("x", client.read("x", for_update=True) + 1)
        return client.commit()

    def test_batch_defers_verdicts_until_full(self):
        net, server = self._stack(certify_every=3)
        client = Client(net)
        first = self._commit_one(client)
        second = self._commit_one(client)
        # Verdicts are pending: replies carry no certification yet.
        assert "certified" not in first and "certified" not in second
        assert server.certification_lag == 2
        assert server.certified == {}
        third = self._commit_one(client)
        # The batch flushed: lag drops to zero, all three certified, and
        # the flushing commit's own verdict rides its reply.
        assert third["certified"] is True
        assert server.certification_lag == 0
        assert set(server.certified.values()) == {True}
        assert len(server.certified) == 3

    def test_flush_certification_drains_partial_batch(self):
        net, server = self._stack(certify_every=10)
        client = Client(net)
        self._commit_one(client)
        self._commit_one(client)
        assert server.certification_lag == 2
        verdicts = server.flush_certification()
        assert list(verdicts.values()) == [True, True]
        assert server.certification_lag == 0
        assert server.flush_certification() == {}

    def test_certify_every_one_is_inline(self):
        net, server = self._stack(certify_every=1)
        reply = self._commit_one(Client(net))
        assert reply["certified"] is True
        assert server.certification_lag == 0

    def test_stress_drains_pending_batch_at_end(self):
        result = _open_loop(
            admission=AdmissionConfig(certify_every=4),
            windows=WindowedTelemetry(window=200, sample_every=50),
        )
        # Every commit got a verdict despite batching (final flush).
        assert len(result.certification) == result.committed
        assert result.all_certified
        assert result.windows.max_certification_lag > 0


# ---------------------------------------------------------------------------
# uncertified reactions: downgrade-the-session / abort-to-restore
# ---------------------------------------------------------------------------


def _write_skew(on_uncertified):
    """Drive a classic SI write skew through the service, declared PL-3,
    so the second commit fails live certification."""
    net = SimulatedNetwork()
    tracer = Tracer()
    server = Server(
        net,
        "si",
        initial={"x": 1, "y": 1},
        monitor=IncrementalAnalysis(order_mode="commit"),
        tracer=tracer,
        admission=AdmissionConfig(on_uncertified=on_uncertified),
    )
    a = Client(net, name="a")
    b = Client(net, name="b")
    a.begin("PL-3")
    b.begin("PL-3")
    a.write("x", a.read("x") + a.read("y"))
    b.write("y", b.read("x") + b.read("y"))
    first = a.commit()
    second = b.commit()
    assert first["certified"] is True
    assert second["certified"] is False
    return net, server, tracer, b


class TestOnUncertified:
    def test_ignore_records_verdict_only(self):
        _net, server, _tracer, _b = _write_skew("ignore")
        assert server.downgrades == []
        assert server.repair_suggestions == []

    def test_downgrade_overrides_the_session(self):
        net, server, tracer, b = _write_skew("downgrade")
        assert len(server.downgrades) == 1
        record = server.downgrades[0]
        assert record["declared"] == "PL-3"
        assert record["session"] == "b"
        downgraded_to = record["downgraded_to"]
        assert downgraded_to is not None and downgraded_to != "PL-3"
        assert any(r.get("name") == "admission.downgrade" for r in tracer.records)
        # The violating session's next begin is declared at the override,
        # whatever level it asks for.
        reply = b.call("begin", level="PL-3")
        declared = server.declared[reply["tid"]]
        assert declared == IsolationLevel.from_string(downgraded_to)

    def test_repair_emits_abort_to_restore_suggestion(self):
        _net, server, tracer, _b = _write_skew("repair")
        assert len(server.repair_suggestions) == 1
        suggestion = server.repair_suggestions[0]
        assert suggestion["level"] == "PL-3"
        assert suggestion["abort"]  # at least one committed txn must go
        assert suggestion["rounds"] >= 1
        assert any(r.get("name") == "admission.repair" for r in tracer.records)


# ---------------------------------------------------------------------------
# the capacity sweep
# ---------------------------------------------------------------------------


def _small_sweep(**overrides):
    kwargs = dict(
        template=StressConfig(
            clients=4,
            keys=6,
            admission=AdmissionConfig(max_active=3, retry_after=8),
            hot_keys=ZipfianKeys(6, theta=0.9),
        ),
        rates=[0.03, 0.08, 0.16],
        horizon=500,
        seed=11,
        slos=(SLO(name="p99", kind="latency", threshold=400, verb="txn"),),
        window=200,
        sample_every=50,
    )
    kwargs.update(overrides)
    return run_capacity(**kwargs)


class TestRunCapacity:
    def test_ladder_shape(self):
        sweep = _small_sweep()
        assert [r.rate for r in sweep.rungs] == [0.03, 0.08, 0.16]
        for rung in sweep.rungs:
            assert rung.offered >= rung.committed >= 0
            assert 0.0 <= rung.completion_ratio <= 1.0
            assert rung.stress is not None
            assert rung.slos and rung.slos[0]["name"] == "p99"
        assert sum(r.committed for r in sweep.rungs) > 0

    def test_cluster_template_reports_in_doubt_on_every_rung(self):
        sweep = run_capacity(
            StressConfig(
                clients=4, keys=6, ops_per_txn=3,
                cluster=ClusterConfig(shards=2),
            ),
            rates=[0.03, 0.08],
            horizon=300,
            seed=11,
            trace=False,
        )
        assert sweep.config["cluster"] == {"shards": 2, "slots": 16}
        for rung in sweep.rungs:
            assert rung.committed > 0
            assert rung.stress.cluster is not None
            assert isinstance(rung.max_in_doubt, int)
            assert rung.to_dict()["max_in_doubt"] == rung.max_in_doubt
        # Cross-shard commits do sit in doubt between prepare and decide.
        assert max(r.max_in_doubt for r in sweep.rungs) >= 1
        # A single-server sweep has no such column.
        assert all(r.max_in_doubt is None for r in _small_sweep(trace=False).rungs)

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            run_capacity(rates=[])

    def test_deterministic_report(self):
        a = build_capacity_report(_small_sweep())
        b = build_capacity_report(_small_sweep())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_knee_and_heatmap(self):
        sweep = _small_sweep()
        report = build_capacity_report(sweep)
        if sweep.knee is not None:
            assert report["knee"]["rate"] == sweep.knee.rate
        assert report["heatmap"]["rates"] == [0.03, 0.08, 0.16]
        # Traced rungs record per-object wait ticks; the matrix is
        # objects x rates.
        assert len(report["heatmap"]["wait_ticks"]) == len(
            report["heatmap"]["objects"]
        )
        for row in report["heatmap"]["wait_ticks"]:
            assert len(row) == 3

    def test_trace_off_skips_heatmap(self):
        report = build_capacity_report(_small_sweep(trace=False))
        assert report["heatmap"]["objects"] == []

    def test_result_to_dict_roundtrips_json(self):
        sweep = _small_sweep(trace=False)
        assert json.loads(json.dumps(sweep.to_dict()))["seed"] == 11


class TestFindKnee:
    def _rung(self, rate, offered, committed):
        return CapacityRung(
            rate=rate, offered=offered, committed=committed, aborted=0,
            shed=0, ticks=100, p50=None, p95=None, p99=None,
            max_queue_depth=0, max_certification_lag=0,
        )

    def test_last_keeping_up_rung_wins(self):
        rungs = [
            self._rung(0.1, 100, 100),
            self._rung(0.2, 200, 190),
            self._rung(0.4, 400, 120),
        ]
        assert find_knee(rungs) == 1
        assert rungs[1].completion_ratio >= KNEE_COMPLETION

    def test_all_overloaded_is_none(self):
        assert find_knee([self._rung(0.5, 100, 10)]) is None

    def test_zero_offered_counts_as_keeping_up(self):
        assert find_knee([self._rung(0.001, 0, 0)]) == 0

    def test_custom_completion_threshold(self):
        rungs = [self._rung(0.1, 100, 80)]
        assert find_knee(rungs) is None
        assert find_knee(rungs, completion=0.5) == 0


# ---------------------------------------------------------------------------
# the RunReport capacity section
# ---------------------------------------------------------------------------


class TestCapacityReport:
    def test_markdown_sections(self):
        sweep = _small_sweep()
        rung = sweep.knee or sweep.rungs[-1]
        report = build_run_report(
            result=rung.stress,
            config=sweep.config,
            title="capacity sweep",
            capacity=build_capacity_report(sweep),
        )
        text = report.to_markdown()
        assert "## Capacity" in text
        assert "### SLO verdicts" in text
        assert "### Contention heatmap" in text
        assert "commits/ktick" in text
        data = report.to_dict()
        assert data["capacity"]["ladder"]
        json.dumps(data)  # JSON-ready throughout

    def test_reports_without_capacity_are_unchanged(self):
        result = run_stress(StressConfig(clients=2, txns_per_client=3, seed=1))
        report = build_run_report(result=result, config={}, title="t")
        assert report.capacity is None
        assert "## Capacity" not in report.to_markdown()
