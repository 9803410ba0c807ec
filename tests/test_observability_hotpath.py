"""Structural guards for the cost of observability.

Counts, not timings (every number is exact per seed), in the style of
``test_service_hotpath``.  ``test_observability_golden`` pins *what* the
tracer, the registry and the flight recorder emit; this module pins

* **off = free** — a bare run never reaches an emitting method: with every
  one of them patched to raise, bare runs complete and still equal the
  committed ``stress_golden.json`` digests;
* **on = one build per record, one lookup per observation** — attrs are
  sanitised once per record and copied only when a value has to be replaced,
  ``_jsonable`` runs only for values that are not flat scalars, and label
  keys are built per bound series and per cold-path observation, never per
  message.
"""

from __future__ import annotations

import pytest

from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    flight as flight_mod,
    metrics as metrics_mod,
    trace as trace_mod,
)
from repro.service import ClusterConfig, NetworkConfig, StressConfig, run_stress

from . import test_stress_golden as stress_golden

#: Every method of the observability plane that emits, counts or wires a
#: sink: the ladder's ``observability`` layer plus the bound gauge and
#: histogram handles.
EMITTERS = (
    (trace_mod.Tracer, ("span", "event", "nest")),
    (trace_mod.Span, ("set", "event", "end")),
    (metrics_mod.MetricsRegistry, ("tick", "counter", "gauge", "histogram")),
    (metrics_mod.Counter, ("inc", "labels")),
    (metrics_mod._BoundCounter, ("inc",)),
    (metrics_mod.Gauge, ("set", "inc", "dec", "labels")),
    (metrics_mod._BoundGauge, ("set",)),
    (metrics_mod.Histogram, ("observe", "labels")),
    (metrics_mod._BoundHistogram, ("observe",)),
    (flight_mod.FlightRecorder, ("attach", "bind", "on_phenomenon", "check_slos")),
)


class TestOffIsFree:
    @pytest.mark.parametrize("seed", (0, 3, 6))
    @pytest.mark.parametrize("name", ("single", "cluster_2x2"))
    def test_bare_runs_never_reach_an_emitter(self, monkeypatch, name, seed):
        def unreachable(*args, **kwargs):
            raise AssertionError("a bare run reached the observability plane")

        for owner, names in EMITTERS:
            for method in names:
                monkeypatch.setattr(owner, method, unreachable)
        assert (
            stress_golden.digest(name, seed)
            == stress_golden._golden()[name][str(seed)]
        )


OBSERVED = StressConfig(
    seed=3,
    scheduler="locking",
    clients=8,
    txns_per_client=10,
    keys=8,
    ops_per_txn=3,
    network=NetworkConfig(min_delay=1, max_delay=3),
    cluster=ClusterConfig(shards=2, replicas=2),
)


def _observed_run():
    return run_stress(
        OBSERVED,
        metrics=MetricsRegistry(),
        tracer=Tracer(),
        flight=FlightRecorder(),
    )


def _count_calls(monkeypatch, owner, name, counts, label=None):
    original = getattr(owner, name)
    label = label or name

    def counted(*args, **kwargs):
        counts[label] = counts.get(label, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _is_flat(value) -> bool:
    """What the tracer keeps as it is (a scalar) or copies with ``list``
    (a flat list of scalars): no ``_jsonable`` call either way."""
    if type(value) in (list, tuple):
        return all(type(item) in trace_mod._SCALARS for item in value)
    return type(value) in trace_mod._SCALARS


class TestOneBuildPerRecord:
    def test_attrs_are_sanitised_once_and_copied_only_to_replace_a_value(
        self, monkeypatch
    ):
        original = trace_mod._sanitised
        log = {"calls": 0, "copies": 0, "must_copy": 0}
        emitted = []

        def checked(attrs):
            before = dict(attrs)
            out = original(attrs)
            log["calls"] += 1
            log["copies"] += out is not attrs
            log["must_copy"] += any(
                type(v) not in trace_mod._SCALARS for v in attrs.values()
            )
            # The caller's dict is never modified; the output is what the
            # unconditional deep copy it replaced would have built.
            assert attrs == before
            assert out == trace_mod._jsonable(before)
            emitted.append(out)
            return out

        monkeypatch.setattr(trace_mod, "_sanitised", checked)
        result = _observed_run()
        records = result.tracer.records
        assert result.committed == 80 and len(records) > 8_000
        assert log["calls"] == len(records)
        assert log["copies"] == log["must_copy"] < len(records) // 2
        # The record holds the sanitised dict itself, nothing rebuilt it.
        assert all(r["attrs"] is out for r, out in zip(records, emitted))

    def test_jsonable_runs_only_for_values_that_are_not_flat(self, monkeypatch):
        original = trace_mod._jsonable
        log = {"outermost": 0, "depth": 0}

        def counted(value):
            log["outermost"] += log["depth"] == 0
            log["depth"] += 1
            try:
                return original(value)
            finally:
                log["depth"] -= 1

        seen = {"not_flat": 0, "values": 0}
        sanitised = trace_mod._sanitised

        def watching(attrs):
            seen["values"] += len(attrs)
            seen["not_flat"] += sum(not _is_flat(v) for v in attrs.values())
            return sanitised(attrs)

        monkeypatch.setattr(trace_mod, "_jsonable", counted)
        monkeypatch.setattr(trace_mod, "_sanitised", watching)
        _observed_run()
        # Only ``stress.run``'s nested config summary needs the slow path
        # here; ``tids``/``holders``/``participants`` are flat lists.
        assert log["outermost"] == seen["not_flat"]
        assert 0 < seen["not_flat"] <= 8 and seen["values"] > 50_000

    def test_a_span_closed_twice_emits_once_and_late_attrs_stay_out(self):
        tracer = Tracer()
        span = tracer.span("work", stack=False, a=1)
        span.end(b=2)
        (record,) = tracer.records
        span.end(c=3)  # no-op: no second record, ``c`` dropped
        span.set(d=4)  # lands on the span, not on the emitted record
        assert tracer.records == [record]
        assert record["attrs"] == {"a": 1, "b": 2}
        assert span.attrs == {"a": 1, "b": 2, "d": 4}
        span.event("late", e=5)  # still parented to the closed span
        assert tracer.records[1]["span"] == span.id
        assert tracer.records[1]["attrs"] == {"e": 5}

    def test_caller_owned_values_are_not_shared_with_the_record(self):
        tracer = Tracer()
        holders, nested = [1, 2], {"k": (1, {2})}
        span = tracer.span("work", holders=holders, nested=nested, n=1)
        span.end()
        attrs = tracer.records[0]["attrs"]
        assert attrs == {"holders": [1, 2], "nested": {"k": [1, [2]]}, "n": 1}
        holders.append(3)
        assert attrs["holders"] == [1, 2]
        assert span.attrs["holders"] is holders  # the span's own stays raw


class TestOneLookupPerObservation:
    def test_label_keys_are_built_per_binding_not_per_observation(
        self, monkeypatch
    ):
        counts = {}
        _count_calls(monkeypatch, metrics_mod, "_label_key", counts)
        for owner, names, label in (
            (metrics_mod.Counter, ("labels",), "bindings"),
            (metrics_mod.Gauge, ("labels",), "bindings"),
            (metrics_mod.Histogram, ("labels",), "bindings"),
            (metrics_mod.Counter, ("inc",), "cold"),
            (metrics_mod.Gauge, ("set", "inc"), "cold"),
            (metrics_mod.Histogram, ("observe",), "cold"),
            (metrics_mod._BoundCounter, ("inc",), "bound"),
            (metrics_mod._BoundGauge, ("set",), "bound"),
            (metrics_mod._BoundHistogram, ("observe",), "bound"),
            (metrics_mod.MetricsRegistry, ("counter", "gauge", "histogram"), "lookups"),
        ):
            for name in names:
                _count_calls(monkeypatch, owner, name, counts, label)
        result = _observed_run()
        series = sum(len(i._series) for i in result.metrics.instruments())
        assert result.committed == 80 and series > 30
        # Nothing builds a label key but a binding or an unbound observation,
        # and nothing looks an instrument up but those two.
        assert counts["_label_key"] == counts["bindings"] + counts["cold"]
        assert counts["lookups"] <= counts["bindings"] + counts["cold"]
        # One binding per (owner, series) — two shards, two recorders — and
        # cold observations per commit or 2PC round, never per message.
        assert counts["bindings"] <= 2 * series
        assert counts["cold"] <= 8 * result.committed
        assert counts["bound"] >= 20 * counts["_label_key"]

    def test_bound_handles_create_their_series_at_first_use(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "a gauge").labels(shard=0)
        histogram = registry.histogram("h", "a histogram").labels(scope="item")
        # Registered, so exported — but no series until something is observed.
        assert registry.snapshot()["g"]["series"] == []
        assert registry.snapshot()["h"]["series"] == []
        assert registry.render_prometheus() == ""
        gauge.set(3)
        histogram.observe(7)
        histogram.observe(2000)
        unbound = MetricsRegistry()
        unbound.gauge("g", "a gauge").set(3, shard=0)
        unbound.histogram("h", "a histogram").observe(7, scope="item")
        unbound.histogram("h", "a histogram").observe(2000, scope="item")
        assert registry.snapshot() == unbound.snapshot()
        assert registry.render_prometheus() == unbound.render_prometheus()
        assert registry.render_text() == unbound.render_text()

    def test_verbs_that_hash_alike_are_counted_apart(self):
        # 1, True and 1.0 are one dict key and three label values: the
        # per-verb series memo only ever holds ``str`` verbs.
        from repro.service.network import SimulatedNetwork
        from repro.service.server import Server

        registry = MetricsRegistry()
        server = Server(SimulatedNetwork(), metrics=registry)
        for rid, kind in enumerate((1, True, 1.0, "ping", "ping")):
            server.handle({"kind": kind, "session": "s", "rid": rid}, "s")
        requests = registry.counter("service_requests_total")
        assert {dict(k)["verb"]: v for k, v in requests.series().items()} == {
            "1": 1, "True": 1, "1.0": 1, "ping": 2,
        }


class TestFlightRecorderWiring:
    def test_attaching_twice_to_one_tracer_rings_each_record_once(self):
        tracer, recorder = Tracer(), FlightRecorder()
        assert recorder.attach(tracer).attach(tracer) is recorder
        tracer.event("tick")
        assert [len(ring) for ring in recorder.rings().values()] == [1]

    def test_a_recorder_reused_across_runs_on_one_tracer(self):
        tracer, recorder = Tracer(), FlightRecorder(capacity=1 << 20)
        config = StressConfig(
            seed=1, clients=2, txns_per_client=2,
            network=NetworkConfig(min_delay=1, max_delay=2),
        )
        for _ in range(2):
            run_stress(config, tracer=tracer, flight=recorder)
        assert sum(len(r) for r in recorder.rings().values()) == len(tracer.records)

    def test_a_prior_sink_still_sees_every_record_after_the_ring(self):
        seen = []
        tracer = Tracer(seen.append)
        recorder = FlightRecorder().attach(tracer)
        tracer.span("work", shard=1).end()
        tracer.event("tick")
        assert seen == tracer.records
        assert {lane: len(r) for lane, r in recorder.rings().items()} == {
            "cluster": 1, "shard1": 1,
        }

    def test_lane_precedence_shard_then_dst_then_src_then_cluster(self):
        recorder = FlightRecorder()
        recorder._endpoint_lane = {"shard0": "shard0", "shard1.r0": "shard1"}
        lane = recorder._lane_of
        assert lane({"shard": 1, "dst": "shard0"}) == "shard1"
        assert lane({"dst": "shard0", "src": "shard1.r0"}) == "shard0"
        assert lane({"dst": "c0", "src": "shard1.r0"}) == "shard1"
        assert lane({"dst": "c0", "src": "c1"}) == "cluster"
        assert lane({}) == "cluster"
        # ``True == 1``, but it never shares shard 1's memoised lane.
        assert lane({"shard": True}) == "shardTrue"
        assert lane({"shard": "1", "src": "shard0"}) == "shard0"
