"""Cluster observability plane: shard-scoped telemetry, replication/2PC
tracing, and the anomaly flight recorder.

The contracts this suite pins:

* instrumentation is free of side effects — a replicated, faulted cluster
  run with tracer + metrics + flight recorder attached produces
  byte-identical histories, journals, certification and session-violation
  witnesses to the bare run, across a seed sweep;
* the cluster paths emit their span vocabulary (``repl.ship`` closed with
  a delivery fate, ``repl.apply`` per advancing batch, ``2pc.prepare``/
  ``2pc.decide`` under the coordinator) and their metric series
  (per-(shard, replica) replication lag, in-doubt gauge, decision and
  session-violation counters);
* duplicate deliveries on the replica read path re-send the cached reply
  with the *original* request's trace context;
* the flight recorder's dossiers are byte-identical per seed, and a
  latched phenomenon's dossier trace slice covers every witness-cycle
  transaction's spans — its 2PC and replication spans included;
* the cluster-aware traceview layer (per-shard Perfetto tracks, the
  cross-shard critical path, the replication-lag timeline, the RunReport
  Cluster section) is a pure function of the records.
"""

import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.observability import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    build_run_report,
    cluster_summary,
    cross_shard_critical_path,
    dossier_json,
    from_chrome_trace,
    replication_lag_timeline,
    to_chrome_trace,
    trace_slice,
    twopc_summary,
)
from repro.service import (
    ClusterConfig,
    NetworkConfig,
    SimulatedNetwork,
    StressConfig,
    run_stress,
)
from repro.service.cluster import Cluster

FAULTY = NetworkConfig(drop=0.05, duplicate=0.05, min_delay=1, max_delay=4)

#: Replicated cluster under faults with stale-by-choice replica reads:
#: phenomena latch reliably, and with ops_per_txn=4 over 6 keys the
#: witness transactions are cross-shard, so their dossier slices include
#: 2PC spans as well as the replication batches that carried their writes.
def anomaly_config(seed=7, **overrides):
    kwargs = dict(
        scheduler="locking", level="PL-2", clients=4, txns_per_client=10,
        keys=6, ops_per_txn=4, seed=seed, network=FAULTY,
        cluster=ClusterConfig(
            shards=2, replicas=2, replication_every=12,
            replication_lag=(4, 10),
            partition_primary_after_commits=(1, 5), heal_after=60,
        ),
        read_preference="replica", read_only_fraction=0.5,
    )
    kwargs.update(overrides)
    return StressConfig(**kwargs)


def cross_shard_config(seed=5):
    """Clean network, three shards: plenty of cross-shard 2PC commits."""
    return StressConfig(
        scheduler="locking", clients=4, txns_per_client=8, keys=8,
        ops_per_txn=4, seed=seed,
        network=NetworkConfig(min_delay=1, max_delay=3),
        cluster=ClusterConfig(shards=3),
    )


class TestInstrumentationIsFree:
    """Tracer + metrics + flight recorder change no artifact byte."""

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_replicated_run_byte_identical(self, seed):
        cfg = anomaly_config(seed)
        bare = run_stress(cfg)
        observed = run_stress(
            cfg, metrics=MetricsRegistry(), tracer=Tracer(),
            flight=FlightRecorder(),
        )
        assert bare.history_text == observed.history_text
        assert bare.journals == observed.journals
        assert bare.certification == observed.certification
        assert bare.session_violations == observed.session_violations
        assert bare.network_counters == observed.network_counters
        assert bare.server_counters == observed.server_counters
        assert bare.ticks == observed.ticks

    def test_cross_shard_run_byte_identical(self):
        cfg = cross_shard_config()
        bare = run_stress(cfg)
        observed = run_stress(cfg, metrics=MetricsRegistry(), tracer=Tracer())
        assert bare.history_text == observed.history_text
        assert bare.journals == observed.journals
        assert bare.certification == observed.certification

    def test_flight_requires_tracer(self):
        with pytest.raises(ValueError, match="requires tracer"):
            run_stress(anomaly_config(), flight=FlightRecorder())


class TestShardScopedTelemetry:
    """The span vocabulary and metric series the cluster paths emit."""

    @pytest.fixture(scope="class")
    def replicated(self):
        return run_stress(
            anomaly_config(), metrics=MetricsRegistry(), tracer=Tracer()
        )

    @pytest.fixture(scope="class")
    def crossed(self):
        return run_stress(
            cross_shard_config(), metrics=MetricsRegistry(), tracer=Tracer()
        )

    def test_repl_ship_spans_close_with_fate(self, replicated):
        ships = [
            r for r in replicated.tracer.records
            if r["kind"] == "span" and r["name"] == "repl.ship"
        ]
        assert ships
        for span in ships:
            attrs = span["attrs"]
            assert attrs["fate"] in (
                "delivered", "lost-down", "lost-partition", "lost-crash"
            )
            assert isinstance(attrs["shard"], int)
            assert isinstance(attrs["replica"], int)
            assert attrs["lag"] >= 0
            assert attrs["tids"] == sorted(attrs["tids"])

    def test_repl_apply_spans_advance(self, replicated):
        applies = [
            r for r in replicated.tracer.records
            if r["kind"] == "span" and r["name"] == "repl.apply"
        ]
        assert applies
        for span in applies:
            assert span["attrs"]["count"] >= 1  # duplicates emit nothing
            assert span["attrs"]["applied"] >= span["attrs"]["offset"]

    def test_2pc_spans_under_coordinator(self, crossed):
        records = crossed.tracer.records
        by_id = {r["id"]: r for r in records if r["kind"] == "span"}
        prepares = [
            r for r in records
            if r["kind"] == "span" and r["name"] == "2pc.prepare"
        ]
        decides = [
            r for r in records
            if r["kind"] == "span" and r["name"] == "2pc.decide"
        ]
        assert prepares and decides
        for span in prepares:
            # Parented under the client's commit request: the cross-shard
            # critical path descends through the fan-out.
            parent = by_id[span["parent"]]
            assert parent["name"] == "client.request"
            assert span["attrs"]["participants"]
        for span in decides:
            assert span["attrs"]["outcome"] in ("commit", "abort")

    def test_shard_attr_on_cluster_handle_spans(self, crossed):
        shards = {
            r["attrs"].get("shard")
            for r in crossed.tracer.records
            if r["kind"] == "span" and r["name"] == "server.handle"
        }
        assert shards == {0, 1, 2}

    def test_single_server_handle_spans_have_no_shard(self):
        result = run_stress(
            StressConfig(clients=2, txns_per_client=4, seed=1),
            tracer=Tracer(),
        )
        assert all(
            "shard" not in r["attrs"]
            for r in result.tracer.records
            if r["kind"] == "span" and r["name"] == "server.handle"
        )

    def test_replication_metric_series(self, replicated):
        snapshot = replicated.metrics.snapshot()
        lag = snapshot["service_replication_lag"]
        streams = {
            (s["labels"]["shard"], s["labels"]["replica"])
            for s in lag["series"]
        }
        assert streams == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
        applied = snapshot["service_replication_applied_total"]
        assert sum(s["value"] for s in applied["series"]) > 0

    def test_2pc_metric_series(self, crossed):
        snapshot = crossed.metrics.snapshot()
        decisions = snapshot["service_2pc_decisions_total"]
        assert sum(s["value"] for s in decisions["series"]) == len(
            twopc_summary(crossed.tracer.records)["per_txn"]
        )
        assert all(
            s["value"] == 0
            for s in snapshot["service_2pc_in_doubt"]["series"]
        )  # nothing pending once settled
        ticks = snapshot["service_2pc_in_doubt_ticks"]
        assert sum(s["count"] for s in ticks["series"]) > 0

    def test_session_violation_counter_matches_witnesses(self, replicated):
        snapshot = replicated.metrics.snapshot()
        counted = sum(
            s["value"]
            for s in snapshot["service_session_violations"]["series"]
        )
        assert counted == len(replicated.session_violations)
        events = [
            r for r in replicated.tracer.records
            if r["kind"] == "event" and r["name"] == "session.violation"
        ]
        assert len(events) == len(replicated.session_violations)

    def test_stale_read_counter_present(self, replicated):
        snapshot = replicated.metrics.snapshot()
        assert sum(
            s["value"] for s in snapshot["service_stale_reads"]["series"]
        ) > 0


class TestWindowedClusterGauges:
    def test_cluster_rows_and_snapshot(self):
        from repro.observability.windows import WindowedTelemetry

        cfg = anomaly_config(windows=WindowedTelemetry(sample_every=50))
        result = run_stress(cfg)
        rows = result.windows.timeline
        assert rows
        assert "shard_certification_lag" in rows[-1]
        assert "in_doubt" in rows[-1]
        snap = result.windows.snapshot(result.ticks)
        assert "max_in_doubt" in snap
        assert set(snap["max_shard_certification_lag"]) == {0, 1}

    def test_single_server_rows_unchanged(self):
        from repro.observability.windows import WindowedTelemetry

        cfg = StressConfig(
            clients=2, txns_per_client=4, seed=1,
            windows=WindowedTelemetry(sample_every=50),
        )
        result = run_stress(cfg)
        rows = result.windows.timeline
        assert rows and "in_doubt" not in rows[-1]
        assert "max_in_doubt" not in result.windows.snapshot(result.ticks)


class TestReplicaDedupTraceContext:
    """Duplicate deliveries re-send the cached reply carrying the original
    request's trace context (satellite of the dedup-cache fix)."""

    def test_cached_hit_preserves_original_context(self):
        net = SimulatedNetwork(NetworkConfig(min_delay=1, max_delay=1, seed=1))
        cluster = Cluster(
            net, "locking",
            config=ClusterConfig(shards=1, replicas=1),
            initial={"k0": 5},
        )
        replica = cluster.replica_of(0, 0)
        replica._values["k0"] = (1, 5, False)  # as if one batch applied
        request = {
            "kind": "read", "session": "s", "rid": 1, "obj": "k0",
            "trace": {"id": "T-orig", "span": 11},
        }
        first = replica.handle(dict(request), "c0")
        assert first["ok"] and first["trace"] == {"id": "T-orig", "span": 11}
        retransmit = dict(request, trace={"id": "T-orig", "span": 99})
        duplicate = replica.handle(retransmit, "c0")
        assert replica.counters["dedup_hits"] == 1
        assert duplicate["trace"] == {"id": "T-orig", "span": 11}

    def test_fresh_error_replies_echo_context(self):
        net = SimulatedNetwork(NetworkConfig(min_delay=1, max_delay=1, seed=1))
        cluster = Cluster(
            net, "locking",
            config=ClusterConfig(shards=1, replicas=1),
            initial={"k0": 5},
        )
        replica = cluster.replica_of(0, 0)
        reply = replica.handle(
            {
                "kind": "read", "session": "s", "rid": 1, "obj": "k0",
                "trace": {"id": "T1", "span": 3},
            },
            "c0",
        )
        assert reply["error"] == "lagging"
        assert reply["trace"] == {"id": "T1", "span": 3}


class TestFlightRecorder:
    @pytest.fixture(scope="class")
    def latched(self):
        flight = FlightRecorder()
        result = run_stress(
            anomaly_config(), metrics=MetricsRegistry(), tracer=Tracer(),
            flight=flight,
        )
        return result

    def test_phenomenon_latches_a_dossier(self, latched):
        dossiers = latched.dossiers()
        assert dossiers
        assert all(d["kind"] == "phenomenon" for d in dossiers)
        assert all(d["witness_tids"] for d in dossiers)

    def test_dossier_state_snapshot_shape(self, latched):
        state = latched.dossiers()[0]["state"]
        assert {"two_pc", "shards", "replicas", "map_version"} <= set(state)
        assert len(state["shards"]) == 2
        assert len(state["replicas"]) == 4
        for row in state["replicas"]:
            assert {"shard", "replica", "applied", "lag", "up"} <= set(row)

    def test_rings_are_shard_scoped_and_bounded(self, latched):
        recent = latched.dossiers()[0]["recent"]
        assert {"cluster", "shard0", "shard1"} <= set(recent)
        capacity = latched.flight.capacity
        assert all(len(ring) <= capacity for ring in recent.values())
        for lane in ("shard0", "shard1"):
            shard = int(lane[-1])
            for record in recent[lane]:
                attrs = record.get("attrs") or {}
                assert attrs.get("shard") == shard or attrs.get(
                    "dst", ""
                ).startswith(f"shard{shard}") or attrs.get(
                    "src", ""
                ).startswith(f"shard{shard}")

    def test_trace_slice_covers_witness_cycle(self, latched):
        """Acceptance: the slice contains every witness transaction's
        spans, its 2PC spans and its replication batches included."""
        for dossier in latched.dossiers():
            tids = set(dossier["witness_tids"])
            names_by_tid = {}
            sliced_tids = set()
            for record in dossier["trace_slice"]:
                attrs = record.get("attrs") or {}
                if attrs.get("tid") in tids:
                    sliced_tids.add(attrs["tid"])
                    names_by_tid.setdefault(attrs["tid"], set()).add(
                        record["name"]
                    )
                sliced_tids.update(set(attrs.get("tids") or ()) & tids)
            assert sliced_tids == tids
            for tid in tids:
                assert "client.txn" in names_by_tid[tid]
            all_names = {r["name"] for r in dossier["trace_slice"]}
            assert {"repl.ship", "repl.apply"} <= all_names
            assert {"2pc.prepare", "2pc.decide"} <= all_names

    def test_slice_is_closed_under_parents(self, latched):
        for dossier in latched.dossiers():
            ids = {r["id"] for r in dossier["trace_slice"]}
            seqs = [r["seq"] for r in dossier["trace_slice"]]
            assert seqs == sorted(seqs)
            for record in dossier["trace_slice"]:
                parent = (
                    record.get("parent")
                    if record["kind"] == "span"
                    else record.get("span")
                )
                # Parents are either in the slice or outside the witness
                # trace entirely (e.g. the stress.run root, by design).
                if parent in ids:
                    continue

    @pytest.mark.parametrize("seed", [3, 7])
    def test_dossiers_byte_identical_per_seed(self, seed):
        def dossiers():
            return run_stress(
                anomaly_config(seed), metrics=MetricsRegistry(),
                tracer=Tracer(), flight=FlightRecorder(),
            ).dossiers()

        assert [dossier_json(d) for d in dossiers()] == [
            dossier_json(d) for d in dossiers()
        ]

    def test_opcheck_dossier_from_stale_reads(self, latched):
        dossier = latched.flight.opcheck_dossier(latched)
        assert dossier is not None and dossier["kind"] == "opcheck"
        assert dossier["trigger"]["witnesses"]
        assert dossier["witness_tids"]
        assert dossier["trace_slice"]
        json.loads(dossier_json(dossier))  # canonical JSON round-trips

    def test_trace_slice_empty_without_tids(self):
        assert trace_slice([{"kind": "span", "id": 1, "seq": 0}], []) == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestClusterTraceview:
    @pytest.fixture(scope="class")
    def replicated(self):
        return run_stress(anomaly_config(), tracer=Tracer())

    def test_cluster_tracks_round_trip(self, replicated):
        records = replicated.tracer.records
        data = to_chrome_trace(records)
        names = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"cluster", "shard 0", "shard 1"} <= names
        threads = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"primary", "replica 0", "replica 1"} <= threads
        assert list(from_chrome_trace(data)) == list(records)

    def test_flat_export_unchanged_by_flag(self):
        # The `cluster_tracks=` flag is gone: the layout is read off the
        # records.  A trace with no shard attribute (a single server) still
        # exports as one unnamed process, byte for byte what it was before.
        # (The digest was taken at the commit that still had the flag, and
        # taken again when parked requests changed the trace itself: that
        # commit's parent exports these records to the same bytes.)
        single = run_stress(
            StressConfig(
                clients=3, txns_per_client=5, seed=5,
                network=NetworkConfig(drop=0.05, duplicate=0.05, max_delay=3),
            ),
            tracer=Tracer(),
        )
        records = single.tracer.records
        flat = to_chrome_trace(records)
        assert all(e["pid"] == 1 for e in flat["traceEvents"])
        assert not any(e["name"] == "process_name" for e in flat["traceEvents"])
        digest = hashlib.sha256(
            json.dumps(flat, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert digest == (
            "8869260d55e3f3654ed1d3d608c08eee3ea08627dd74b609c726a0c2ebab20cd"
        )
        assert list(from_chrome_trace(flat)) == list(records)

    def test_replication_lag_timeline(self, replicated):
        timeline = replication_lag_timeline(replicated.tracer.records)
        assert set(timeline) == {"0:0", "0:1", "1:0", "1:1"}
        for samples in timeline.values():
            assert all(s["lag"] >= 0 for s in samples)
            offsets = [s["offset"] for s in samples]
            assert offsets == sorted(offsets)

    def test_cross_shard_critical_path_descends_2pc(self):
        result = run_stress(cross_shard_config(), tracer=Tracer())
        hops = cross_shard_critical_path(result.tracer.records)
        names = [h["name"] for h in hops]
        assert names[0] == "client.request"
        assert "2pc.prepare" in names and "2pc.decide" in names
        assert names.index("2pc.prepare") < names.index("2pc.decide")
        # the fan-out legs are chased into the network
        assert names[names.index("2pc.prepare") + 1] == "net.msg"

    def test_twopc_summary_counts_decisions(self):
        result = run_stress(cross_shard_config(), tracer=Tracer())
        summary = twopc_summary(result.tracer.records)
        assert summary["transactions"] > 0
        assert summary["outcomes"] == {"commit": summary["transactions"]}
        assert summary["in_doubt_ticks"]["max"] >= summary[
            "in_doubt_ticks"
        ]["p50"]

    def test_run_report_cluster_section(self, replicated):
        report = build_run_report(result=replicated, title="t")
        assert report.cluster is not None
        markdown = report.to_markdown()
        assert "## Cluster" in markdown
        assert "### Replication lag" in markdown
        assert "### Session-guarantee violations" in markdown
        parsed = json.loads(report.to_json())
        assert parsed["cluster"]["shards"]
        assert parsed["cluster"]["replication"]

    def test_single_server_report_has_no_cluster_section(self):
        result = run_stress(
            StressConfig(clients=2, txns_per_client=4, seed=1),
            tracer=Tracer(),
        )
        report = build_run_report(result=result, title="t")
        assert report.cluster is None
        assert "## Cluster" not in report.to_markdown()

    def test_cluster_summary_pure_function(self, replicated):
        records = list(replicated.tracer.records)
        assert cluster_summary(records) == cluster_summary(records)


class TestDossierCli:
    def test_selftest_passes(self):
        out = io.StringIO()
        assert main(["dossier", "--selftest"], out=out) == 0
        text = out.getvalue()
        assert "byte-identical reruns  : yes" in text
        assert "witness spans covered  : yes" in text
        assert "selftest               : ok" in text

    def test_render_and_json_artifact(self, tmp_path):
        artifact = tmp_path / "dossiers.json"
        out = io.StringIO()
        assert main(
            ["dossier", "--opcheck", "--out", str(artifact)], out=out
        ) == 0
        assert "anomaly dossier: phenomenon" in out.getvalue()
        dossiers = json.loads(artifact.read_text())
        assert any(d["kind"] == "opcheck" for d in dossiers)

    def test_json_format_is_canonical(self):
        out = io.StringIO()
        assert main(["dossier", "--format", "json"], out=out) == 0
        first = out.getvalue()
        out2 = io.StringIO()
        assert main(["dossier", "--format", "json"], out=out2) == 0
        assert first == out2.getvalue()

    def test_cluster_report_command(self, tmp_path):
        chrome = tmp_path / "trace.json"
        out = io.StringIO()
        assert main(
            ["cluster-report", "--chrome-out", str(chrome)], out=out
        ) == 0
        text = out.getvalue()
        assert "## Cluster" in text
        assert "### Cross-shard 2PC" in text
        data = json.loads(chrome.read_text())
        assert any(
            e.get("name") == "process_name" for e in data["traceEvents"]
        )
