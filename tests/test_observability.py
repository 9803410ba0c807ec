"""Tests for repro.observability: metrics, tracing, provenance, and the
engine/checker instrumentation built on them."""

import json

import pytest

import repro
from repro.core.incremental import IncrementalAnalysis
from repro.core.phenomena import Phenomenon
from repro.engine.database import Database
from repro.engine.locking import LockingScheduler
from repro.engine.mvcc import SnapshotIsolationScheduler
from repro.engine.optimistic import OptimisticScheduler
from repro.engine.programs import Increment, Program, Read, Write
from repro.engine.simulator import Simulator
from repro.observability import (
    JsonlSink,
    MetricsRegistry,
    Tracer,
    provenance_record,
    read_trace,
    span_tree,
    watching_analysis,
    witness_cycle,
)

WRITE_SKEW = "r1(x0) r1(y0) r2(x0) r2(y0) w1(x1) c1 w2(y2) c2"


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "operations")
        c.inc(kind="read")
        c.inc(2, kind="read")
        c.inc(kind="write")
        assert c.value(kind="read") == 3
        assert c.value(kind="write") == 1
        assert c.value(kind="never") == 0
        assert c.total == 4

    def test_bound_counter_is_same_series(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total")
        bound = c.labels(kind="read")
        bound.inc()
        bound.inc(4)
        c.inc(kind="read")
        assert c.value(kind="read") == 6

    def test_registration_is_memoized_and_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("steps", buckets=(1, 10, 100))
        for v in (1, 5, 50, 500):
            h.observe(v)
        assert h.count() == 4
        assert h.sum_of() == 556
        assert h.mean() == 139
        series = h.series()[()]
        assert series.min == 1 and series.max == 500
        assert series.bucket_counts == [1, 1, 1, 1]  # <=1, <=10, <=100, +Inf

    def test_clock_ticks(self):
        reg = MetricsRegistry()
        assert reg.clock == 0
        assert reg.tick() == 1
        assert reg.tick(5) == 6

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("c", "help text").inc(scheduler="occ")
        reg.histogram("h").observe(3, kind="x")
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["series"][0] == {
            "labels": {"scheduler": "occ"},
            "value": 1,
        }
        hist = snap["h"]["series"][0]
        assert hist["count"] == 1 and hist["sum"] == 3

    def test_render_text(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(kind="read")
        text = reg.render_text()
        assert "c (counter)" in text
        assert "{kind=read}: 1" in text

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "ops help").inc(kind="read")
        reg.histogram("lat", buckets=(1, 2)).observe(1.5)
        text = reg.render_prometheus()
        assert "# HELP ops_total ops help" in text
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{kind="read"} 1' in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'lat_bucket{le="1"} 0' in text
        assert 'lat_bucket{le="2"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 1.5" in text
        assert "lat_count 1" in text


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_stacked_nesting(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                tr.event("hello", n=1)
        inner = tr.spans("inner")[0]
        outer = tr.spans("outer")[0]
        event = tr.events("hello")[0]
        assert inner["parent"] == outer["id"]
        assert event["span"] == inner["id"]
        assert outer["parent"] is None

    def test_explicit_parent_interleaved(self):
        tr = Tracer()
        root = tr.span("run", stack=False)
        a = tr.span("txn", parent=root, stack=False, tid=1)
        b = tr.span("txn", parent=root, stack=False, tid=2)
        a.event("op", step="read")
        b.end(outcome="committed")
        a.end(outcome="aborted")
        root.end()
        txns = tr.spans("txn")
        assert [s["attrs"]["tid"] for s in txns] == [2, 1]  # close order
        assert all(s["parent"] == root.id for s in txns)
        assert tr.events("op")[0]["span"] == a.id

    def test_seq_is_monotone_total_order(self):
        tr = Tracer()
        with tr.span("s"):
            tr.event("e1")
            tr.event("e2")
        seqs = [r["seq"] for r in tr.records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_span_attrs_and_error_capture(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("s", a=1) as span:
                span.set(b=2)
                raise RuntimeError("boom")
        record = tr.spans("s")[0]
        assert record["attrs"]["a"] == 1 and record["attrs"]["b"] == 2
        assert "boom" in record["attrs"]["error"]

    def test_attrs_are_sanitised_to_json(self):
        tr = Tracer()
        tr.event("e", versions=frozenset({2, 1}), obj=object())
        attrs = tr.events("e")[0]["attrs"]
        json.dumps(attrs)  # must not raise
        assert attrs["versions"] == [1, 2]
        assert isinstance(attrs["obj"], str)

    def test_double_end_is_idempotent(self):
        tr = Tracer()
        span = tr.span("s")
        span.end()
        span.end()
        assert len(tr.spans("s")) == 1


class TestJsonlRoundTrip:
    def test_sink_read_trace_span_tree(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            tr = Tracer(sink)
            with tr.span("root", kind="demo"):
                with tr.span("child"):
                    tr.event("leaf", n=7)
        records = read_trace(path)
        assert records == tr.records
        roots = span_tree(records)
        assert len(roots) == 1
        root = roots[0]
        assert root["record"]["name"] == "root"
        assert root["children"][0]["record"]["name"] == "child"
        assert root["children"][0]["events"][0]["attrs"] == {"n": 7}

    def test_every_line_is_valid_json_with_schema(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            tr = Tracer(sink)
            with tr.span("s"):
                tr.event("e")
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert record["kind"] in ("span", "event")
                if record["kind"] == "span":
                    assert {"id", "parent", "name", "start", "end", "seq"} <= set(record)
                else:
                    assert {"id", "span", "name", "time", "seq"} <= set(record)


# ----------------------------------------------------------------------
# engine instrumentation
# ----------------------------------------------------------------------


def _locked_increments(seed, *, metrics=None, tracer=None):
    db = Database(LockingScheduler("serializable"))
    db.load({"x": 0})
    programs = [
        Program("p1", [Read("x", into="a"), Increment("x")]),
        Program("p2", [Read("x", into="b"), Increment("x")]),
    ]
    sim = Simulator(db, programs, seed=seed, metrics=metrics, tracer=tracer)
    return sim.run()


class TestSimulatorMetrics:
    def test_event_counters_match_history(self):
        reg = MetricsRegistry()
        result = _locked_increments(0, metrics=reg)
        counter = reg.counter("history_events_total")
        sched = "locking/serializable"
        by_type = {
            t: counter.value(type=t, scheduler=sched)
            for t in ("begin", "read", "write", "commit", "abort")
        }
        events = [type(e).__name__.lower() for e in result.history.events]
        # The recorder emits exactly the history's events (minus the setup
        # transaction, which is loaded before instrumentation is attached).
        for kind in ("commit", "abort"):
            assert by_type[kind] == sum(
                1 for e in events if e == kind
            ) - (1 if kind == "commit" else 0)  # setup commit uncounted
        assert by_type["begin"] == sum(len(o.tids) for o in result.outcomes)

    def test_sim_steps_and_result_metrics(self):
        reg = MetricsRegistry()
        result = _locked_increments(1, metrics=reg)
        assert result.metrics is reg
        assert (
            reg.counter("sim_steps_total").total == result.steps_executed
        )
        assert reg.clock == result.steps_executed

    def test_disabled_by_default(self):
        result = _locked_increments(0)
        assert result.metrics is None
        scheduler = LockingScheduler("serializable")
        assert scheduler.metrics is None and scheduler.tracer is None

    def test_txn_spans_cover_every_attempt(self):
        tr = Tracer()
        result = _locked_increments(6, tracer=tr)
        attempts = sum(len(o.tids) for o in result.outcomes)
        txn_spans = tr.spans("txn")
        assert len(txn_spans) == attempts
        run_span = tr.spans("simulation.run")[0]
        assert all(s["parent"] == run_span["id"] for s in txn_spans)
        outcomes = [s["attrs"]["outcome"] for s in txn_spans]
        assert outcomes.count("committed") == result.committed_count

    def test_occ_validation_metrics(self):
        reg = MetricsRegistry()
        db = Database(OptimisticScheduler())
        db.load({"x": 0, "y": 0})
        programs = [
            Program("p1", [Read("x", into="a"), Write("y", 1)]),
            Program("p2", [Read("y", into="b"), Write("x", 2)]),
        ]
        total_failed = 0
        for seed in range(10):
            db = Database(OptimisticScheduler())
            db.load({"x": 0, "y": 0})
            Simulator(db, programs, seed=seed, metrics=reg).run()
        occ = reg.counter("occ_validations_total")
        total_failed = occ.value(scheduler="optimistic", outcome="failed")
        aborts = reg.counter("txn_aborts_total").value(
            scheduler="optimistic", reason="validation-failure"
        )
        assert occ.value(scheduler="optimistic", outcome="ok") > 0
        assert aborts == total_failed

    def test_si_first_committer_wins_metrics(self):
        reg = MetricsRegistry()
        programs = [
            Program("p1", [Read("x", into="a"), Increment("x")]),
            Program("p2", [Read("x", into="b"), Increment("x")]),
        ]
        losses = 0
        for seed in range(10):
            db = Database(SnapshotIsolationScheduler())
            db.load({"x": 0})
            Simulator(db, programs, seed=seed, metrics=reg).run()
        losses = reg.counter("txn_aborts_total").value(
            scheduler="snapshot-isolation", reason="first-committer-wins"
        )
        assert losses > 0  # concurrent increments must conflict sometimes


class TestDeadlockProvenance:
    """Satellite: a known two-transaction upgrade deadlock produces exactly
    one victim event carrying the correct waits-for cycle."""

    SEED = 6  # both programs read-lock x before either upgrades

    def test_single_victim_event_with_cycle(self):
        reg = MetricsRegistry()
        tr = Tracer()
        result = _locked_increments(self.SEED, metrics=reg, tracer=tr)
        assert result.deadlocks == 1
        events = tr.events("deadlock")
        assert len(events) == 1
        attrs = events[0]["attrs"]
        assert sorted(attrs["cycle"]) == [1, 2]
        assert attrs["waits"] == {"1": [2], "2": [1]}
        # The originally-youngest transaction (T2, program p2) is chosen.
        assert attrs["victim"] == 2
        assert attrs["victim_program"] == "p2"

    def test_deadlock_metrics(self):
        reg = MetricsRegistry()
        result = _locked_increments(self.SEED, metrics=reg)
        assert result.deadlocks == 1
        assert reg.counter("deadlock_victims_total").total == 1
        cycle_len = reg.histogram("waits_for_cycle_len")
        assert cycle_len.count(scheduler="locking/serializable") == 1
        assert cycle_len.sum_of(scheduler="locking/serializable") == 2
        assert (
            reg.counter("txn_aborts_total").value(
                scheduler="locking/serializable", reason="deadlock"
            )
            == 1
        )
        assert (
            reg.counter("txn_restarts_total").value(
                scheduler="locking/serializable", reason="deadlock"
            )
            == 1
        )
        # Both programs still commit after the restart.
        assert result.committed_count == 2

    def test_lock_wait_durations_in_logical_steps(self):
        reg = MetricsRegistry()
        _locked_increments(self.SEED, metrics=reg)
        holds = reg.histogram("lock_hold_steps")
        assert holds.count(scope="item", scheduler="locking/serializable") > 0
        grants = reg.counter("lock_grants_total")
        assert grants.value(
            scope="item", mode="write", scheduler="locking/serializable"
        ) > 0


# ----------------------------------------------------------------------
# checker instrumentation
# ----------------------------------------------------------------------


class TestCheckerTimings:
    def test_report_timings_populated(self):
        report = repro.check(WRITE_SKEW)
        assert "extract" in report.timings
        assert "total" in report.timings
        assert str(Phenomenon.G2) in report.timings
        assert all(v >= 0 for v in report.timings.values())

    def test_describe_timings(self):
        report = repro.check(WRITE_SKEW)
        text = report.describe_timings()
        assert "extract" in text and "us" in text

    def test_timings_add_up(self):
        """Each row is a stage's own time: extraction is not inside the
        first phenomenon asked, and G1 / G2-item do not hold the reports
        they ask for in turn.  The rows are disjoint slices of the call, so
        they cannot exceed ``total`` (the double-counted rows did: G0 alone
        held the whole extraction)."""
        from repro.workloads import synthetic_history

        history = synthetic_history(
            n_txns=1_000, n_objects=100, stale_read_fraction=0.5, seed=3
        )
        timings = repro.check(history).timings
        assert list(timings)[:2] == ["extract", "G0"]
        stages = sum(v for stage, v in timings.items() if stage != "total")
        assert 0.5 * timings["total"] <= stages <= timings["total"]
        # G1's own work is collecting three finished reports.
        assert timings["G1"] < timings["G1b"] + timings["G1a"] + timings["extract"]

    def test_check_with_metrics(self):
        reg = MetricsRegistry()
        repro.check(WRITE_SKEW, metrics=reg)
        assert reg.counter("checker_checks_total").total == 1
        assert reg.counter("checker_edges_total").total > 0
        assert reg.histogram("checker_extract_seconds").count() == 1
        per_ph = reg.histogram("checker_phenomenon_seconds")
        assert per_ph.count(phenomenon="G2") == 1

    def test_check_with_tracer_builds_span_tree(self):
        tr = Tracer()
        repro.check(WRITE_SKEW, tracer=tr)
        roots = span_tree(tr.records)
        assert [r["record"]["name"] for r in roots] == ["checker.check"]
        names = {c["record"]["name"] for c in roots[0]["children"]}
        assert "checker.extract" in names or any(
            c["record"]["name"] == "checker.extract"
            for r in roots
            for c in _walk(r)
        )

    def test_check_many_serial_threads_metrics(self):
        reg = MetricsRegistry()
        repro.check_many([WRITE_SKEW, "w1(x1) c1"], processes=1, metrics=reg)
        assert reg.counter("checker_checks_total").total == 2


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


class TestProvenance:
    def _latched(self, text):
        tr = Tracer()
        analysis = watching_analysis(tr)
        history = repro.parse_history(text)
        for event in history.events:
            analysis.add(event)
        analysis.finish()
        return tr, analysis

    def test_write_skew_names_witness_edges(self):
        tr, analysis = self._latched(WRITE_SKEW)
        g2 = [
            e
            for e in tr.events("phenomenon")
            if e["attrs"]["phenomenon"] == "G2"
        ]
        assert len(g2) == 1
        attrs = g2[0]["attrs"]
        assert sorted(attrs["cycle_tids"]) == [1, 2]
        kinds = [edge["kind"] for edge in attrs["cycle"]]
        assert kinds == ["rw", "rw"]
        objs = {edge["obj"] for edge in attrs["cycle"]}
        assert objs == {"x", "y"}
        # Supporting events point back at real history positions.
        for ev in attrs["events"]:
            assert ev["tid"] in (1, 2)
            assert 0 <= ev["index"] < len(analysis.events)

    def test_each_phenomenon_fires_once(self):
        tr, _ = self._latched(WRITE_SKEW)
        names = [e["attrs"]["phenomenon"] for e in tr.events("phenomenon")]
        assert sorted(names) == ["G2", "G2-item"]

    def test_g1a_witnesses(self):
        tr, _ = self._latched("w1(x1) r2(x1) c2 a1")
        g1a = [
            e
            for e in tr.events("phenomenon")
            if e["attrs"]["phenomenon"] == "G1a"
        ]
        assert len(g1a) == 1
        witnesses = g1a[0]["attrs"]["witnesses"]
        assert witnesses and witnesses[0]["tid"] == 2

    def test_witness_cycle_absent(self):
        analysis = IncrementalAnalysis()
        history = repro.parse_history("w1(x1) c1 r2(x1) c2")
        for event in history.events:
            analysis.add(event)
        assert witness_cycle(analysis, Phenomenon.G2) is None
        record = provenance_record(analysis, Phenomenon.G2)
        assert "cycle" not in record

    def test_g0_cycle_witness(self):
        tr, _ = self._latched(
            "w1(x1) w2(x2) w2(y2) w1(y1) c1 c2 [x1 << x2, y1 << y2]"
        )
        g0 = [
            e
            for e in tr.events("phenomenon")
            if e["attrs"]["phenomenon"] == "G0"
        ]
        assert len(g0) == 1
        assert all(edge["kind"] == "ww" for edge in g0[0]["attrs"]["cycle"])

    def test_incremental_counters(self):
        reg = MetricsRegistry()
        analysis = IncrementalAnalysis(metrics=reg)
        history = repro.parse_history(WRITE_SKEW)
        for event in history.events:
            analysis.add(event)
        assert (
            reg.counter("incremental_events_total").total
            == analysis.events_consumed
            == len(history.events)
        )
        assert (
            reg.counter("incremental_edges_total").total
            == analysis.edges_inserted
        )


# ----------------------------------------------------------------------
# truncated traces and orphan events (crash-during-trace resilience)
# ----------------------------------------------------------------------


class TestTruncatedTrace:
    def _trace_lines(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("child"):
                tr.event("leaf", n=1)
        return [json.dumps(r, sort_keys=True) for r in tr.records]

    def test_truncated_final_line_is_skipped_with_count(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        lines = self._trace_lines()
        # A crash mid-write leaves a partial final line.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
            handle.write(lines[-1][: len(lines[-1]) // 2])
        records = read_trace(path)
        assert len(records) == len(lines) - 1
        assert records.skipped == 1

    @pytest.mark.parametrize(
        "tail", [None, '{"name": "x"}', "[1, 2]", '{"kind": "metric"}']
    )
    def test_strict_mode_raises_on_a_line_that_is_not_a_record(self, tmp_path, tail):
        """A truncated line, or one that decodes to something other than a
        span/event record: skipped and counted, or an error when strict."""
        path = str(tmp_path / "trace.jsonl")
        lines = self._trace_lines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lines[0] + "\n" + (tail or lines[1][:10]))
        records = read_trace(path)
        assert len(records) == 1 and records.skipped == 1
        with pytest.raises(ValueError):
            read_trace(path, strict=True)

    def test_crash_during_jsonl_sink_leaves_readable_trace(self, tmp_path):
        """Simulate a process dying mid-record: everything already flushed
        must parse; the partial tail is skipped, not fatal."""
        path = str(tmp_path / "trace.jsonl")
        lines = self._trace_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
            handle.write('{"kind": "span", "id": 99, "na')  # died here
        records = read_trace(path)
        assert records.skipped == 1
        tree = span_tree(records)
        assert tree[0]["record"]["name"] == "root"

    def test_clean_trace_has_zero_skipped(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self._trace_lines()) + "\n")
        assert read_trace(path).skipped == 0


class TestOrphanEvents:
    def test_orphans_attach_to_synthetic_root(self):
        tr = Tracer()
        span = tr.span("never-closed")
        span.event("stranded", n=1)
        tr.event("also-stranded", span=span)
        # The span never closes (crash): its record is never emitted.
        roots = span_tree(tr.records)
        assert len(roots) == 1
        orphans = roots[0]
        assert orphans["record"]["name"] == "orphans"
        assert orphans["record"]["id"] is None
        assert orphans["record"]["attrs"] == {"synthetic": True}
        assert [e["name"] for e in orphans["events"]] == [
            "stranded",
            "also-stranded",
        ]

    def test_no_orphans_no_synthetic_root(self):
        tr = Tracer()
        with tr.span("root"):
            tr.event("fine")
        assert [n["record"]["name"] for n in span_tree(tr.records)] == ["root"]

    def test_orphan_root_spans_event_times(self):
        tr = Tracer(clock=iter(range(100)).__next__)
        dangling = tr.span("dangling")
        tr.event("a", span=dangling)
        tr.event("b", span=dangling)
        node = span_tree(tr.records)[-1]
        times = [e["time"] for e in node["events"]]
        assert node["record"]["start"] == min(times)
        assert node["record"]["end"] == max(times)
