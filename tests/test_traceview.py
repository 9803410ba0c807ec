"""Tests for repro.observability.traceview: latency percentiles, critical
paths, waterfalls, contention summaries, the Chrome trace-event export
round-trip, and the unified run report."""

import json

import pytest

from repro.observability import Tracer, read_trace, span_tree
from repro.observability.traceview import (
    RunReport,
    build_run_report,
    contention_summary,
    contention_table,
    critical_path,
    from_chrome_trace,
    latency_table,
    percentile,
    to_chrome_trace,
    verb_latencies,
    waterfall,
    write_chrome_trace,
)
from repro.service import NetworkConfig, StressConfig, run_stress

FAULTY = NetworkConfig(drop=0.05, duplicate=0.08, min_delay=1, max_delay=5)


def _traced_run(seed=3, **overrides):
    kwargs = dict(
        scheduler="locking",
        clients=3,
        txns_per_client=5,
        keys=4,
        seed=seed,
        network=FAULTY,
        crash_after_commits=6,
        restart_delay=30,
    )
    kwargs.update(overrides)
    return run_stress(StressConfig(**kwargs), tracer=Tracer())


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile(values, 0) == 1

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_unsorted_input(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestVerbLatencies:
    def test_service_verbs_present(self, traced):
        stats = verb_latencies(traced.tracer.records)
        assert set(stats) == {"begin", "read", "write", "commit"}
        for s in stats.values():
            assert s["count"] > 0
            assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

    def test_durations_cover_retries(self, traced):
        """Request-span latency spans every attempt: with retries in the
        run, the max must exceed one round trip."""
        assert traced.client_stats["retries"] > 0
        stats = verb_latencies(traced.tracer.records)
        assert max(s["max"] for s in stats.values()) > 2 * FAULTY.max_delay

    def test_latency_table_renders(self, traced):
        table = latency_table(traced.tracer.records)
        assert table.splitlines()[0].split() == [
            "verb", "count", "p50", "p95", "p99", "mean", "max",
        ]
        assert any(line.startswith("commit") for line in table.splitlines())

    def test_empty_records(self):
        assert verb_latencies([]) == {}
        assert "(no request spans)" in latency_table([])


class TestCriticalPath:
    def test_descends_latest_finisher(self, traced):
        roots = span_tree(traced.tracer.records)
        hops = critical_path(roots[0])
        assert hops[0]["name"] == "stress.run"
        for above, below in zip(hops, hops[1:]):
            assert above["start"] <= below["start"] or above["end"] >= below["end"]
        # the path ends at a leaf that actually ends last among siblings
        assert hops[-1]["self"] >= 0

    def test_self_time_accounts_for_tail(self):
        tr = Tracer(clock=iter(range(100)).__next__)
        root = tr.span("root", stack=False)  # t=1
        child = tr.span("child", parent=root, stack=False)  # t=2
        child.end()  # t=3
        root.end()  # t=4
        hops = critical_path(span_tree(tr.records)[0])
        assert [h["name"] for h in hops] == ["root", "child"]
        assert hops[0]["self"] == pytest.approx(1.0)  # 4 - 3

    def test_leaf_only(self):
        tr = Tracer()
        tr.span("solo").end()
        hops = critical_path(span_tree(tr.records)[0])
        assert len(hops) == 1
        assert hops[0]["self"] == pytest.approx(hops[0]["duration"])


class TestWaterfall:
    def test_renders_all_spans(self, traced):
        art = waterfall(traced.tracer.records, max_lines=10_000)
        spans = [r for r in traced.tracer.records if r["kind"] == "span"]
        assert len(art.splitlines()) == len(spans) + 1  # + header
        assert "stress.run" in art

    def test_bars_and_events_marked(self):
        tr = Tracer(clock=iter(range(100)).__next__)
        with tr.span("work"):
            tr.event("tick")
        art = waterfall(tr.records)
        line = art.splitlines()[1]
        assert "=" in line and "*" in line

    def test_max_lines_truncates_with_note(self, traced):
        art = waterfall(traced.tracer.records, max_lines=5)
        assert "more spans (max_lines=5)" in art.splitlines()[-1]
        assert len(art.splitlines()) == 7  # header + 5 + note

    def test_empty(self):
        assert waterfall([]) == "(no closed spans)"

    def test_orphan_only_trace_draws_the_orphans_row(self):
        """Every span of a truncated trace may be missing: the synthetic
        ``orphans`` root is then the only row, and the axis is its own."""
        orphan = {
            "kind": "event", "id": 1, "span": 99, "name": "x", "time": 3,
            "attrs": {}, "seq": 0,
        }
        header, row = waterfall([orphan]).splitlines()
        assert "t=3" in header and "3=t" in header
        assert row.startswith("orphans ") and row.endswith("| 3-3 (0)")
        assert row.count("*") == 1


class TestContention:
    def test_hot_keys_surface(self, traced):
        rows = contention_summary(traced.tracer.records)
        assert rows, "faulty contended run must show contention"
        objs = {row["obj"] for row in rows}
        assert objs <= {f"k{i}" for i in range(4)}
        # sorted hottest first by wait ticks
        waits = [row["wait_ticks"] for row in rows]
        assert waits == sorted(waits, reverse=True)
        top = rows[0]
        assert top["busy_replies"] > 0
        assert top["lock_blocks"] > 0
        assert top["wait_ticks"] > 0

    def test_wait_ticks_are_the_parked_time(self, traced):
        records = traced.tracer.records
        parked = [
            r for r in records
            if r["kind"] == "span" and r["name"] == "server.wait"
        ]
        assert parked and all(r["attrs"]["obj"] for r in parked)
        rows = contention_summary(records)
        assert sum(row["wait_ticks"] for row in rows) == sum(
            r["end"] - r["start"] for r in parked
        )

    def test_contention_table_renders(self, traced):
        table = contention_table(traced.tracer.records, top=3)
        assert len(table.splitlines()) <= 4
        assert table.splitlines()[0].split() == [
            "object", "busy", "blocks", "wait", "ticks",
        ]

    def test_no_contention(self):
        tr = Tracer()
        with tr.span("quiet"):
            pass
        assert contention_summary(tr.records) == []
        assert "(no contention observed)" in contention_table(tr.records)


class TestChromeTraceExport:
    def test_round_trips_exactly(self, traced, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(traced.tracer.records, path)
        back = from_chrome_trace(json.load(open(path, encoding="utf-8")))
        assert list(back) == sorted(
            traced.tracer.records, key=lambda r: r["seq"]
        )
        assert back.skipped == 0

    def test_read_trace_detects_chrome_json(self, traced, tmp_path):
        """`read_trace` on the exported file reconstructs the records —
        the satellite acceptance: export round-trips through read_trace."""
        path = str(tmp_path / "trace.json")
        write_chrome_trace(traced.tracer.records, path)
        back = read_trace(path)
        assert list(back) == sorted(
            traced.tracer.records, key=lambda r: r["seq"]
        )

    def test_phase_vocabulary(self, traced):
        data = to_chrome_trace(traced.tracer.records)
        phases = {e["ph"] for e in data["traceEvents"]}
        assert phases == {"M", "X", "i"}
        lanes = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M"
        }
        assert any(lane.startswith("c0#") for lane in lanes)

    def test_foreign_events_counted_skipped(self):
        data = {
            "traceEvents": [
                {"name": "gc", "ph": "X", "ts": 0, "dur": 5, "args": {}},
            ]
        }
        back = from_chrome_trace(data)
        assert back == [] and back.skipped == 1


class TestRunReport:
    def test_sections_present(self, traced):
        report = build_run_report(result=traced, title="t")
        md = report.to_markdown()
        for section in (
            "## Fault schedule and configuration",
            "## Outcome",
            "## Logical latency by verb",
            "## Top contended objects",
            "## Phenomena",
            "## Trace",
        ):
            assert section in md
        assert "crash_after_commits" in md
        assert "committed transactions" in md

    def test_json_rendering_is_valid(self, traced):
        report = build_run_report(result=traced, title="t")
        data = json.loads(report.to_json())
        assert data["title"] == "t"
        assert data["summary"]["committed transactions"] == traced.committed
        assert data["trace_stats"]["traces"] > 0

    def test_identical_seeds_identical_reports(self):
        first = build_run_report(result=_traced_run(), title="t")
        second = build_run_report(result=_traced_run(), title="t")
        assert first.to_json() == second.to_json()
        assert first.to_markdown() == second.to_markdown()

    def test_report_from_records_only(self, traced):
        report = build_run_report(traced.tracer.records, title="records")
        assert report.summary == {}
        assert report.latencies
        md = report.to_markdown()
        assert "no request spans" not in md

    def test_phenomena_inline_with_provenance(self):
        """A weak scheduler's latched phenomena appear in the report with
        their witness cycles."""
        result = _traced_run(
            scheduler="mv-read-committed", keys=3, txns_per_client=6, seed=0
        )
        report = build_run_report(result=result, title="weak")
        assert report.phenomena
        names = {p["phenomenon"] for p in report.phenomena}
        assert names & {"G2", "G2-item", "G-single", "G1c"}
        md = report.to_markdown()
        assert "### G2" in md or "### G-single" in md
        cycled = [p for p in report.phenomena if p.get("cycle")]
        assert cycled, "witness cycles must ride along"

    def test_metrics_snapshot_folds_in(self, traced):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc()
        report = build_run_report(
            traced.tracer.records, metrics=registry, title="m"
        )
        assert "demo_total" in report.to_markdown()

    def test_empty_report_renders(self):
        report = RunReport(title="empty")
        md = report.to_markdown()
        assert "no request spans" in md
        assert "none latched." in md
