"""Tests for the command-line interface (repro.cli)."""

import io
import subprocess
import sys

import pytest

from repro.cli import main

H_SERIAL = "w1(x1) c1 r2(x1) c2"
H_DIRTY = "w1(x1) r2(x1) c2 a1"
H_WCYCLE = "w1(x1) w2(x2) w2(y2) c2 w1(y1) c1 [x1 << x2, y2 << y1]"


def run_cli(*argv):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestClassify:
    def test_serial(self):
        status, text = run_cli("classify", H_SERIAL)
        assert status == 0
        assert text.strip() == "PL-3"

    def test_below_pl1(self):
        status, text = run_cli("classify", H_WCYCLE)
        assert status == 0
        assert text.strip() == "none"


class TestCheck:
    def test_full_report(self):
        status, text = run_cli("check", H_DIRTY)
        assert status == 0
        assert "G1a" in text and "strongest level: PL-1" in text

    def test_single_level_ok(self):
        status, text = run_cli("check", "--level", "PL-3", H_SERIAL)
        assert status == 0
        assert "PROVIDED" in text

    def test_single_level_violated_exit_1(self):
        status, text = run_cli("check", "--level", "serializable", H_DIRTY)
        assert status == 1
        assert "VIOLATED" in text

    def test_extensions_flag(self):
        status, text = run_cli("check", "--extensions", H_SERIAL)
        assert status == 0
        assert "PL-SI" in text

    def test_unknown_level_exit_2(self):
        status, _text = run_cli("check", "--level", "chaos", H_SERIAL)
        assert status == 2

    def test_parse_error_exit_2(self):
        status, _text = run_cli("check", "w1(x1) garbage")
        assert status == 2

    def test_auto_complete(self):
        status, text = run_cli("check", "--auto-complete", "w1(x1) c1 w2(x2)")
        assert status == 0


class TestOtherCommands:
    def test_dsg_outputs_dot(self):
        status, text = run_cli("dsg", H_SERIAL)
        assert status == 0
        assert "digraph" in text and "T1 -> T2" in text

    def test_phenomena(self):
        status, text = run_cli("phenomena", H_DIRTY)
        assert status == 0
        assert "G1a: EXHIBITED" in text
        assert "G0: absent" in text

    def test_mixing_ok(self):
        status, text = run_cli("mixing", H_SERIAL)
        assert status == 0
        assert "mixing-correct" in text

    def test_mixing_violation_exit_1(self):
        history = (
            "b1@PL-3 b2@PL-1 r1(x0, 1) w2(x2, 2) w2(y2, 2) c2 r1(y2, 2) c1 "
            "[x0 << x2]"
        )
        status, text = run_cli("mixing", history)
        assert status == 1
        assert "NOT mixing-correct" in text

    def test_preventative(self):
        status, text = run_cli("preventative", "w1(x1) r2(x1) c1 c2")
        assert status == 0
        assert "P1: EXHIBITED" in text


class TestFileInput:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text(H_SERIAL)
        status, text = run_cli("classify", "--file", str(path))
        assert status == 0
        assert text.strip() == "PL-3"

    def test_missing_file_exit_2(self):
        status, _ = run_cli("classify", "--file", "/nonexistent/h.txt")
        assert status == 2


class TestModuleEntrypoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "classify", H_SERIAL],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "PL-3"


class TestCorpusCommand:
    def test_self_test_passes(self):
        status, text = run_cli("corpus")
        assert status == 0
        assert "0 mismatches" in text
        assert "H_phantom" in text and "write-skew" in text


class TestRepairCommand:
    def test_repair_lost_update(self):
        status, text = run_cli(
            "repair",
            "r1(x0, 10) r2(x0, 10) w2(x2, 15) c2 w1(x1, 11) c1 [x0 << x2 << x1]",
        )
        assert status == 0
        assert "yields PL-3" in text
        assert "repaired history:" in text

    def test_repair_clean_history(self):
        status, text = run_cli("repair", H_SERIAL)
        assert status == 0
        assert "nothing to abort" in text

    def test_repair_custom_level(self):
        status, text = run_cli("repair", "--level", "PL-2", H_DIRTY)
        assert status == 0
        assert "yields PL-2" in text

    def test_repair_bad_level(self):
        status, _text = run_cli("repair", "--level", "chaos", H_SERIAL)
        assert status == 2


class TestReportCommand:
    def test_report_reproduces_everything(self):
        status, text = run_cli("report")
        assert status == 0
        assert "Overall: all artifacts reproduce" in text
        for section in ("FIG3", "FIG4", "FIG5", "FIG6", "SEC2", "SEC3", "SEC55"):
            assert f"{section} " in text
        assert "FAIL" not in text


H_WRITE_SKEW = "r1(x0) r1(y0) r2(x0) r2(y0) w1(x1) c1 w2(y2) c2"


class TestStatsCommand:
    def test_text_format(self):
        status, text = run_cli("stats", H_SERIAL)
        assert status == 0
        assert "checker_checks_total" in text
        assert "history_events" in text

    def test_json_format_parses(self):
        import json

        status, text = run_cli("stats", "--format", "json", H_SERIAL)
        assert status == 0
        data = json.loads(text)
        assert data["checker_checks_total"]["series"][0]["value"] == 1
        assert data["history_events"]["series"][0]["value"] == 4
        assert data["history_transactions"]["series"][0]["value"] == 2
        assert data["checker_extract_seconds"]["type"] == "histogram"

    def test_prometheus_format(self):
        status, text = run_cli("stats", "--format", "prometheus", H_SERIAL)
        assert status == 0
        assert "# TYPE checker_checks_total counter" in text
        assert "checker_checks_total 1" in text
        assert "checker_extract_seconds_count 1" in text


class TestTraceCommand:
    def test_stdout_jsonl(self):
        import json

        status, text = run_cli("trace", H_SERIAL)
        assert status == 0
        records = [json.loads(line) for line in text.splitlines() if line]
        assert all(r["kind"] in ("span", "event") for r in records)
        assert any(r["kind"] == "span" and r["name"] == "checker.check" for r in records)

    def test_out_file_round_trips(self, tmp_path):
        from repro.observability import read_trace, span_tree

        path = tmp_path / "spans.jsonl"
        status, text = run_cli("trace", "--out", str(path), H_WRITE_SKEW)
        assert status == 0
        assert "G2" in text  # summary line names latched phenomena
        records = read_trace(str(path))
        roots = span_tree(records)
        assert {r["record"]["name"] for r in roots} >= {
            "trace.replay",
            "checker.check",
        }

    def test_provenance_event_names_witness_edges(self, tmp_path):
        import json

        path = tmp_path / "spans.jsonl"
        status, _text = run_cli("trace", "-o", str(path), H_WRITE_SKEW)
        assert status == 0
        phenomena = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record["kind"] == "event" and record["name"] == "phenomenon":
                    phenomena.append(record["attrs"])
        g2 = [p for p in phenomena if p["phenomenon"] == "G2"]
        assert len(g2) == 1
        assert sorted(g2[0]["cycle_tids"]) == [1, 2]
        assert [e["kind"] for e in g2[0]["cycle"]] == ["rw", "rw"]


class TestCheckMetricsFlag:
    def test_check_metrics_appends_registry_dump(self):
        status, text = run_cli("check", "--metrics", H_SERIAL)
        assert status == 0
        assert "strongest level: PL-3" in text
        assert "metrics:" in text
        assert "checker_checks_total" in text

    def test_check_level_metrics(self):
        status, text = run_cli("check", "--level", "PL-3", "--metrics", H_SERIAL)
        assert status == 0
        assert "checker_checks_total" in text

    def test_check_without_flag_has_no_metrics(self):
        status, text = run_cli("check", H_SERIAL)
        assert status == 0
        assert "checker_checks_total" not in text

    def test_check_many_metrics(self, tmp_path):
        paths = []
        for i, h in enumerate((H_SERIAL, H_DIRTY)):
            p = tmp_path / f"h{i}.txt"
            p.write_text(h + "\n")
            paths.append(str(p))
        status, text = run_cli("check-many", "--metrics", *paths)
        assert status == 0
        assert "checker_checks_total" in text
        assert "2" in text


class TestServe:
    def test_serve_demo(self):
        status, text = run_cli("serve")
        assert status == 0
        assert "alice: begin" in text and "bob: commit() -> ok" in text
        assert "history:" in text

    def test_serve_selftest(self):
        status, text = run_cli("serve", "--selftest")
        assert status == 0
        assert "reproducible           : yes" in text
        assert "selftest               : ok" in text
        assert "all 30 commits certified" in text

    def test_serve_selftest_other_scheduler(self):
        status, text = run_cli("serve", "--selftest", "--scheduler", "mvcc")
        assert status == 0
        assert "selftest               : ok" in text


class TestStress:
    def test_stress_certifies(self):
        status, text = run_cli(
            "stress", "--clients", "2", "--txns", "4", "--seed", "9",
            "--crash-after", "4",
        )
        assert status == 0
        assert "committed transactions : 8" in text
        assert "server crashes/restarts: 1/1" in text
        assert "all 8 commits certified" in text

    def test_stress_journal_and_history(self):
        status, text = run_cli(
            "stress", "--clients", "1", "--txns", "2", "--drop", "0",
            "--duplicate", "0", "--journal", "--history",
        )
        assert status == 0
        assert "client journals:" in text and "c0:" in text
        assert "history:" in text and "c1" in text

    def test_stress_bad_scheduler(self):
        status, _ = run_cli("stress", "--scheduler", "bogus")
        assert status == 2

    def test_no_pipeline_flag_is_gone(self):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("stress", "--no-pipeline")
        assert exit_info.value.code == 2


class TestObservabilityFlags:
    def test_stress_trace_records_service_spans(self, tmp_path):
        from repro.observability import read_trace, span_tree

        path = tmp_path / "stress.jsonl"
        status, text = run_cli(
            "stress", "--clients", "2", "--txns", "3", "--seed", "3",
            "--trace", str(path),
        )
        assert status == 0
        assert f"wrote" in text and "trace records" in text
        records = read_trace(str(path))
        assert records.skipped == 0
        names = {r["name"] for r in records}
        assert {
            "stress.run", "client.txn", "client.request",
            "net.msg", "server.handle",
        } <= names
        roots = span_tree(records)
        assert [n["record"]["name"] for n in roots] == ["stress.run"]

    def test_stress_trace_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            status, _ = run_cli(
                "stress", "--clients", "2", "--txns", "3", "--seed", "5",
                "--crash-after", "3", "--trace", str(path),
            )
            assert status == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stress_metrics_flags(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        status, text = run_cli(
            "stress", "--clients", "2", "--txns", "3",
            "--metrics", "--metrics-out", str(path),
        )
        assert status == 0
        assert "metrics:" in text
        assert "service_requests_total" in text
        data = json.loads(path.read_text())
        assert "service_messages_total" in data

    def test_serve_selftest_trace_and_metrics(self, tmp_path):
        from repro.observability import read_trace

        path = tmp_path / "selftest.jsonl"
        status, text = run_cli(
            "serve", "--selftest", "--trace", str(path), "--metrics",
        )
        assert status == 0
        assert "selftest               : ok" in text
        assert "service_requests_total" in text
        records = read_trace(str(path))
        assert any(r["name"] == "stress.run" for r in records)

    def test_serve_demo_trace(self, tmp_path):
        from repro.observability import read_trace

        path = tmp_path / "demo.jsonl"
        status, _text = run_cli("serve", "--trace", str(path))
        assert status == 0
        records = read_trace(str(path))
        sessions = {
            r["attrs"]["session"]
            for r in records
            if r["kind"] == "span" and r["name"] == "client.txn"
        }
        assert sessions == {"alice", "bob"}


class TestRunReportCommand:
    def test_report_stress_markdown(self):
        status, text = run_cli(
            "report", "--stress", "--clients", "2", "--txns", "3",
            "--seed", "3", "--crash-after", "3",
        )
        assert status == 0
        assert "# Run report — stress scheduler=locking seed=3" in text
        assert "## Fault schedule and configuration" in text
        assert "## Logical latency by verb" in text
        assert "server crashes/restarts | 1/1" in text

    def test_report_stress_json(self):
        import json

        status, text = run_cli(
            "report", "--stress", "--clients", "2", "--txns", "3",
            "--format", "json",
        )
        assert status == 0
        data = json.loads(text)
        assert data["summary"]["committed transactions"] == 6
        assert data["latencies"]["commit"]["count"] >= 6

    def test_report_from_recorded_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        status, _ = run_cli(
            "stress", "--clients", "2", "--txns", "3", "--seed", "4",
            "--trace", str(trace), "--metrics-out", str(metrics),
        )
        assert status == 0
        status, text = run_cli(
            "report", "--trace", str(trace), "--metrics-file", str(metrics),
        )
        assert status == 0
        assert f"# Run report — trace {trace}" in text
        assert "## Logical latency by verb" in text
        assert "service_requests_total" in text

    def test_report_skips_a_line_that_is_not_a_record(self, tmp_path):
        """A decodable line that is no span/event record is counted like an
        undecodable one; the rest of the report is the clean trace's."""
        trace = tmp_path / "run.jsonl"
        status, _ = run_cli(
            "stress", "--clients", "2", "--txns", "3", "--seed", "4",
            "--trace", str(trace),
        )
        assert status == 0
        status, clean = run_cli("report", "--trace", str(trace))
        assert status == 0 and "skipped lines" not in clean
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write('{"name":"x"}\n')
        status, text = run_cli("report", "--trace", str(trace))
        assert status == 0
        assert text.strip().splitlines() == [
            *clean.strip().splitlines(), "| skipped lines | 1 |",
        ]

    def test_report_stress_with_trace_records_both(self, tmp_path):
        trace = tmp_path / "both.jsonl"
        status, text = run_cli(
            "report", "--stress", "--clients", "2", "--txns", "3",
            "--trace", str(trace),
        )
        assert status == 0
        assert "# Run report" in text
        assert trace.exists()

    def test_report_reports_identically_for_equal_seeds(self):
        args = (
            "report", "--stress", "--clients", "2", "--txns", "3",
            "--seed", "6", "--format", "json",
        )
        first, second = run_cli(*args), run_cli(*args)
        assert first == second

    def test_report_missing_trace_file(self):
        status, _ = run_cli("report", "--trace", "/nonexistent/trace.jsonl")
        assert status == 2

    def test_plain_report_still_reproduces_paper(self):
        status, text = run_cli("report")
        assert status == 0
        assert "Overall: all artifacts reproduce" in text


class TestCapacity:
    def test_selftest_passes(self):
        status, text = run_cli("capacity", "--selftest")
        assert status == 0
        assert "selftest               : ok" in text
        assert "reproducible           : yes" in text

    def test_sweep_markdown_report(self):
        status, text = run_cli(
            "capacity", "--rates", "0.03,0.1", "--horizon", "300",
            "--clients", "3", "--keys", "4", "--max-active", "2",
        )
        assert status == 0
        assert "## Capacity" in text
        assert "### Contention heatmap" in text

    def test_sweep_json_has_capacity_section(self):
        import json

        status, text = run_cli(
            "capacity", "--rates", "0.05", "--horizon", "300",
            "--clients", "3", "--keys", "4", "--format", "json",
            "--no-heatmap",
        )
        assert status == 0
        data = json.loads(text)
        assert data["capacity"]["ladder"]
        assert data["capacity"]["heatmap"]["objects"] == []

    def test_violated_slo_exits_1(self):
        status, text = run_cli(
            "capacity", "--rates", "0.1", "--horizon", "300",
            "--clients", "3", "--keys", "4", "--slo-p99", "1",
        )
        assert status == 1
        assert "### SLO verdicts" in text
        assert "violated" in text

    def test_bad_rates_exit_2(self):
        status, _ = run_cli("capacity", "--rates", "fast,faster")
        assert status == 2
        status, _ = run_cli("capacity", "--rates", ",")
        assert status == 2

    def test_sweeps_reproduce_for_equal_seeds(self):
        args = (
            "capacity", "--rates", "0.04,0.09", "--horizon", "300",
            "--clients", "3", "--keys", "4", "--seed", "9",
            "--zipf", "0.9", "--max-active", "2",
        )
        assert run_cli(*args) == run_cli(*args)


class TestClusterWorkloadCommands:
    """``dossier`` and ``cluster-report`` build their config through the
    same checked path as ``cluster-stress``: bad input is ``error: ...``
    and status 2, never a traceback."""

    def test_dossier_bad_input_exit_2(self, capsys):
        status, text = run_cli("dossier", "--replication-lag", "a:b")
        assert (status, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: bad --replication-lag 'a:b'; expected MIN:MAX\n"
        )
        status, _ = run_cli("dossier", "--scheduler", "bogus")
        assert status == 2

    def test_cluster_report_bad_input_exit_2(self, capsys):
        status, text = run_cli("cluster-report", "--shards", "0")
        assert (status, text) == (2, "")
        assert capsys.readouterr().err == "error: shards must be >= 1\n"
        status, _ = run_cli("cluster-report", "--replication-lag", "9:2")
        assert status == 2

    def test_cluster_stress_bad_pairs_exit_2(self, capsys):
        status, _ = run_cli("cluster-stress", "--crash-shard", "x")
        assert status == 2
        assert "expected SHARD or SHARD:N" in capsys.readouterr().err
